from dataclasses import fields

import numpy as np
import pytest

from demixcs import (
    ArgumentError,
    Chain,
    Dense,
    Fourier,
    SensingModel,
    WalshHadamard,
    build_cs_ofdm,
    build_drpe,
    build_family,
    build_modulated_hadamard,
    build_partial_circulant,
    build_subsampled_hadamard,
    coherence,
    gen_instance,
    golay_sequence,
    identity,
    materialize,
)
from demixcs.linop import Diagonal, Subsample
from demixcs.models import FAMILIES, _sparse, canonical_family
from demixcs.rip import exact_rip

from conftest import dense_dft, dense_hadamard, random_complex


class TestGolay:
    def test_q1_base_pair(self):
        assert np.array_equal(golay_sequence(1), [1, 1])

    def test_q0_rejected(self):
        message = "golay_sequence q must be positive integers, got 0"
        with pytest.raises(ArgumentError, match=message):
            golay_sequence(0)

    @pytest.mark.parametrize("q", [True, 1.5, 2.0, -1])
    def test_q_must_be_a_positive_integer(self, q):
        with pytest.raises(ArgumentError, match=f"q must be positive integers, got {q!r}"):
            golay_sequence(q)
    def test_flat_spectrum_q1_through_q8(self):
        # |A(w)|^2 <= 2n at every frequency: what the cs-ofdm and drpe
        # coherence bounds rest on
        for q in range(1, 9):
            n = 2 ** q
            spec = np.abs(np.fft.fft(golay_sequence(q))) ** 2
            assert spec.max() <= 2.0 * n * (1 + 1e-12)


class TestModulatedHadamard:
    def test_frame_factor_coherence_is_exact(self):
        n, m, seed = 64, 16, 3
        # rebuild the U factor the same way the builder does and check
        # every entry has magnitude exactly 1/sqrt(m)
        from demixcs.models import _row_subset
        from demixcs.seeding import rng as make_rng
        omega = _row_subset(make_rng(seed, 0), n, m)
        u = Chain(Subsample(omega, n), WalshHadamard(n), scale=np.sqrt(n / m))
        assert coherence(u) == pytest.approx(1 / np.sqrt(m), abs=1e-15)

    def test_tight_frame_identity(self, rng):
        model = build_modulated_hadamard(128, 32, seed=9)
        v = random_complex(rng, 32)
        a_astar = model.A.apply(model.A.apply_adjoint(v))
        assert np.linalg.norm(a_astar - (128 / 32) * v) <= 1e-10 * np.linalg.norm(v)

    def test_dense_reference(self, rng):
        # independent dense construction: U D B as explicit matrices
        n, m, seed = 32, 16, 5
        from demixcs.models import _rademacher, _row_subset
        from demixcs.seeding import rng as make_rng
        omega = _row_subset(make_rng(seed, 0), n, m)
        xi = _rademacher(make_rng(seed, 1), n)
        had = dense_hadamard(n)
        u = had[omega] / np.sqrt(m)
        ref = u @ np.diag(xi) @ (had / np.sqrt(n))
        model = build_modulated_hadamard(n, m, seed=seed)
        x = random_complex(rng, n)
        assert np.linalg.norm(model.A.apply(x) - ref @ x) <= 1e-10 * np.linalg.norm(x)

    def test_requires_power_of_two(self):
        with pytest.raises(ArgumentError):
            build_modulated_hadamard(48, 16, seed=0)


class TestSubsampledHadamard:
    def test_unit_columns_and_h_coherence(self):
        model = build_subsampled_hadamard(64, 32, seed=4)
        a = materialize(model.A)
        norms = np.linalg.norm(a, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12
        assert coherence(model.H) == pytest.approx(1 / np.sqrt(32), abs=1e-15)

    def test_full_sampling_is_unitary(self):
        model = build_subsampled_hadamard(32, 32, seed=1)
        a = materialize(model.A)
        for s in (1, 2):
            assert exact_rip(a, s).delta <= 1e-10

    def test_dense_reference(self, rng):
        n, m, seed = 32, 16, 7
        from demixcs.models import _row_subset
        from demixcs.seeding import rng as make_rng
        omega = _row_subset(make_rng(seed, 0), n, m)
        ref = np.sqrt(n / m) * (dense_hadamard(n) / np.sqrt(n))[omega]
        model = build_subsampled_hadamard(n, m, seed=seed)
        x = random_complex(rng, n)
        assert np.linalg.norm(model.A.apply(x) - ref @ x) <= 1e-10 * np.linalg.norm(x)

    def test_rejects_non_power_of_two_m(self):
        with pytest.raises(ArgumentError):
            build_subsampled_hadamard(64, 24, seed=0)


class TestPartialCirculant:
    def test_modulator_energy_preserved(self):
        from demixcs.models import _rademacher
        from demixcs.seeding import rng as make_rng
        xi = _rademacher(make_rng(11, 1), 64)
        eps = Fourier(64, adjoint=True).apply(xi.astype(complex))
        assert abs(np.linalg.norm(eps) - np.linalg.norm(xi)) <= 1e-12

    def test_full_sampling_is_unitary(self, rng):
        model = build_partial_circulant(64, 64, seed=3)
        x = random_complex(rng, 64)
        ax = model.A.apply(x)
        assert abs(np.linalg.norm(ax) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("n, m, seed", [(32, 16, 13), (64, 64, 3), (128, 32, 7)])
    def test_dense_reference(self, rng, n, m, seed):
        # explicit circulant route: first column eps = F* xi, rows 0..m-1
        from demixcs.models import _rademacher
        from demixcs.seeding import rng as make_rng
        xi = _rademacher(make_rng(seed, 1), n)
        eps = dense_dft(n).conj().T @ xi
        circ = np.column_stack([np.roll(eps, j) for j in range(n)])
        ref = circ[:m] / np.sqrt(m)
        model = build_partial_circulant(n, m, seed=seed)
        x = random_complex(rng, n)
        assert np.linalg.norm(model.A.apply(x) - ref @ x) <= 1e-10 * np.linalg.norm(x)


class TestCsOfdm:
    def test_modulated_transform_unitary(self, rng):
        n = 64
        g = golay_sequence(6)
        mod = Chain(Fourier(n, adjoint=True), Diagonal(g), Fourier(n))
        x = random_complex(rng, n)
        assert abs(np.linalg.norm(mod.apply(x)) - np.linalg.norm(x)) <= 1e-10

    def test_modulated_transform_coherence_bound(self):
        n = 64
        g = golay_sequence(6)
        mod = Chain(Fourier(n, adjoint=True), Diagonal(g), Fourier(n))
        assert coherence(mod) <= np.sqrt(2.0 / n) + 1e-12

    def test_corruption_basis_coherence(self):
        model = build_cs_ofdm(64, 32, seed=8)
        assert coherence(model.H) == pytest.approx(1 / np.sqrt(32), abs=1e-12)

    def test_dense_reference(self, rng):
        n, m, seed = 32, 16, 21
        from demixcs.models import _row_subset
        from demixcs.seeding import rng as make_rng
        omega = _row_subset(make_rng(seed, 0), n, m)
        f = dense_dft(n)
        g = golay_sequence(5)
        ref = np.sqrt(n / m) * (f.conj().T @ np.diag(g) @ f)[omega]
        model = build_cs_ofdm(n, m, seed=seed)
        x = random_complex(rng, n)
        assert np.linalg.norm(model.A.apply(x) - ref @ x) <= 1e-10 * np.linalg.norm(x)


class TestDrpe:
    def test_full_sampling_unitary(self):
        model = build_drpe(64, 64, seed=2)
        a = materialize(model.A)
        assert np.abs(a.conj().T @ a - np.eye(64)).max() <= 1e-10

    def test_frame_factor_is_tight(self, rng):
        n, m = 64, 16
        u = Chain(Subsample(np.arange(m), n), Fourier(n, adjoint=True), scale=np.sqrt(n / m))
        v = random_complex(rng, m)
        uu = u.apply(u.apply_adjoint(v))
        assert np.linalg.norm(uu - (n / m) * v) <= 1e-10 * np.linalg.norm(v)

    def test_hadamard_basis_coherence_bound(self):
        n = 64
        g = golay_sequence(6)
        mod = Chain(Fourier(n), Diagonal(g), WalshHadamard(n))
        assert coherence(mod) <= 2.0 / np.sqrt(n) + 1e-12

    def test_dense_reference(self, rng):
        n, m, seed = 32, 8, 6
        from demixcs.seeding import rng as make_rng
        phases = np.exp(2j * np.pi * make_rng(seed, 0).random(n))
        f = dense_dft(n)
        g = golay_sequence(5)
        ref = np.sqrt(n / m) * (f.conj().T @ np.diag(phases) @ f @ np.diag(g))[:m]
        model = build_drpe(n, m, seed=seed)
        x = random_complex(rng, n)
        assert np.linalg.norm(model.A.apply(x) - ref @ x) <= 1e-10 * np.linalg.norm(x)


class TestFamilies:
    def test_h_unitary_where_claimed(self, rng):
        for fam in ("subsampled-hadamard", "cs-ofdm"):
            model = build_family(fam, 64, 32, seed=5)
            z = random_complex(rng, 32)
            round_trip = model.H.apply_adjoint(model.H.apply(z))
            assert np.linalg.norm(round_trip - z) <= 1e-10 * np.linalg.norm(z)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n, m", [(32, 32), (64, 32), (128, 64)])
    def test_stacked_frame_identity(self, family, n, m):
        # [A, H][A, H]* = (n/m + 1) I: every family is a tight frame stacked
        # with a unitary H, which is what a step size of 1/sqrt(n/m + 1) rests on
        model = build_family(family, n, m, seed=3)
        t = np.hstack([materialize(model.A), materialize(model.H)])
        assert np.abs(t @ t.conj().T - (n / m + 1) * np.eye(m)).max() <= 1e-13

    @pytest.mark.parametrize("family", FAMILIES)
    def test_more_rows_than_columns_rejected(self, family):
        with pytest.raises(ArgumentError, match="need 1 <= m <= n, got m=64, n=32"):
            build_family(family, 32, 64, 0)

    @pytest.mark.parametrize("seed", [2.5, True, -1])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_seed_must_be_a_nonnegative_integer(self, family, seed):
        with pytest.raises(ArgumentError, match=f"seed {seed!r} and path"):
            build_family(family, 32, 16, seed)

    def test_aliases(self):
        assert canonical_family("mtx1") == "modulated-hadamard"
        assert canonical_family("mtx2") == "subsampled-hadamard"
        for name in ("nope", "custom"):
            with pytest.raises(ArgumentError, match="unknown model family"):
                canonical_family(name)


class TestSensingModel:
    def test_shape_is_read_from_a(self):
        model = SensingModel(A=Dense(np.ones((4, 3))), H=identity(4), family="custom", seed=0)
        assert (model.m, model.n) == (4, 3)
        assert [f.name for f in fields(SensingModel)] == ["A", "H", "family", "seed"]

    @pytest.mark.parametrize("h", [identity(3), Dense(np.ones((4, 3)))], ids=["rows", "square"])
    def test_h_must_be_m_by_m(self, h):
        with pytest.raises(ArgumentError, match="H must be square with as many rows as A"):
            SensingModel(A=Dense(np.eye(4)), H=h, family="custom", seed=0)


class TestGenSparse:
    def test_zero_sparsity(self):
        assert np.array_equal(_sparse(8, 0, "gaussian", 1), np.zeros(8))

    def test_full_flat_is_all_ones(self):
        assert np.array_equal(_sparse(5, 5, "flat", 2), np.ones(5))

    def test_seeded_reproducibility_is_bitwise(self):
        a = _sparse(64, 7, "gaussian", 123)
        b = _sparse(64, 7, "gaussian", 123)
        assert np.array_equal(a, b)
        c = _sparse(64, 7, "gaussian", 124)
        assert not np.array_equal(a, c)

    def test_support_size(self):
        v = _sparse(50, 9, "gaussian", 3)
        assert np.count_nonzero(v) == 9
        w = _sparse(50, 9, "flat", 3)
        assert np.count_nonzero(w) == 9
        assert np.all(w[np.nonzero(w)] == 1.0)


class TestGenInstance:
    def test_all_zero_case(self):
        model = build_modulated_hadamard(32, 16, seed=0)
        inst = gen_instance(model, 0, 0, "gaussian", 0.0, seed=1)
        assert np.linalg.norm(inst.y) == 0.0

    def test_noise_norm_is_exact(self):
        model = build_modulated_hadamard(32, 16, seed=0)
        inst = gen_instance(model, 2, 2, "gaussian", 0.25, seed=1)
        assert abs(np.linalg.norm(inst.w) - 0.25 * np.sqrt(16)) <= 1e-12

    def test_observation_recomputes(self):
        model = build_cs_ofdm(64, 32, seed=9)
        inst = gen_instance(model, 3, 2, "flat", 0.1, seed=7)
        rebuilt = (model.A.apply(inst.x_true) + model.H.apply(inst.z_true)
                   + inst.w)
        assert np.linalg.norm(rebuilt - inst.y) <= 1e-12

    def test_instance_is_pure_function_of_seed(self):
        model = build_modulated_hadamard(32, 16, seed=0)
        a = gen_instance(model, 2, 1, "gaussian", 0.05, seed=9)
        b = gen_instance(model, 2, 1, "gaussian", 0.05, seed=9)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x_true, b.x_true)

    @pytest.mark.parametrize("amp", [-0.1, float("nan"), float("inf"), "0.1", True, None,
                                     pytest.param(10 ** 400, id="int-past-float-max")])
    def test_bad_noise_amplitude_rejected(self, amp):
        model = build_modulated_hadamard(32, 16, seed=0)
        with pytest.raises(ArgumentError, match="noise_amp"):
            gen_instance(model, 1, 1, "gaussian", amp, seed=2)

    def test_noise_amplitude_interval_is_closed_at_zero(self):
        model = build_modulated_hadamard(32, 16, seed=0)
        for amp in (0, 0.0, 1e308):
            assert gen_instance(model, 1, 1, "gaussian", amp, seed=2).noise_amp == amp
        with pytest.raises(ArgumentError,
                           match=r"noise_amp must be a finite number in \[0, inf\), got -5e-324"):
            gen_instance(model, 1, 1, "gaussian", -5e-324, seed=2)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_draw_seed_must_be_a_nonnegative_integer(self, seed):
        model = build_modulated_hadamard(32, 16, seed=0)
        with pytest.raises(ArgumentError, match=f"seed {seed!r} and path"):
            gen_instance(model, 1, 1, "gaussian", 0.0, seed=seed)

    def test_numpy_integer_seed_draws_as_its_int(self):
        model = build_modulated_hadamard(32, 16, seed=np.int64(0))
        assert model.describe() == build_modulated_hadamard(32, 16, seed=0).describe()
        a = gen_instance(model, 2, 1, "gaussian", 0.05, seed=np.uint32(9))
        assert np.array_equal(a.y, gen_instance(model, 2, 1, "gaussian", 0.05, seed=9).y)


class TestCoherence:
    def test_identity(self):
        assert coherence(identity(4)) == 1.0

    def test_normalized_hadamard(self):
        assert coherence(WalshHadamard(4)) == pytest.approx(0.5, abs=1e-15)

    def test_normalized_dft(self):
        assert coherence(Fourier(8)) == pytest.approx(1 / np.sqrt(8), abs=1e-12)
