import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demixcs import (
    BudgetError,
    Dense,
    Diagonal,
    DimensionError,
    Fourier,
    ShapeError,
    Subsample,
    WalshHadamard,
    hstack,
    identity,
    materialize,
    power_iteration,
)
from demixcs.linop import Scaled, chain
from demixcs.models import build_family, build_modulated_hadamard

from conftest import dense_dft, dense_hadamard, random_complex


def unit(n, j):
    e = np.zeros(n, dtype=complex)
    e[j] = 1.0
    return e


def make_operators(gen):
    """One instance of every operator kind, with a dense reference."""
    ops = []
    a = random_complex(gen, 5, 7)
    ops.append((Dense(a), a))
    d = random_complex(gen, 6)
    ops.append((Diagonal(d), np.diag(d)))
    idx = np.array([1, 3, 4])
    ops.append((Subsample(idx, 6), np.eye(6)[idx]))
    ops.append((WalshHadamard(8), dense_hadamard(8) / np.sqrt(8)))
    ops.append((Fourier(8), dense_dft(8)))
    ops.append((Fourier(8, adjoint=True), dense_dft(8).conj().T))
    inner = Dense(random_complex(gen, 4, 6))
    outer = Dense(random_complex(gen, 3, 4))
    ops.append((chain(outer, inner), outer.matrix @ inner.matrix))
    left = Dense(random_complex(gen, 4, 3))
    right = Dense(random_complex(gen, 4, 5))
    ops.append((hstack(left, right), np.hstack([left.matrix, right.matrix])))
    ops.append((Scaled(2.0 - 1.0j, left), (2.0 - 1.0j) * left.matrix))
    return ops


class TestAdjointIdentity:
    def test_100_random_probes_per_kind(self, rng):
        for op, ref in make_operators(rng):
            norm_est = np.linalg.norm(ref, 2)
            for _ in range(100):
                u = random_complex(rng, op.cols)
                v = random_complex(rng, op.rows)
                lhs = np.vdot(v, op.apply(u))
                rhs = np.vdot(op.apply_adjoint(v), u)
                bound = 1e-10 * np.linalg.norm(u) * np.linalg.norm(v) * max(norm_est, 1.0)
                assert abs(lhs - rhs) <= bound


class TestFastDenseAgreement:
    def test_apply_matches_reference_matrix(self, rng):
        for op, ref in make_operators(rng):
            x = random_complex(rng, op.cols)
            assert np.linalg.norm(op.apply(x) - ref @ x) <= 1e-10 * np.linalg.norm(x)
            u = random_complex(rng, op.rows)
            assert (np.linalg.norm(op.apply_adjoint(u) - ref.conj().T @ u)
                    <= 1e-10 * np.linalg.norm(u))

    def test_materialize_equals_reference(self, rng):
        for op, ref in make_operators(rng):
            assert np.abs(materialize(op) - ref).max() <= 1e-10

    def test_batch_apply_matches_per_column(self, rng):
        # FFT-backed kinds may vectorize batches differently, so agreement
        # is to rounding, not bitwise.
        for op, _ in make_operators(rng):
            batch = random_complex(rng, op.cols, 5)
            out = op.apply(batch)
            for j in range(5):
                solo = op.apply(batch[:, j])
                assert np.linalg.norm(out[:, j] - solo) <= 1e-12 * max(
                    np.linalg.norm(solo), 1.0)


class TestWalshHadamard:
    def test_first_column_normalized(self):
        w = WalshHadamard(4)
        out = w.apply(unit(4, 0))
        assert np.allclose(out, 0.5 * np.ones(4), atol=1e-15)

    def test_entries_and_unitarity(self, rng):
        for n in (2, 8, 64):
            m = materialize(WalshHadamard(n))
            assert np.allclose(np.abs(m), 1 / np.sqrt(n), atol=1e-12)
            assert np.abs(m - dense_hadamard(n) / np.sqrt(n)).max() < 1e-12
            x = random_complex(rng, n)
            assert abs(np.linalg.norm(WalshHadamard(n).apply(x)) - np.linalg.norm(x)) \
                <= 1e-10 * np.linalg.norm(x)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ShapeError):
            WalshHadamard(12)


class TestFourier:
    def test_constant_vector_maps_to_impulse(self):
        out = Fourier(8).apply(np.ones(8))
        assert abs(out[0] - np.sqrt(8)) < 1e-12
        assert np.abs(out[1:]).max() < 1e-12

    def test_unitary(self, rng):
        x = random_complex(rng, 16)
        f = Fourier(16)
        assert abs(np.linalg.norm(f.apply(x)) - np.linalg.norm(x)) <= 1e-10
        assert np.linalg.norm(f.apply_adjoint(f.apply(x)) - x) <= 1e-10


class TestSubsampleAndDiagonal:
    def test_zero_fill_adjoint(self):
        out = Subsample(np.array([1]), 3).apply_adjoint(np.array([5.0]))
        assert np.array_equal(out, np.array([0, 5.0, 0]))

    def test_diagonal_adjoint_conjugates(self):
        d = Diagonal(np.array([1j, 1.0]))
        out = d.apply_adjoint(np.array([1.0, 1.0]))
        assert np.allclose(out, np.array([-1j, 1.0]))

    def test_subsample_rejects_unsorted(self):
        with pytest.raises(ShapeError):
            Subsample(np.array([3, 1]), 5)


class TestHStack:
    def test_identity_pair(self):
        theta = hstack(identity(2), identity(2))
        out = theta.apply(np.array([1.0, 0.0, 0.0, 1.0]))
        assert np.allclose(out, np.ones(2))

    def test_adjoint_concatenates(self, rng):
        a = Dense(random_complex(rng, 3, 3))
        h = Dense(random_complex(rng, 3, 3))
        v = random_complex(rng, 3)
        out = hstack(a, h).apply_adjoint(v)
        ref = np.concatenate([a.matrix.conj().T @ v, h.matrix.conj().T @ v])
        assert np.linalg.norm(out - ref) < 1e-12

    def test_row_mismatch_raises(self, rng):
        with pytest.raises(DimensionError):
            hstack(Dense(random_complex(rng, 3, 2)), Dense(random_complex(rng, 4, 2)))

    def test_tight_frame_stack_has_flat_spectrum(self, rng):
        # [A, I] with A from the modulated Hadamard family: A A* + I = 3 I
        model = build_modulated_hadamard(512, 256, seed=5)
        theta = hstack(model.A, model.H)
        v = random_complex(rng, 256)
        out = theta.apply(theta.apply_adjoint(v))
        assert np.linalg.norm(out - 3.0 * v) <= 1e-10 * np.linalg.norm(v)


class TestCompose:
    def test_scaling_by_two(self, rng):
        x = random_complex(rng, 4)
        op = chain(Diagonal(2 * np.ones(4)), identity(4))
        assert np.allclose(op.apply(x), 2 * x)

    def test_three_unitaries_preserve_norm(self, rng):
        u = chain(Fourier(8), WalshHadamard(8), Fourier(8, adjoint=True))
        x = random_complex(rng, 8)
        assert abs(np.linalg.norm(u.apply(x)) - np.linalg.norm(x)) <= 1e-10

    def test_materialized_composition_is_row_slice(self):
        op = chain(Subsample(np.array([0, 3, 5]), 8), WalshHadamard(8))
        full = dense_hadamard(8) / np.sqrt(8)
        assert np.abs(materialize(op) - full[[0, 3, 5]]).max() < 1e-12

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(DimensionError):
            chain(Dense(random_complex(rng, 2, 3)), Dense(random_complex(rng, 2, 3)))

    def test_materialize_compose_equals_product(self, rng):
        for _ in range(3):
            a = random_complex(rng, 4, 4)
            b = random_complex(rng, 4, 4)
            got = materialize(chain(Dense(a), Dense(b)))
            assert np.abs(got - a @ b).max() <= 1e-12


class TestMaterialize:
    def test_hadamard_2(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(materialize(WalshHadamard(2)) - expected).max() < 1e-15

    def test_diagonal(self):
        assert np.allclose(materialize(Diagonal(np.array([2.0, 3.0]))),
                           np.diag([2.0, 3.0]))

    def test_budget_exceeded(self):
        with pytest.raises(BudgetError):
            materialize(WalshHadamard(4096))

    def test_budget_counts_the_identity_a_structured_operator_is_applied_to(self, monkeypatch):
        from demixcs import linop

        monkeypatch.setattr(linop, "MATERIALIZE_BUDGET", 1024)
        with pytest.raises(BudgetError, match="4096 entries"):
            materialize(build_modulated_hadamard(64, 2, seed=0).A)
        assert materialize(Dense(np.ones((2, 64)))).shape == (2, 64)


class TestPowerIteration:
    def test_identity(self):
        est = power_iteration(identity(8), tol=1e-9, max_iter=100, seed=0)
        assert est.converged
        assert abs(est.value - 1.0) <= 1e-9

    def test_diagonal(self):
        est = power_iteration(Diagonal(np.array([3.0, 1.0])), tol=1e-8, max_iter=500, seed=1)
        assert abs(est.value - 3.0) <= 1e-6

    def test_tight_frame_stack_norm(self):
        model = build_modulated_hadamard(512, 256, seed=2)
        theta = hstack(model.A, model.H)
        est = power_iteration(theta, tol=1e-6, max_iter=500, seed=0)
        assert est.converged
        assert abs(est.value - np.sqrt(3.0)) <= 0.01 * np.sqrt(3.0)


class TestValidation:
    def test_apply_length_mismatch(self):
        with pytest.raises(DimensionError):
            WalshHadamard(8).apply(np.ones(7))

    def test_adjoint_length_mismatch(self):
        with pytest.raises(DimensionError):
            Subsample(np.array([0, 1]), 5).apply_adjoint(np.ones(5))

    def test_describe_is_single_line(self, rng):
        for op, _ in make_operators(rng):
            text = op.describe()
            assert "\n" not in text and op.kind in text


# Which of (A, H, [A, H]) are real, per family at (n, m) = (32, 16).
REAL_PARTS = {
    "modulated-hadamard": (True, True, True),
    "subsampled-hadamard": (True, True, True),
    "partial-circulant": (False, True, False),
    "cs-ofdm": (False, False, False),
    "drpe": (False, True, False),
}

@functools.lru_cache(maxsize=None)
def family_operators(family, seed=3):
    """(A, H, [A, H]) of a small model, built once per (family, seed)."""
    model = build_family(family, 32, 16, seed)
    return model.A, model.H, hstack(model.A, model.H)


class TestRealPath:
    def test_real_attribute_per_kind(self):
        assert Subsample(np.array([0, 2]), 4).real
        assert WalshHadamard(4).real
        assert Diagonal(np.array([1.0, -2.0])).real
        assert not Diagonal(np.array([1.0, 1j])).real
        assert Scaled(2.0, WalshHadamard(4)).real
        assert not Scaled(1j, WalshHadamard(4)).real
        assert not Scaled(2.0, Fourier(4)).real
        assert chain(WalshHadamard(4), Diagonal(np.ones(4))).real
        assert not chain(Fourier(4), WalshHadamard(4)).real
        assert not hstack(WalshHadamard(4), Fourier(4)).real
        for kind in (Dense(np.eye(3)), Fourier(4)):
            assert not kind.real

    @pytest.mark.parametrize("family", sorted(REAL_PARTS))
    def test_real_input_matches_complex_path_bitwise(self, family, rng):
        ops = family_operators(family)
        assert tuple(op.real for op in ops) == REAL_PARTS[family]
        for op in ops:
            for fn, dim in ((op.apply, op.cols), (op.apply_adjoint, op.rows)):
                for shape in ((dim,), (dim, 3)):
                    x = rng.standard_normal(shape)
                    via_complex = fn(x.astype(np.complex128))
                    out = fn(x)
                    assert via_complex.dtype == np.complex128
                    if not op.real:
                        assert out.dtype == np.complex128
                        assert out.tobytes() == via_complex.tobytes()
                        continue
                    assert out.dtype == np.float64
                    assert out.tobytes() == via_complex.real.tobytes()
                    assert not np.any(via_complex.imag)

    def test_integer_input_runs_in_float64(self):
        out = WalshHadamard(4).apply(np.array([1, 0, 0, 0]))
        assert out.dtype == np.float64
        assert np.array_equal(out, np.full(4, 0.5))

    def test_complex_kinds_return_complex128(self, rng):
        x = rng.standard_normal(32)
        for family in ("cs-ofdm", "drpe"):
            a, _, theta = family_operators(family)
            assert a.apply(x).dtype == np.complex128
            assert theta.apply_adjoint(x[:16]).dtype == np.complex128
        assert Fourier(8).apply(x[:8]).dtype == np.complex128
        assert Fourier(8, adjoint=True).apply_adjoint(x[:8]).dtype == np.complex128

    def test_complex_input_to_real_operator_stays_complex(self, rng):
        a, _, _ = family_operators("modulated-hadamard")
        x = random_complex(rng, 32)
        out = a.apply(x)
        assert out.dtype == np.complex128
        ref = a.apply(x.real) + 1j * a.apply(x.imag)
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(x)


_FAMILIES = st.sampled_from(sorted(REAL_PARTS))
_SEEDS = st.integers(min_value=0, max_value=3)
_ENTRIES = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def _probe(draw, length, complex_):
    """A probe scaled to unit norm (zero stays zero), so no product underflows."""
    v = draw(arrays(np.float64, length, elements=_ENTRIES))
    if complex_:
        v = v + 1j * draw(arrays(np.float64, length, elements=_ENTRIES))
    return v / (np.linalg.norm(v) or 1.0)


class TestAdjointProperty:
    @settings(max_examples=60, deadline=None)
    @given(family=_FAMILIES, seed=_SEEDS, which=st.integers(0, 2),
           complex_=st.booleans(), data=st.data())
    def test_adjoint_identity_every_family(self, family, seed, which, complex_, data):
        op = family_operators(family, seed)[which]
        u = data.draw(_probe(op.cols, complex_))
        v = data.draw(_probe(op.rows, complex_))
        lhs = np.vdot(v, op.apply(u))
        rhs = np.vdot(op.apply_adjoint(v), u)
        # unit probes; every family operator has spectral norm at most
        # sqrt(n/m) + 1
        assert abs(lhs - rhs) <= 1e-12 * (np.sqrt(2.0) + 1.0)
