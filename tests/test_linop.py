import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demixcs import (
    ArgumentError,
    BudgetError,
    Chain,
    Dense,
    Diagonal,
    Fourier,
    LinearOperator,
    Subsample,
    WalshHadamard,
    hstack,
    identity,
    materialize,
    power_iteration,
)
from demixcs.linop import _fwht, check_real, check_sizes
from demixcs.models import build_family, build_modulated_hadamard
from demixcs.solvers import (
    IrlsConfig,
    PenalizedL1Config,
    solve_irls_lp,
    solve_penalized_l1,
    solve_penalized_l1_batch,
)

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
    ops.append((Chain(outer, inner), outer.matrix @ inner.matrix))
    left = Dense(random_complex(gen, 4, 3))
    right = Dense(random_complex(gen, 4, 5))
    ops.append((hstack(left, right), np.hstack([left.matrix, right.matrix])))
    ops.append((Chain(left, scale=2.0 - 1.0j), (2.0 - 1.0j) * left.matrix))
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
        with pytest.raises(ArgumentError):
            WalshHadamard(12)


def in_place_butterfly(x):
    """The in-place radix-2 butterfly `_fwht` replaced: the bit reference."""
    n, t = x.shape
    y = x.copy()
    scratch = np.empty((n // 2, t), dtype=x.dtype)
    h = 1
    while h < n:
        y3 = y.reshape(n // (2 * h), 2, h, t)
        a = y3[:, 0]
        b = y3[:, 1]
        diff = scratch.reshape(n // (2 * h), h, t)
        np.subtract(a, b, out=diff)
        a += b
        y3[:, 1] = diff
        h *= 2
    return y


def butterfly_input(gen, rows, cols, dtype):
    """Entries spanning 40 decades, a fifth of them signed zeros."""
    x = gen.standard_normal((rows, cols)) * 10.0 ** gen.integers(-20, 20, (rows, cols))
    if dtype == np.complex128:
        x = x + 1j * gen.standard_normal((rows, cols)) * 10.0 ** gen.integers(-20, 20, (rows, cols))
    x[gen.random((rows, cols)) < 0.2] = -0.0
    return x.astype(dtype)


class TestButterflyBits:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [1 << p for p in range(11)])
    def test_equals_in_place_butterfly(self, n, dtype):
        gen = np.random.default_rng(n)
        for t in (1, 3, 50):
            big = butterfly_input(gen, 2 * n, 2 * t, dtype)
            layouts = {"contiguous": big[:n, :t].copy(), "column-strided": big[:n, ::2],
                       "row-strided": big[::2, :t], "fortran": np.asfortranarray(big[:n, :t])}
            for layout, x in layouts.items():
                before = x.copy()
                out = _fwht(x)
                assert out.dtype == dtype and out.shape == (n, t)
                assert out.tobytes() == in_place_butterfly(before).tobytes(), (layout, t)
                assert x.tobytes() == before.tobytes(), (layout, t)
                assert not np.shares_memory(out, x), (layout, t)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_batch_column_equals_column_alone(self, dtype):
        gen = np.random.default_rng(5)
        for n in (1, 32, 128, 512):
            op, batch = WalshHadamard(n), butterfly_input(gen, n, 50, dtype)
            out = op.apply(batch)
            for j in range(50):
                assert out[:, j].tobytes() == op.apply(batch[:, j]).tobytes()


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
        with pytest.raises(ArgumentError):
            Subsample(np.array([3, 1]), 5)

    @pytest.mark.parametrize("indices", [[0.5, 1.5], np.array([0.0, 1.0]), [True]])
    def test_subsample_rejects_non_integer_indices(self, indices):
        with pytest.raises(ArgumentError, match="integers"):
            Subsample(indices, 4)


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
        with pytest.raises(ArgumentError):
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
        op = Chain(Diagonal(2 * np.ones(4)), identity(4))
        assert np.allclose(op.apply(x), 2 * x)

    def test_three_unitaries_preserve_norm(self, rng):
        u = Chain(Fourier(8), WalshHadamard(8), Fourier(8, adjoint=True))
        x = random_complex(rng, 8)
        assert abs(np.linalg.norm(u.apply(x)) - np.linalg.norm(x)) <= 1e-10

    def test_materialized_composition_is_row_slice(self):
        op = Chain(Subsample(np.array([0, 3, 5]), 8), WalshHadamard(8))
        full = dense_hadamard(8) / np.sqrt(8)
        assert np.abs(materialize(op) - full[[0, 3, 5]]).max() < 1e-12

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(ArgumentError):
            Chain(Dense(random_complex(rng, 2, 3)), Dense(random_complex(rng, 2, 3)))

    def test_materialize_compose_equals_product(self, rng):
        for _ in range(3):
            a = random_complex(rng, 4, 4)
            b = random_complex(rng, 4, 4)
            got = materialize(Chain(Dense(a), Dense(b)))
            assert np.abs(got - a @ b).max() <= 1e-12

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), complex(1.0, float("-inf")),
                                       "2", [2.0]])
    def test_scale_must_be_a_finite_number(self, scale):
        with pytest.raises(ArgumentError, match="scale"):
            Chain(WalshHadamard(4), scale=scale)

    def test_bytes_equal_factors_in_turn_then_scaled(self, rng):
        rows = Subsample(np.array([0, 2, 3, 5]), 8)
        cases = [
            ((rows,), 1.0),  # passes signed zeros to the scale untouched
            ((rows, WalshHadamard(8), Diagonal(rng.standard_normal(8))), np.sqrt(2.0)),
            ((rows, Fourier(8, adjoint=True), Diagonal(random_complex(rng, 8)), Fourier(8)),
             2.0 - 1.0j),
            ((WalshHadamard(8), Diagonal(rng.standard_normal(8))), None),
        ]

        def times(scale, v, adjoint):
            # complex arithmetic unless v is float64; conj(s + 0j) is s - 0j
            if scale is None:
                return v
            if v.dtype == np.float64:
                return scale * v
            return (complex(scale).conjugate() if adjoint else complex(scale)) * v

        def probe(dim, width, complex_):
            v = rng.standard_normal((dim, width))
            if not complex_:
                v[0] = -0.0
                return v
            v = v + 1j * rng.standard_normal((dim, width))
            v[:, 0] = [complex(-0.0, (-1.0) ** i) for i in range(dim)]
            return v

        for ops, scale in cases:
            op = Chain(*ops, scale=scale)
            for width in (1, 7):
                for complex_ in (False, True):
                    x = probe(op.cols, width, complex_)
                    ref = x if op.real and not complex_ else x.astype(np.complex128)
                    for factor in reversed(ops):
                        ref = factor.apply(ref)
                    assert op.apply(x).tobytes() == times(scale, ref, False).tobytes()
                    u = probe(op.rows, width, complex_)
                    ref = u if op.real and not complex_ else u.astype(np.complex128)
                    for factor in ops:
                        ref = factor.apply_adjoint(ref)
                    assert op.apply_adjoint(u).tobytes() == times(scale, ref, True).tobytes()


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
        est = power_iteration(identity(8))
        assert est.converged
        assert abs(est.value - 1.0) <= 1e-9

    def test_diagonal(self):
        est = power_iteration(Diagonal(np.array([3.0, 1.0])))
        assert abs(est.value - 3.0) <= 1e-6

    def test_zero_operator(self):
        assert power_iteration(Diagonal(np.zeros(4))) == (0.0, 1, True)

    def test_iteration_cap_returns_the_last_estimate_unconverged(self, monkeypatch):
        from demixcs import linop

        monkeypatch.setattr(linop, "_POWER_MAX_ITER", 3)
        est = power_iteration(Diagonal(np.array([3.0, 2.9])))
        assert est.iterations == 3 and not est.converged
        assert 2.9 < est.value < 3.0

    def test_tight_frame_stack_norm(self):
        model = build_modulated_hadamard(512, 256, seed=2)
        theta = hstack(model.A, model.H)
        est = power_iteration(theta)
        assert est.converged
        assert abs(est.value - np.sqrt(3.0)) <= 0.01 * np.sqrt(3.0)


def _solve(y, solve=solve_penalized_l1):
    """`solve` of observation `y` on an mtx1 32/16 model, penalized-l1 by default."""
    cfg = IrlsConfig() if solve is solve_irls_lp else PenalizedL1Config(lambda_reg=1.0)
    return solve(build_family("mtx1", 32, 16, 0), y, cfg)


class TestValidation:
    def test_apply_length_mismatch(self):
        with pytest.raises(ArgumentError):
            WalshHadamard(8).apply(np.ones(7))

    def test_adjoint_length_mismatch(self):
        with pytest.raises(ArgumentError):
            Subsample(np.array([0, 1]), 5).apply_adjoint(np.ones(5))

    @pytest.mark.parametrize("x, message", [
        (np.ones((7, 2)), "WalshHadamard: got 7 rows, expected 8"),
        (np.ones((8, 2, 1)), "WalshHadamard: expected 1-D or 2-D input, got 3-D"),
    ], ids=["batch-rows", "3-D"])
    def test_batch_shape_mismatch(self, x, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            WalshHadamard(8).apply(x)

    @pytest.mark.parametrize("build, value", [
        (lambda: WalshHadamard(4.0), "4.0"),
        (lambda: Fourier(2.5), "2.5"),
        (lambda: Fourier(True), "True"),
        (lambda: build_modulated_hadamard(32.0, 16, 0), "32.0"),
        (lambda: build_modulated_hadamard(32, 16.5, 0), "16.5"),
    ])
    def test_sizes_must_be_integers(self, build, value):
        with pytest.raises(ArgumentError, match=re.escape(value)):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: Diagonal(["2", "1j"]), "diagonal entries must be numbers, got dtype <U2"),
        (lambda: Dense([["1", "2"]]), "matrix entries must be numbers, got dtype <U1"),
        (lambda: Dense(np.array([[1.0, 2.0]], dtype=object)),
         "matrix entries must be numbers, got dtype object"),
        (lambda: Diagonal(np.eye(2)), "diagonal must be 1-D, got shape (2, 2)"),
        (lambda: Dense(np.ones(3)), "matrix must be 2-D, got shape (3,)"),
        (lambda: Diagonal([1.0, np.inf]), "diagonal entries must be finite"),
        (lambda: Dense([[1.0, np.nan]]), "matrix entries must be finite"),
        (lambda: _solve(["1"] * 16), "observation entries must be numbers, got dtype <U1"),
        (lambda: _solve(np.ones((16, 1, 1)), solve_penalized_l1_batch),
         "observation must be 1-D or 2-D, got shape"),
        # a single-observation solver takes one column, not the first of many
        (lambda: _solve(np.ones((16, 1, 1))), "observation must be 1-D, got shape (16, 1, 1)"),
        (lambda: _solve(np.ones((16, 3))), "observation must be 1-D, got shape (16, 3)"),
        (lambda: _solve(np.ones((16, 2)), solve_irls_lp),
         "observation must be 1-D, got shape (16, 2)"),
        (lambda: _solve([np.nan] + [0.0] * 15), "observation entries must be finite"),
        (lambda: _solve(np.ones(15)), "observation must have length 16"),
        (lambda: Subsample([0, 4], 4), "Subsample index out of range"),
        (lambda: Dense([[1, 2], [3]]), "matrix must be a regular array, not a ragged nesting"),
        (lambda: Diagonal([1, [2, 3]]), "diagonal must be a regular array, not a ragged nesting"),
        (lambda: _solve([[1, 2], [3]]), "observation must be a regular array, not a ragged nesting"),
    ])
    def test_refused_arrays(self, build, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            build()

    # (value, low, high, ends, accepted): each end open and closed, and the
    # values no interval takes
    @pytest.mark.parametrize("value, low, high, ends, accepted", [
        (0.0, 0, 1, "()", False),
        (0.0, 0, 1, "[)", True),
        (1.0, 0, 1, "()", False),
        (1.0, 0, 1, "(]", True),
        (0.5, 0, 1, "()", True),
        (0, 0, 1, "[]", True),
        (1, 0, 1, "[]", True),
        (-5e-324, 0, 1, "[]", False),
        (1e308, 0, float("inf"), "()", True),
        (np.float32(0.5), 0, 1, "()", True),
        (np.float32(np.inf), 0, float("inf"), "(]", False),
        (np.int64(3), 0, float("inf"), "()", True),
        (float("nan"), 0, 1, "[]", False),
        (float("inf"), 0, float("inf"), "[]", False),
        (float("-inf"), float("-inf"), 0, "[]", False),
        (True, 0, 1, "[]", False),
        ("0.5", 0, 1, "[]", False),
        (None, 0, 1, "[]", False),
        (10 ** 309, 0, float("inf"), "()", False),
        (-10 ** 309, float("-inf"), 0, "()", False),
    ])
    def test_check_real(self, value, low, high, ends, accepted):
        if accepted:
            assert check_real("v", value, low, high, ends) is None
            return
        interval = f"{ends[0]}{low:g}, {high:g}{ends[1]}"
        message = f"v must be a finite number in {interval}, got {value!r}"
        with pytest.raises(ArgumentError, match=re.escape(message) + "$"):
            check_real("v", value, low, high, ends)

    def test_check_real_defaults_to_an_open_ray(self):
        check_real("v", 5e-324, 0)
        message = "v must be a finite number in (0, inf), got 0"
        with pytest.raises(ArgumentError, match=re.escape(message)):
            check_real("v", 0, 0)

    @pytest.mark.parametrize("value", [0, -1, 1.0, True, 10 ** 309, np.int64(-2)])
    def test_check_sizes_refusals(self, value):
        message = f"n must be positive integers, got {value!r}"
        with pytest.raises(ArgumentError, match=re.escape(message)):
            check_sizes("n", value)

    def test_check_sizes_takes_any_float_sized_integer(self):
        check_sizes("n", 1, np.int64(2), 10 ** 308)

    def test_complex_entries_are_not_copied(self):
        matrix, diag = np.eye(2, dtype=np.complex128), np.ones(2, dtype=np.complex128)
        assert Dense(matrix).matrix is matrix
        assert Diagonal(diag).diag is diag

    def test_numpy_integer_sizes_pass(self):
        assert WalshHadamard(np.int64(4)).rows == 4
        assert build_modulated_hadamard(np.int64(32), np.int32(16), 0).A.rows == 16

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
        assert Chain(WalshHadamard(4), scale=2.0).real
        assert not Chain(WalshHadamard(4), scale=1j).real
        assert not Chain(Fourier(4), scale=2.0).real
        assert Chain(WalshHadamard(4), Diagonal(np.ones(4))).real
        assert not Chain(Fourier(4), WalshHadamard(4)).real
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


class TestOnePublicApply:
    @pytest.mark.parametrize("family", sorted(REAL_PARTS))
    def test_composites_call_their_parts_directly(self, family, rng, monkeypatch):
        # one public call converts dtypes, and is counted, once
        theta = family_operators(family)[2]
        calls = []
        for name in ("apply", "apply_adjoint"):
            def counted(op, x, public=getattr(LinearOperator, name)):
                calls.append(op)
                return public(op, x)
            monkeypatch.setattr(LinearOperator, name, counted)
        for fn, dim in ((theta.apply, theta.cols), (theta.apply_adjoint, theta.rows)):
            calls.clear()
            fn(rng.standard_normal((dim, 3)))
            assert calls == [theta]
