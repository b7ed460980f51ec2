"""Fast structured linear operators.

Every operator exposes `apply` (forward) and `apply_adjoint` (conjugate
transpose) and carries explicit (rows, cols) dimensions.  Inputs may be
1-D vectors or 2-D column batches; transforms run columnwise and a given
call is bitwise reproducible.  Operators are immutable after
construction and safe to share between threads; all scratch state is
per call.

Two composites build on the leaf operators: `Chain`, every product of
operators with an optional scalar, and `HStacked`, the block [A, H].
Each calls its parts' `_apply`, so a public call converts dtypes once.

Dtype rule: an operator whose `real` attribute is true (every entry is
real) maps real input (bool, integer or float) to float64; every other
input, and every input to an operator that is not real, is computed and
returned in complex128.  The float64 result equals the real part of the
complex128 one, and that result's imaginary part is zero.
"""

import cmath
import numbers
import sys
from collections import namedtuple

import numpy as np

from .errors import ArgumentError, BudgetError
from .seeding import is_integer, rng

# Cap on rows*cols for dense materialization; the enumeration oracles only
# ever need small instances.
MATERIALIZE_BUDGET = 1 << 22
# power_iteration's stopping rule; see its docstring
_POWER_TOL, _POWER_MAX_ITER = 1e-6, 500


def is_power_of_two(n):
    return n > 0 and (n & (n - 1)) == 0


def check_sizes(what, *values):
    """Refuse a size that is not a positive integer a float can hold; numpy
    integers pass, bools do not."""
    for value in values:
        if not (is_integer(value) and 0 < value <= sys.float_info.max):
            raise ArgumentError(f"{what} must be positive integers, got {value!r}")


def is_finite_real(value):
    """An int, float or numpy real that a finite float can hold; not a bool or
    string.  An int is compared, since it may exceed every float, and any
    other real tested in its own precision, since comparing a float32 with
    the float64 maximum overflows its cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if isinstance(value, numbers.Integral):
        return abs(value) <= sys.float_info.max
    return cmath.isfinite(value)


def check_real(what, value, low, high=float("inf"), ends="()"):
    """Refuse a real setting that is not `is_finite_real` or lies outside the
    interval from `low` to `high`, open or closed at each end as `ends`
    reads: "()", "[)", "(]" or "[]"."""
    if not (is_finite_real(value)
            and (low < value if ends[0] == "(" else low <= value)
            and (value < high if ends[1] == ")" else value <= high)):
        raise ArgumentError(f"{what} must be a finite number in "
                            f"{ends[0]}{low:g}, {high:g}{ends[1]}, got {value!r}")


def as_complex(values, what, *ndims):
    """`values` as a complex128 array, with no copy of complex128 input.
    ArgumentError refuses a dtype other than bool, integer, float or complex,
    a number of dimensions not in `ndims` and a non-finite entry."""
    try:
        a = np.asarray(values)
    except ValueError:  # numpy's refusal of a ragged nesting
        raise ArgumentError(f"{what} must be a regular array, not a ragged nesting") from None
    if a.dtype.kind not in "biufc":
        raise ArgumentError(f"{what} entries must be numbers, got dtype {a.dtype}")
    if a.ndim not in ndims:
        dims = " or ".join(f"{d}-D" for d in ndims)
        raise ArgumentError(f"{what} must be {dims}, got shape {a.shape}")
    a = a.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(a)):
        raise ArgumentError(f"{what} entries must be finite")
    return a


class LinearOperator:
    """Base class: a rows x cols linear map with forward/adjoint action."""

    kind = "Abstract"
    real = False  # true when every entry is real; see the module docstring

    def __init__(self, rows, cols):
        check_sizes(f"{self.kind} dimensions", rows, cols)
        self.rows, self.cols = int(rows), int(cols)

    def apply(self, x):
        """Forward action on a vector of length cols (or a (cols, T) batch)."""
        return self._run(x, self.cols, self._apply)

    def apply_adjoint(self, u):
        """Adjoint action on a vector of length rows (or a (rows, T) batch)."""
        return self._run(u, self.rows, self._apply_adjoint)

    def _run(self, x, dim, fn):
        a = np.asarray(x)
        real_in = self.real and a.dtype.kind in "biuf"
        a = a.astype(np.float64 if real_in else np.complex128, copy=False)
        if a.ndim == 1:
            if a.shape[0] != dim:
                raise ArgumentError(
                    f"{self.kind}: got length {a.shape[0]}, expected {dim}")
            return fn(a[:, None])[:, 0]
        if a.ndim == 2:
            if a.shape[0] != dim:
                raise ArgumentError(
                    f"{self.kind}: got {a.shape[0]} rows, expected {dim}")
            return fn(a)
        raise ArgumentError(f"{self.kind}: expected 1-D or 2-D input, got {a.ndim}-D")

    def _apply(self, x):
        raise NotImplementedError

    def _apply_adjoint(self, u):
        raise NotImplementedError

    def describe(self):
        """One-line structured header for logs."""
        return f"{self.kind} {self.rows}x{self.cols}"


class Dense(LinearOperator):
    kind = "Dense"

    def __init__(self, matrix):
        m = as_complex(matrix, "matrix", 2)
        super().__init__(*m.shape)
        self.matrix = m

    def _apply(self, x):
        return self.matrix @ x

    def _apply_adjoint(self, u):
        return self.matrix.conj().T @ u


class Diagonal(LinearOperator):
    kind = "Diagonal"

    def __init__(self, d):
        d = as_complex(d, "diagonal", 1)
        super().__init__(d.shape[0], d.shape[0])
        self.diag = d
        self.real = not np.any(d.imag)
        self._diag_re = d.real.copy()

    def _factor(self, x):
        return self._diag_re if x.dtype == np.float64 else self.diag

    def _apply(self, x):
        return self._factor(x)[:, None] * x

    def _apply_adjoint(self, u):
        return self._factor(u).conj()[:, None] * u


class Subsample(LinearOperator):
    """0/1 row selector.  Indices must be strictly increasing."""

    kind = "Subsample"
    real = True

    def __init__(self, indices, cols):
        idx = np.asarray(indices)
        if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
            raise ArgumentError("Subsample needs a nonempty 1-D list of integers")
        if np.any(np.diff(idx) <= 0):
            raise ArgumentError("Subsample indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= cols:
            raise ArgumentError("Subsample index out of range")
        super().__init__(idx.size, cols)
        self.indices = idx.astype(np.intp)

    def _apply(self, x):
        return x[self.indices]

    def _apply_adjoint(self, u):
        out = np.zeros((self.cols, u.shape[1]), dtype=u.dtype)
        out[self.indices] = u
        return out


def _fwht(x):
    """Unnormalized Walsh-Hadamard transform along axis 0, Sylvester order; x is
    (n, T) with n a power of two.  Constant-geometry butterfly (Pease, J. ACM
    1968) on the columns laid end to end: pass j writes the sums of adjacent
    entries to the first half of the other buffer and their differences to the
    second, which combines bit j of the row index by the same `a + b` and `a - b`
    of the same partial sums as the in-place butterfly, so the bits match it.
    log2(n) passes restore natural order; the result shares no memory with x."""
    n, t = x.shape
    half = n * t // 2
    src = x.T.copy().reshape(n * t)
    dst = np.empty_like(src)
    for _ in range(n.bit_length() - 1):
        np.add(src[0::2], src[1::2], out=dst[:half])
        np.subtract(src[0::2], src[1::2], out=dst[half:])
        src, dst = dst, src
    return src.reshape(n, t)


class WalshHadamard(LinearOperator):
    """Normalized +-1/sqrt(n) Hadamard transform, Sylvester order.

    Unitary and self-adjoint; applied by `_fwht`'s O(n log n) butterfly, whose
    constant-geometry passes keep the in-place butterfly's bits, column by column.
    """

    kind = "WalshHadamard"
    real = True

    def __init__(self, n):
        super().__init__(n, n)
        if not is_power_of_two(n):
            raise ArgumentError(f"WalshHadamard size must be a power of two, got {n}")
        self._scale = 1.0 / np.sqrt(n)

    def _apply(self, x):
        return self._scale * _fwht(x)

    _apply_adjoint = _apply


class Fourier(LinearOperator):
    """Unitary DFT, entries exp(-2i pi jk/n)/sqrt(n); `adjoint=True` gives F*."""

    kind = "Fourier"

    def __init__(self, n, adjoint=False):
        super().__init__(n, n)
        self.adjoint = bool(adjoint)

    def _apply(self, x):
        if self.adjoint:
            return np.fft.ifft(x, axis=0, norm="ortho")
        return np.fft.fft(x, axis=0, norm="ortho")

    def _apply_adjoint(self, u):
        if self.adjoint:
            return np.fft.fft(u, axis=0, norm="ortho")
        return np.fft.ifft(u, axis=0, norm="ortho")

    def describe(self):
        star = "*" if self.adjoint else ""
        return f"{self.kind}{star} {self.rows}x{self.cols}"


class Chain(LinearOperator):
    """scale * ops[0] ... ops[-1]: ops[-1] applies first, the adjoint takes the
    factors' adjoints in reverse order, and a given scale (its conjugate in
    the adjoint) multiplies last, even a scale of 1."""

    kind = "Chain"

    def __init__(self, *ops, scale=None):
        if not ops:
            raise ArgumentError("Chain needs at least one operator")
        for outer, inner in zip(ops, ops[1:]):
            if outer.cols != inner.rows:
                raise ArgumentError(f"Chain: {outer.kind} has {outer.cols} cols, "
                                    f"{inner.kind} has {inner.rows} rows")
        super().__init__(ops[0].rows, ops[-1].cols)
        if scale is not None:
            if not isinstance(scale, numbers.Number) or not cmath.isfinite(scale):
                raise ArgumentError(f"Chain scale must be a finite number, got {scale!r}")
            scale = complex(scale)
            # conj(s + 0j) is s - 0j: complex input rounds the sign of a zero unlike s
            self._adjoint_scale = scale.conjugate()
            # a real scale is a float, so float64 input stays float64
            scale = scale.real if scale.imag == 0 else scale
        self.ops, self.scale = ops, scale
        self.real = all(op.real for op in ops) and not isinstance(scale, complex)

    def _apply(self, x):
        for op in reversed(self.ops):
            x = op._apply(x)
        return x if self.scale is None else self.scale * x

    def _apply_adjoint(self, u):
        for op in self.ops:
            u = op._apply_adjoint(u)
        if self.scale is None:
            return u
        return (self.scale if u.dtype == np.float64 else self._adjoint_scale) * u

    def describe(self):
        scale = "" if self.scale is None else f"; scale={self.scale:g}"
        return f"Chain({', '.join(op.describe() for op in self.ops)}{scale})"


class HStacked(LinearOperator):
    """Horizontal stack [A, H]: maps (x; w) to A x + H w."""

    kind = "HStacked"

    def __init__(self, A, H):  # noqa: N803 - conventional matrix names
        if A.rows != H.rows:
            raise ArgumentError(
                f"hstack: row counts differ ({A.rows} vs {H.rows})")
        super().__init__(A.rows, A.cols + H.cols)
        self.left = A
        self.right = H
        self.real = A.real and H.real

    def _apply(self, x):
        nl = self.left.cols
        return self.left._apply(x[:nl]) + self.right._apply(x[nl:])

    def _apply_adjoint(self, u):
        return np.concatenate(
            [self.left._apply_adjoint(u), self.right._apply_adjoint(u)], axis=0)

    def describe(self):
        return f"HStacked({self.left.describe()}, {self.right.describe()})"


def identity(n):
    """n x n identity as a Diagonal operator."""
    return Diagonal(np.ones(n))


def hstack(A, H):  # noqa: N803
    """Stack two operators side by side; rows must agree."""
    return HStacked(A, H)


def materialize(op):
    """Dense matrix of `op`, column j = op applied to the j-th basis vector.

    A structured operator is applied to the cols x cols identity, so the
    budget bounds that input as well as the rows x cols result.
    """
    dense = isinstance(op, Dense)
    entries = (op.rows if dense else max(op.rows, op.cols)) * op.cols
    if entries > MATERIALIZE_BUDGET:
        raise BudgetError(f"materializing {op.rows}x{op.cols} needs {entries} entries, "
                          f"over the budget of {MATERIALIZE_BUDGET}")
    if dense:
        return op.matrix.copy()
    return op.apply(np.eye(op.cols, dtype=np.complex128))


NormEstimate = namedtuple("NormEstimate", ["value", "iterations", "converged"])


def power_iteration(op):
    """Largest singular value of `op`, iterating on op* op.

    Starts from a fixed Gaussian draw and stops when the relative change
    between successive estimates drops below _POWER_TOL.  Returns a
    NormEstimate; `converged` is False when _POWER_MAX_ITER iterations
    were exhausted, in which case `value` is the best estimate.
    """
    gen = rng(0, 11)
    v = gen.standard_normal(op.cols) + 1j * gen.standard_normal(op.cols)
    v = v / np.linalg.norm(v)

    estimate = 0.0
    for it in range(1, _POWER_MAX_ITER + 1):
        w = op.apply(v)
        new = float(np.linalg.norm(w))
        if new == 0.0:
            return NormEstimate(0.0, it, True)
        if it > 1 and abs(new - estimate) <= _POWER_TOL * new:
            return NormEstimate(new, it, True)
        estimate = new
        v = op.apply_adjoint(w)
        v = v / np.linalg.norm(v)
    return NormEstimate(estimate, _POWER_MAX_ITER, False)
