"""Fast structured linear operators.

Every operator exposes `apply` (forward) and `apply_adjoint` (conjugate
transpose) and carries explicit (rows, cols) dimensions.  Inputs may be
1-D vectors or 2-D column batches; transforms run columnwise and a given
call is bitwise reproducible.  Operators are immutable after
construction and safe to share between threads; all scratch state is
per call.

Dtype rule: an operator whose `real` attribute is true (every entry is
real) maps real input (bool, integer or float) to float64; every other
input, and every input to an operator that is not real, is computed and
returned in complex128.  The float64 result equals the real part of the
complex128 one, and that result's imaginary part is zero.
"""

from collections import namedtuple

import numpy as np

from .errors import ArgumentError, BudgetError, DimensionError, ShapeError

# Cap on rows*cols for dense materialization; the enumeration oracles only
# ever need small instances.
MATERIALIZE_BUDGET = 1 << 22


def is_power_of_two(n):
    return n > 0 and (n & (n - 1)) == 0


class LinearOperator:
    """Base class: a rows x cols linear map with forward/adjoint action."""

    kind = "Abstract"
    real = False  # true when every entry is real; see the module docstring

    def __init__(self, rows, cols):
        if rows <= 0 or cols <= 0:
            raise DimensionError(f"operator dimensions must be positive, got {rows}x{cols}")
        self.rows = int(rows)
        self.cols = int(cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

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
                raise DimensionError(
                    f"{self.kind}: got length {a.shape[0]}, expected {dim}")
            return fn(a[:, None])[:, 0]
        if a.ndim == 2:
            if a.shape[0] != dim:
                raise DimensionError(
                    f"{self.kind}: got {a.shape[0]} rows, expected {dim}")
            return fn(a)
        raise DimensionError(f"{self.kind}: expected 1-D or 2-D input, got {a.ndim}-D")

    def _apply(self, x):
        raise NotImplementedError

    def _apply_adjoint(self, u):
        raise NotImplementedError

    def describe(self):
        """One-line structured header for logs."""
        return f"{self.kind} {self.rows}x{self.cols}"

    def __repr__(self):
        return f"<{self.describe()}>"


class Dense(LinearOperator):
    kind = "Dense"

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2:
            raise DimensionError("Dense expects a 2-D matrix")
        super().__init__(*m.shape)
        self.matrix = m

    def _apply(self, x):
        return self.matrix @ x

    def _apply_adjoint(self, u):
        return self.matrix.conj().T @ u


class Diagonal(LinearOperator):
    kind = "Diagonal"

    def __init__(self, d):
        d = np.asarray(d, dtype=np.complex128)
        if d.ndim != 1:
            raise DimensionError(f"diagonal must be 1-D, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ArgumentError("diagonal contains non-finite entries")
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
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise DimensionError("Subsample needs a nonempty 1-D index list")
        if np.any(np.diff(idx) <= 0):
            raise ShapeError("Subsample indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= cols:
            raise DimensionError("Subsample index out of range")
        super().__init__(idx.size, cols)
        self.indices = idx

    def _apply(self, x):
        return x[self.indices]

    def _apply_adjoint(self, u):
        out = np.zeros((self.cols, u.shape[1]), dtype=u.dtype)
        out[self.indices] = u
        return out


def _fwht(x):
    """Unnormalized Walsh-Hadamard butterfly along axis 0.

    Sylvester (natural) ordering; x is (n, T) with n a power of two.
    """
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


class WalshHadamard(LinearOperator):
    """Normalized +-1/sqrt(n) Hadamard transform, Sylvester order.

    Unitary and self-adjoint; applied by an O(n log n) butterfly.
    """

    kind = "WalshHadamard"
    real = True

    def __init__(self, n):
        if not is_power_of_two(n):
            raise ShapeError(f"WalshHadamard size must be a power of two, got {n}")
        super().__init__(n, n)
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


class Scaled(LinearOperator):
    kind = "Scaled"

    def __init__(self, alpha, op):
        super().__init__(op.rows, op.cols)
        self.alpha = complex(alpha)
        self.op = op
        self.real = self.alpha.imag == 0 and op.real

    def _factor(self, x):
        return self.alpha.real if x.dtype == np.float64 else self.alpha

    def _apply(self, x):
        return self._factor(x) * self.op._apply(x)

    def _apply_adjoint(self, u):
        return np.conj(self._factor(u)) * self.op._apply_adjoint(u)

    def describe(self):
        factor = f"{self.alpha.real:g}" if self.alpha.imag == 0 else f"{self.alpha:g}"
        return f"Scaled({factor}) {self.op.describe()}"


class Composed(LinearOperator):
    kind = "Composed"

    def __init__(self, outer, inner):
        if outer.cols != inner.rows:
            raise DimensionError(
                f"Composed: outer has {outer.cols} cols, inner has {inner.rows} rows")
        super().__init__(outer.rows, inner.cols)
        self.outer = outer
        self.inner = inner
        self.real = outer.real and inner.real

    def _apply(self, x):
        return self.outer._apply(self.inner._apply(x))

    def _apply_adjoint(self, u):
        return self.inner._apply_adjoint(self.outer._apply_adjoint(u))

    def describe(self):
        return f"Composed({self.outer.describe()}, {self.inner.describe()})"


class HStacked(LinearOperator):
    """Horizontal stack [A, H]: maps (x; w) to A x + H w."""

    kind = "HStacked"

    def __init__(self, A, H):  # noqa: N803 - conventional matrix names
        if A.rows != H.rows:
            raise DimensionError(
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


def chain(*ops):
    """Composed(ops[0], Composed(ops[1], ...)): ops[-1] applies first, and the
    adjoint composes in reverse."""
    if not ops:
        raise DimensionError("chain needs at least one operator")
    out = ops[-1]
    for op in reversed(ops[:-1]):
        out = Composed(op, out)
    return out


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


def power_iteration(op, tol=1e-6, max_iter=500, seed=0):
    """Largest singular value of `op`, iterating on op* op.

    Stops when the relative change between successive estimates drops
    below `tol`.  Returns a NormEstimate; `converged` is False when
    max_iter was exhausted, in which case `value` is the best estimate.
    """
    from .seeding import rng

    gen = rng(seed, 11)
    v = gen.standard_normal(op.cols) + 1j * gen.standard_normal(op.cols)
    nv = np.linalg.norm(v)
    if nv == 0:
        v = np.ones(op.cols, dtype=np.complex128)
        nv = np.linalg.norm(v)
    v = v / nv

    estimate = 0.0
    for it in range(1, max_iter + 1):
        w = op.apply(v)
        new = float(np.linalg.norm(w))
        if new == 0.0:
            return NormEstimate(0.0, it, True)
        if it > 1 and abs(new - estimate) <= tol * new:
            return NormEstimate(new, it, True)
        estimate = new
        v = op.apply_adjoint(w)
        v = v / np.linalg.norm(v)
    return NormEstimate(estimate, max_iter, False)
