"""Optimization engines for the joint sparse recovery problem.

Two solvers operate on the stacked variable u = (x; z) and the stacked
operator [A, H]:

* a primal-dual hybrid-gradient iteration for the penalized program
      min ||x||_1 + lambda ||z||_1   s.t.  ||y - A x - H z||_2 <= eps
* an iteratively reweighted least squares loop for its nonconvex
  counterpart with p < 1 and equality constraints.

Both need only forward/adjoint applications, so the fast structured
operators keep their advantage.  The cores run on column batches; a
batch of right-hand sides shares one operator and every column follows
its own iterate sequence with per-column stopping.  When [A, H] is real
and y has no imaginary part the iterations run in float64; they round
exactly as the complex128 iterations on the same data would, and the
results are returned as complex128 either way.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ArgumentError, DimensionError, NumericalError
from .linop import hstack, power_iteration

_TINY = 1e-300


def _require_finite(cfg):
    """Reject NaN and infinite float fields; NaN passes every range test."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type is float and not math.isfinite(value):
            raise ArgumentError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class PenalizedL1Config:
    """Knobs for the penalized-l1 solver."""

    lambda_reg: float
    epsilon: float = 0.0
    max_iter: int = 20000
    tol: float = 1e-9
    norm_estimate_tol: float = 1e-6

    def __post_init__(self):
        _require_finite(self)
        if self.lambda_reg <= 0:
            raise ArgumentError("lambda_reg must be positive")
        if self.epsilon < 0:
            raise ArgumentError("epsilon must be nonnegative")
        if self.max_iter < 1 or self.tol <= 0 or self.norm_estimate_tol <= 0:
            raise ArgumentError("max_iter, tol and norm_estimate_tol must be positive")


@dataclass(frozen=True)
class IrlsConfig:
    """Knobs for the reweighted-least-squares solver (0 < p < 1)."""

    p: float = 0.5
    nu: float = 1.0
    eps_init: float = 1.0
    eps_floor: float = 1e-8
    eps_shrink: float = 0.1
    outer_max: int = 100
    cg_tol: float = 1e-10
    cg_max: int = 2000

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 < self.p < 1.0:
            raise ArgumentError("p must lie in (0, 1)")
        if self.nu <= 0 or self.eps_init <= 0 or self.eps_floor <= 0:
            raise ArgumentError("nu, eps_init and eps_floor must be positive")
        if not 0.0 < self.eps_shrink < 1.0:
            raise ArgumentError("eps_shrink must lie in (0, 1)")


@dataclass(frozen=True)
class SolveResult:
    """Recovered pair with termination diagnostics."""

    x_hat: np.ndarray
    z_hat: np.ndarray
    iterations: int
    residual: float
    objective: float
    status: str             # "converged" or "max_iter"
    eps_trace: tuple = None  # smoothing schedule, reweighted solver only


def soft_threshold(v, t):
    """Complex magnitude shrinkage: v -> v * max(0, 1 - t/|v|).

    `t` may be a scalar or a per-coordinate vector of nonnegative
    thresholds.  Zero entries stay zero.
    """
    v = np.asarray(v, dtype=np.complex128)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ArgumentError("thresholds must be nonnegative")
    if t.ndim > 0 and t.shape != v.shape:
        raise DimensionError("threshold vector must match the input shape")
    mag = np.abs(v)
    keep = np.maximum(mag - t, 0.0)
    return v * (keep / np.maximum(mag, _TINY))


def project_ball(v, center, radius):
    """Euclidean projection of v onto the ball around `center`."""
    v = np.asarray(v, dtype=np.complex128)
    center = np.asarray(center, dtype=np.complex128)
    if v.shape != center.shape:
        raise DimensionError("center must match the input shape")
    if radius < 0:
        raise ArgumentError("radius must be nonnegative")
    diff = v - center
    dist = np.linalg.norm(diff)
    if dist <= radius:
        return v.copy()
    if radius == 0:
        return center.copy()
    return center + (radius / dist) * diff


def _col_norms(a):
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=0))


def _cg_batch(apply_fn, b, x0, tol, max_iter):
    """Conjugate gradient on a Hermitian PSD operator, per-column stopping.

    Columns stop once ||r|| <= tol * ||b||; finished columns freeze.  A
    nonpositive curvature on a still-active column raises NumericalError.
    """
    x = x0.copy()
    r = b - apply_fn(x)
    p = r.copy()
    rs = np.sum(np.abs(r) ** 2, axis=0)
    goal = (tol * np.maximum(_col_norms(b), _TINY)) ** 2
    active = rs > goal
    for _ in range(max_iter):
        if not active.any():
            break
        ap = apply_fn(p)
        # summed as complex128 so a real batch rounds like its complex twin
        # (numpy orders single-column float and complex sums differently)
        pap = np.real(np.sum((np.conj(p) * ap).astype(np.complex128, copy=False), axis=0))
        if np.any(active & (pap <= 0.0)):
            raise NumericalError("conjugate gradient lost positive curvature")
        alpha = np.where(active, rs / np.where(pap > 0, pap, 1.0), 0.0)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = np.sum(np.abs(r) ** 2, axis=0)
        beta = np.where(active, rs_new / np.maximum(rs, _TINY), 0.0)
        p = r + beta * p
        rs = rs_new
        active = active & (rs > goal)
    return x, ~active


def cg_solve(op, b, tol=1e-10, max_iter=1000):
    """Solve op x = b for a Hermitian positive semidefinite operator."""
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim != 1 or b.shape[0] != op.rows or op.rows != op.cols:
        raise DimensionError("cg_solve needs a square operator and matching vector")
    x, _ = _cg_batch(lambda q: op.apply(q), b[:, None],
                     np.zeros((op.rows, 1), dtype=np.complex128), tol, max_iter)
    return x[:, 0]


def _pdhg_core(theta, y, thresholds, step, eps, tol, max_iter):
    """Primal-dual iteration on a column batch.

    Returns (u, iterations, converged) where u is (dim, T) with the dtype
    of `y`.  Converged columns freeze at the iteration where both the
    relative primal and relative dual change dropped to `tol`.
    """
    dim = theta.cols
    m, total = y.shape
    out_u = np.zeros((dim, total), dtype=y.dtype)
    out_it = np.full(total, max_iter, dtype=np.int64)
    out_ok = np.zeros(total, dtype=bool)

    alive = np.arange(total)
    u = np.zeros((dim, total), dtype=y.dtype)
    ubar = np.zeros_like(u)
    p = np.zeros((m, total), dtype=y.dtype)
    y_a = y.copy()
    thr = thresholds[:, None]

    for it in range(1, max_iter + 1):
        r = p + step * (theta.apply(ubar) - y_a)
        if eps > 0:
            rn = _col_norms(r)
            p_new = r * np.maximum(0.0, 1.0 - step * eps / np.maximum(rn, _TINY))
        else:
            p_new = r
        v = u - step * theta.apply_adjoint(p_new)
        mag = np.abs(v)
        keep = np.maximum(mag - thr, 0.0)
        u_new = v * (keep / np.maximum(mag, _TINY))

        prim = _col_norms(u_new - u) / np.maximum(_col_norms(u_new), _TINY)
        dual = _col_norms(p_new - p) / np.maximum(_col_norms(p_new), _TINY)
        done = np.maximum(prim, dual) <= tol

        ubar = 2.0 * u_new - u
        u = u_new
        p = p_new

        if done.any():
            cols = alive[done]
            out_u[:, cols] = u[:, done]
            out_it[cols] = it
            out_ok[cols] = True
            stay = ~done
            if not stay.any():
                return out_u, out_it, out_ok
            alive = alive[stay]
            u = u[:, stay]
            ubar = ubar[:, stay]
            p = p[:, stay]
            y_a = y_a[:, stay]

    out_u[:, alive] = u
    return out_u, out_it, out_ok


def _batchify(model, y):
    arr = np.asarray(y, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != model.m:
        raise DimensionError(f"observation must have length {model.m}")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("observation contains non-finite entries")
    return arr


def _working_data(theta, y_mat):
    """y as float64 when `theta` and y are real, so the iterations stay real."""
    if theta.real and not np.any(y_mat.imag):
        return np.ascontiguousarray(y_mat.real)
    return y_mat


def solve_penalized_l1_batch(model, y, cfg):
    """Penalized-l1 recovery for a batch of observations (columns of y)."""
    y_mat = _batchify(model, y)
    n, m = model.n, model.m
    theta = hstack(model.A, model.H)
    norm_est = power_iteration(theta, tol=cfg.norm_estimate_tol, max_iter=500, seed=0)
    step = 0.99 / max(norm_est.value, _TINY)
    weights = np.concatenate([np.ones(n), cfg.lambda_reg * np.ones(m)])
    u, iters, ok = _pdhg_core(theta, _working_data(theta, y_mat), step * weights,
                              step, cfg.epsilon, cfg.tol, cfg.max_iter)
    results = []
    for j in range(y_mat.shape[1]):
        x_hat = u[:n, j].astype(np.complex128)
        z_hat = u[n:, j].astype(np.complex128)
        resid = float(np.linalg.norm(
            y_mat[:, j] - model.A.apply(x_hat) - model.H.apply(z_hat)))
        obj = float(np.sum(np.abs(x_hat)) + cfg.lambda_reg * np.sum(np.abs(z_hat)))
        results.append(SolveResult(
            x_hat=x_hat, z_hat=z_hat, iterations=int(iters[j]),
            residual=resid, objective=obj,
            status="converged" if ok[j] else "max_iter"))
    return results


def solve_penalized_l1(model, y, cfg):
    """Penalized-l1 recovery of (x, z) from a single observation y.

    Fixed algorithm: primal-dual hybrid gradient with equal step sizes
    0.99/||[A, H]|| and extrapolation parameter 1.  The dual step is the
    shrinkage realizing the conjugate of the eps-ball indicator (plain
    translation when eps = 0); the primal step is a componentwise soft
    threshold with per-coordinate weights (1, ..., 1, lambda, ..., lambda).
    """
    return solve_penalized_l1_batch(model, y, cfg)[0]


def solve_irls_lp_batch(model, y, cfg):
    """Reweighted least squares for a batch of observations.

    Each outer pass solves the weighted least-norm problem
    u = W^-1 T* q with (T W^-1 T*) q = y by conjugate gradient, where
    the weights are (|u_i|^2 + eps^2)^(p/2 - 1) and the corruption block
    carries the extra factor nu.  The smoothing eps shrinks whenever the
    iterate stagnates relative to sqrt(eps)/100, floored at eps_floor.
    """
    y_mat = _batchify(model, y)
    n, m = model.n, model.m
    theta = hstack(model.A, model.H)
    total = y_mat.shape[1]
    exponent = cfg.p / 2.0 - 1.0

    y_a = _working_data(theta, y_mat)
    out_u = np.zeros((n + m, total), dtype=y_a.dtype)
    out_it = np.full(total, cfg.outer_max, dtype=np.int64)
    out_ok = np.zeros(total, dtype=bool)
    eps_hist = []

    alive = np.arange(total)
    u = np.zeros((n + m, total), dtype=y_a.dtype)
    q = np.zeros((m, total), dtype=y_a.dtype)
    eps_k = np.full(total, cfg.eps_init)
    eps_full = np.full(total, cfg.eps_init)

    for outer in range(1, cfg.outer_max + 1):
        w = (np.abs(u) ** 2 + (eps_k ** 2)[None, :]) ** exponent
        w[n:] *= cfg.nu
        inv_w = 1.0 / w

        def normal_apply(qm, inv_w=inv_w):
            return theta.apply(inv_w * theta.apply_adjoint(qm))

        q, _ = _cg_batch(normal_apply, y_a, q, cfg.cg_tol, cfg.cg_max)
        u_new = inv_w * theta.apply_adjoint(q)
        rel = _col_norms(u_new - u) / np.maximum(_col_norms(u_new), _TINY)
        u = u_new

        shrink = rel < np.sqrt(eps_k) / 100.0
        eps_k = np.where(shrink, np.maximum(cfg.eps_floor, cfg.eps_shrink * eps_k), eps_k)
        eps_full[alive] = eps_k
        eps_hist.append(eps_full.copy())

        done = rel <= 1e-10
        if done.any():
            cols = alive[done]
            out_u[:, cols] = u[:, done]
            out_it[cols] = outer
            out_ok[cols] = True
            stay = ~done
            if not stay.any():
                alive = alive[:0]
                break
            alive = alive[stay]
            u = u[:, stay]
            q = q[:, stay]
            eps_k = eps_k[stay]
            y_a = y_a[:, stay]

    if alive.size:
        out_u[:, alive] = u

    traces = np.array(eps_hist) if eps_hist else np.zeros((0, total))
    results = []
    for j in range(total):
        x_hat = out_u[:n, j].astype(np.complex128)
        z_hat = out_u[n:, j].astype(np.complex128)
        resid = float(np.linalg.norm(
            y_mat[:, j] - model.A.apply(x_hat) - model.H.apply(z_hat)))
        obj = float(np.sum(np.abs(x_hat) ** cfg.p)
                    + cfg.nu * np.sum(np.abs(z_hat) ** cfg.p))
        results.append(SolveResult(
            x_hat=x_hat, z_hat=z_hat, iterations=int(out_it[j]),
            residual=resid, objective=obj,
            status="converged" if out_ok[j] else "max_iter",
            eps_trace=tuple(float(t) for t in traces[:out_it[j], j])))
    return results


def solve_irls_lp(model, y, cfg):
    """Reweighted-least-squares recovery from a single observation."""
    return solve_irls_lp_batch(model, y, cfg)[0]


def check_success(result, instance, tol=1e-3):
    """Success criterion: summed relative errors below `tol`.

    Each relative error guards its denominator with max(norm, 1e-12);
    instances with no corruption drop the corruption term.
    """
    err_x = float(np.linalg.norm(result.x_hat - instance.x_true))
    total = err_x / max(float(np.linalg.norm(instance.x_true)), 1e-12)
    if instance.k > 0:
        err_z = float(np.linalg.norm(result.z_hat - instance.z_true))
        total += err_z / max(float(np.linalg.norm(instance.z_true)), 1e-12)
    return bool(total < tol)
