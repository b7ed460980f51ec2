"""Optimization engines for the joint sparse recovery problem.

Two solvers operate on the stacked variable u = (x; z) and the stacked
operator [A, H]:

* a primal-dual hybrid-gradient iteration for the penalized program
      min ||x||_1 + lambda ||z||_1   s.t.  ||y - A x - H z||_2 <= eps
* an iteratively reweighted least squares loop for its nonconvex
  counterpart with p < 1 and equality constraints.

Both need only forward/adjoint applications, so the fast structured
operators keep their advantage.  The primal-dual steps of each column
follow PDLP's initial primal weight and adaptive step size (Applegate et
al., NeurIPS 2021), and the reweighted loop closes with one weighted
solve that puts the returned iterate on the constraint [A, H] u = y.
Both, and the conjugate-gradient solves inside each reweighted pass, run
on column batches through one loop: a batch of right-hand sides shares
one operator, each solver supplies one iteration step, and a column that
meets its stopping rule is frozen and dropped from the batch.  When
[A, H] is real and y has no imaginary part the iterations run in
float64; they round exactly as the complex128 iterations on the same
data would, and the results are returned as complex128 either way.

Every per-column sum goes through one reduction, `_col_sum`, so for the
built model families a column's result does not depend, bit for bit, on
the batch it is solved in; a custom model's dense matrix product may
round differently at another batch width.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ArgumentError, NumericalError
from .linop import hstack, power_iteration

_TINY = 1e-300
# IRLS smoothing schedule: eps starts at _EPS_INIT and shrinks by
# _EPS_SHRINK on stagnation, down to _EPS_FLOOR
_EPS_INIT, _EPS_SHRINK, _EPS_FLOOR = 1.0, 0.1, 1e-8
_SUCCESS_TOL = 1e-3  # check_success's bound on the summed relative errors
# PDLP's adaptive step: after step k, eta becomes
# min((1 - (k+1)^-_STEP_SHRINK_EXP) eta_bar, (1 + (k+1)^-_STEP_GROW_EXP) eta)
_STEP_SHRINK_EXP, _STEP_GROW_EXP = 0.3, 0.6
_FINITE_EVERY = 64  # _run_batch checks the live iterates every this many steps


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

    def __post_init__(self):
        _require_finite(self)
        if self.lambda_reg <= 0:
            raise ArgumentError("lambda_reg must be positive")
        if self.epsilon < 0:
            raise ArgumentError("epsilon must be nonnegative")
        if self.max_iter < 1 or self.tol <= 0:
            raise ArgumentError("max_iter and tol must be positive")


@dataclass(frozen=True)
class IrlsConfig:
    """Knobs for the reweighted-least-squares solver (0 < p < 1)."""

    p: float = 0.5
    nu: float = 1.0
    outer_max: int = 100
    cg_tol: float = 1e-10
    cg_max: int = 2000

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 < self.p < 1.0:
            raise ArgumentError("p must lie in (0, 1)")
        if self.nu <= 0:
            raise ArgumentError("nu must be positive")
        if self.outer_max < 1 or self.cg_max < 1 or self.cg_tol <= 0:
            raise ArgumentError("outer_max, cg_max and cg_tol must be positive")


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


def _shrink(v, mag, t):
    """v * max(mag - t, 0) / mag for mag = |v|, in v's dtype; `t` may vary by row."""
    return v * (np.maximum(mag - t, 0.0) / np.maximum(mag, _TINY))


def _col_sum(a):
    """Column sums of a real (rows, T) array.  Each is summed over one
    contiguous row of a^T, so it rounds alike at every width T; numpy sums
    the columns of a wide array row by row but a single one pairwise."""
    return np.ascontiguousarray(a.T).sum(axis=1)


def _col_sqnorm(a):
    """Per-column ||a||^2, with |a|^2 formed straight in the transposed
    layout `_col_sum` reads, so no other temporary is made."""
    sq = np.abs(a.T, order="C")
    sq *= sq
    return _col_sum(sq.T)


def _col_norms(a):
    return np.sqrt(_col_sqnorm(a))


def _col_dot(a, b):
    """Per-column Re<a, b>."""
    return _col_sum(np.real(np.conj(a) * b))


def _require_finite_columns(u):
    """Raise NumericalError if a column of `u` holds a non-finite entry."""
    bad = ~np.all(np.isfinite(u), axis=0)
    if bad.any():
        raise NumericalError(f"{bad.sum()} of {bad.size} columns reached a non-finite iterate")


def _run_batch(state, step, max_iter, done=None):
    """The freeze-and-compact loop shared by PDHG, IRLS and its CG solves.

    `state` is a tuple of arrays whose last axis holds the columns, and
    `step(it, state)` returns the next state with a mask of the columns
    that finished on iteration `it`.  Finished columns are dropped, so
    later steps run on the rest only; `done` marks columns finished
    before the first step, with count 0.  Every _FINITE_EVERY steps the
    live columns' iterates must be finite, or NumericalError stops the
    run.  Returns each column's final iterate (the first state array),
    its iteration count and whether it finished.
    """
    total = state[0].shape[-1]
    out = np.zeros_like(state[0])
    out_it = np.full(total, max_iter, dtype=np.int64)
    out_ok = np.zeros(total, dtype=bool)
    alive = np.arange(total)
    done = np.zeros(total, dtype=bool) if done is None else done
    for it in range(max_iter + 1):
        if it:
            state, done = step(it, state)
            if it % _FINITE_EVERY == 0:
                _require_finite_columns(state[0])
        if done.any():
            cols = alive[done]
            out[..., cols] = state[0][..., done]
            out_it[cols] = it
            out_ok[cols] = True
            alive = alive[~done]
            if not alive.size:
                return out, out_it, out_ok
            state = tuple(a[..., ~done] for a in state)
    out[..., alive] = state[0]
    return out, out_it, out_ok


def _cg_batch(apply_fn, b, x0, tol, max_iter, *data):
    """Conjugate gradient on a Hermitian PSD operator, per-column stopping.

    `apply_fn(v, *data)` applies the operator; `data` holds per-column
    arrays that compact with the batch.  Columns stop once
    ||r|| <= tol * ||b|| and freeze in `_run_batch`, those already there
    on entry included.  A nonpositive curvature raises NumericalError.
    """
    r = b - apply_fn(x0, *data)
    rs = _col_sqnorm(r)
    goal = (tol * np.maximum(_col_norms(b), _TINY)) ** 2

    def iterate(_, state):
        x, r, p, rs, goal, *data = state
        ap = apply_fn(p, *data)
        pap = _col_dot(p, ap)
        if np.any(pap <= 0.0):
            raise NumericalError("conjugate gradient lost positive curvature")
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = _col_sqnorm(r)
        p = r + (rs_new / rs) * p
        return (x, r, p, rs_new, goal, *data), rs_new <= goal

    x, _, ok = _run_batch((x0, r, r, rs, goal, *data), iterate, max_iter,
                          done=rs <= goal)
    return x, ok


def _pdhg_core(theta, y, eta, omega, weights, eps, tol, max_iter):
    """Primal-dual iteration on a column batch, with PDLP's adaptive steps.

    Column j keeps primal weight omega[j] and starts at step size eta[j];
    a step with size eta takes primal step tau = eta/omega, dual step
    sigma = eta*omega and soft thresholds tau * `weights` (a (dim, 1)
    array).  The state carries T u and T* p, so a step costs one forward
    and one adjoint apply.  Returns (u, iterations, converged) where u is
    (dim, T) with the dtype of `y`.  Converged columns freeze at the
    accepted step where both the relative primal and relative dual change
    dropped to `tol`.
    """

    def iterate(it, state):
        u, tu, p, tsp, y_a, omega, eta = state
        tau, sigma = eta / omega, eta * omega
        v = u - tau * tsp
        u_new = _shrink(v, np.abs(v), weights * tau)
        tu_new = theta.apply(u_new)
        dtu = tu_new - tu
        # the extrapolation T(2 u_new - u) - y, on the observation rows
        r = p + sigma * (dtu + (tu_new - y_a))
        p_new = _shrink(r, _col_norms(r), sigma * eps) if eps > 0 else r
        tsp_new = theta.apply_adjoint(p_new)
        du2, dp = _col_sqnorm(u_new - u), p_new - p
        dp2 = _col_sqnorm(dp)
        # the largest step this pair of iterates allows, with
        # Re<du, T* dp> = Re<T du, dp>; 0 there bounds nothing
        inner = 2.0 * np.abs(_col_dot(dtu, dp))
        eta_bar = np.divide(omega * du2 + dp2 / omega, inner,
                            out=np.full_like(du2, np.inf), where=inner > 0.0)
        ok = eta <= eta_bar
        eta = np.minimum((1.0 - (it + 1) ** -_STEP_SHRINK_EXP) * eta_bar,
                         (1.0 + (it + 1) ** -_STEP_GROW_EXP) * eta)
        change = np.maximum(np.sqrt(du2) / np.maximum(_col_norms(u_new), _TINY),
                            np.sqrt(dp2) / np.maximum(_col_norms(p_new), _TINY))
        new = (u_new, tu_new, p_new, tsp_new)
        if not ok.all():  # a rejected column keeps its iterate
            new = tuple(np.where(ok, a, b) for a, b in zip(new, (u, tu, p, tsp)))
        return (*new, y_a, omega, eta), ok & (change <= tol)

    u0 = np.zeros((theta.cols, y.shape[1]), dtype=y.dtype)
    state = (u0, np.zeros_like(y), np.zeros_like(y), u0.copy(), y, omega, eta)
    return _run_batch(state, iterate, max_iter)


def _batchify(model, y):
    arr = np.asarray(y, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != model.m:
        raise ArgumentError(f"observation must have length {model.m}")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("observation contains non-finite entries")
    return arr


def _working_data(theta, y_mat):
    """y as float64 when `theta` and y are real, so the iterations stay real."""
    if theta.real and not np.any(y_mat.imag):
        return np.ascontiguousarray(y_mat.real)
    return y_mat


def _results(model, theta, y_mat, u, iters, ok, objective, traces=None):
    """One SolveResult per column of the final iterates `u` = (x; z).

    A non-finite entry in `u` raises NumericalError rather than return a
    NaN estimate.
    """
    _require_finite_columns(u)
    resid = _col_norms(y_mat - theta.apply(u))
    results = []
    for j in range(y_mat.shape[1]):
        x_hat = u[:model.n, j].astype(np.complex128)
        z_hat = u[model.n:, j].astype(np.complex128)
        results.append(SolveResult(
            x_hat=x_hat, z_hat=z_hat, iterations=int(iters[j]),
            residual=float(resid[j]), objective=objective(x_hat, z_hat),
            status="converged" if ok[j] else "max_iter",
            eps_trace=None if traces is None
            else tuple(float(t) for t in traces[:iters[j], j])))
    return results


# no overflow warnings: a non-finite column raises NumericalError instead
_quiet = np.errstate(over="ignore", invalid="ignore")


@_quiet
def solve_penalized_l1_batch(model, y, cfg):
    """Penalized-l1 recovery for a batch of observations (columns of y)."""
    y_mat = _batchify(model, y)
    theta = hstack(model.A, model.H)
    eta = np.full(y_mat.shape[1], 0.99 / max(power_iteration(theta).value, _TINY))
    weights = np.concatenate([np.ones(model.n), cfg.lambda_reg * np.ones(model.m)])
    y_norms = _col_norms(y_mat)  # for PDLP's initial primal weight ||w|| / ||y_j||
    omega = np.where(y_norms > 0, np.linalg.norm(weights) / np.maximum(y_norms, _TINY), 1.0)
    u, iters, ok = _pdhg_core(theta, _working_data(theta, y_mat), eta, omega,
                              weights[:, None], cfg.epsilon, cfg.tol, cfg.max_iter)
    return _results(model, theta, y_mat, u, iters, ok, lambda x, z: float(
        np.sum(np.abs(x)) + cfg.lambda_reg * np.sum(np.abs(z))))


def solve_penalized_l1(model, y, cfg):
    """Penalized-l1 recovery of (x, z) from a single observation y.

    Fixed algorithm: primal-dual hybrid gradient (Chambolle and Pock,
    JMIV 2011) with extrapolation parameter 1 and PDLP's adaptive step
    size (Applegate et al., NeurIPS 2021).  With the weights
    w = (1, ..., 1, lambda, ..., lambda), the primal step is
    tau = eta/omega and the dual step sigma = eta * omega, where
    omega = ||w||/||y|| is PDLP's initial primal weight, or 1 when y = 0.
    A step takes the primal update first, a componentwise soft threshold
    at tau * w, then the dual update, the shrinkage realizing the
    conjugate of the eps-ball indicator (plain translation when eps = 0).
    It is accepted only if eta <= eta_bar =
    (omega ||du||^2 + ||dp||^2/omega) / (2 |Re<du, [A, H]* dp>|), with
    eta_bar infinite when that inner product is 0; after step k, accepted
    or not, eta becomes min((1 - (k+1)^-0.3) eta_bar, (1 + (k+1)^-0.6) eta).
    The power-iteration estimate of ||[A, H]|| only sets the starting
    eta = 0.99/||[A, H]||, so a short estimate costs rejected steps, not
    divergence.  A rejected step counts toward max_iter; the iterates
    scale with y.
    """
    return solve_penalized_l1_batch(model, y, cfg)[0]


@_quiet
def solve_irls_lp_batch(model, y, cfg):
    """Reweighted least squares for a batch of observations.

    Each outer pass solves the weighted least-norm problem
    u = W^-1 T* q with (T W^-1 T*) q = y by conjugate gradient, where
    the weights are (|u_i|^2 + eps^2)^(p/2 - 1) and the corruption block
    carries the extra factor nu.  The smoothing eps shrinks whenever the
    iterate stagnates relative to sqrt(eps)/100, floored at _EPS_FLOOR.
    A final refinement solve (T W^-1 T*) d = y - T u, at the returned
    iterate's weights and final eps, returns u + W^-1 T* d, so T u meets
    y to about cg_tol^2 rather than cg_tol.
    """
    y_mat = _batchify(model, y)
    theta = hstack(model.A, model.H)
    total = y_mat.shape[1]
    exponent = cfg.p / 2.0 - 1.0
    # smoothing history by original column; `cols` in the state maps to it
    eps_hist = np.zeros((cfg.outer_max, total))

    def inverse_weights(u, eps_k):
        w = (np.abs(u) ** 2 + (eps_k ** 2)[None, :]) ** exponent
        w[model.n:] *= cfg.nu
        return 1.0 / w

    def solve_weighted(b, q0, inv_w):
        """q with (T W^-1 T*) q = b by conjugate gradient, from q0."""
        q, _ = _cg_batch(lambda v, iw: theta.apply(iw * theta.apply_adjoint(v)),
                         b, q0, cfg.cg_tol, cfg.cg_max, inv_w)
        return q

    def iterate(outer, state):
        u, q, eps_k, cols, y_a = state
        inv_w = inverse_weights(u, eps_k)
        q = solve_weighted(y_a, q, inv_w)
        u_new = inv_w * theta.apply_adjoint(q)
        rel = _col_norms(u_new - u) / np.maximum(_col_norms(u_new), _TINY)
        shrink = rel < np.sqrt(eps_k) / 100.0
        eps_k = np.where(shrink, np.maximum(_EPS_FLOOR, _EPS_SHRINK * eps_k), eps_k)
        eps_hist[outer - 1, cols] = eps_k
        return (u_new, q, eps_k, cols, y_a), rel <= 1e-10

    y_a = _working_data(theta, y_mat)
    state = (np.zeros((model.n + model.m, total), dtype=y_a.dtype), np.zeros_like(y_a),
             np.full(total, _EPS_INIT), np.arange(total), y_a)
    u, iters, ok = _run_batch(state, iterate, cfg.outer_max)
    # refinement: move u onto {T u = y} along the final weighted metric
    inv_w = inverse_weights(u, eps_hist[iters - 1, np.arange(total)])
    d = solve_weighted(y_a - theta.apply(u), np.zeros_like(y_a), inv_w)
    u = u + inv_w * theta.apply_adjoint(d)
    return _results(model, theta, y_mat, u, iters, ok, lambda x, z: float(
        np.sum(np.abs(x) ** cfg.p) + cfg.nu * np.sum(np.abs(z) ** cfg.p)), eps_hist)


def solve_irls_lp(model, y, cfg):
    """Reweighted-least-squares recovery from a single observation."""
    return solve_irls_lp_batch(model, y, cfg)[0]


def check_success(result, instance):
    """Success criterion: summed relative errors below _SUCCESS_TOL.

    Each relative error guards its denominator with max(norm, 1e-12);
    instances with no corruption drop the corruption term.
    """
    err_x = float(np.linalg.norm(result.x_hat - instance.x_true))
    total = err_x / max(float(np.linalg.norm(instance.x_true)), 1e-12)
    if instance.k > 0:
        err_z = float(np.linalg.norm(result.z_hat - instance.z_true))
        total += err_z / max(float(np.linalg.norm(instance.z_true)), 1e-12)
    return bool(total < _SUCCESS_TOL)
