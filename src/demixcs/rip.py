"""Exact restricted-isometry oracles and recovery certification.

At desk scale the restricted isometry constants can be computed exactly
from the extreme eigenvalues of the Gram block of every support.  The
joint constant of [A, H] is found by bound-then-verify: a cheap upper
bound on each (S, K) pair's deviation, built from the deviations of S
and K alone and the norm of their cross block, rules out every pair
that cannot reach the maximum or tie with it, and LAPACK runs only on
the rest.  Each block is solved on its own, so the constant, the
witness and its extreme eigenvalues match exhaustive enumeration bit
for bit.  Combining the exact joint constant with the recovery
threshold yields an actionable certificate: when it holds, every
sufficiently sparse signal/corruption pair is the unique minimizer of
the penalized program with zero noise.
"""

import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ArgumentError, BudgetError
from .linop import Dense, materialize
from .models import check_sparsity, custom_model

ENUM_BUDGET = 10 ** 6  # cap on the support pairs one search enumerates

# Supports whose deviation is within this slack of the maximum count as
# ties; the lexicographically smallest is reported.
_TIE_TOL = 1e-14

# Relative inflation of the pair bounds.  It covers rounding in the bound
# and in LAPACK's eigenvalues, each a few ulps of the block norm, which
# is at most 1 + bound.
_BOUND_SLACK = 1e-9

_CHUNK = 4096

_NO_SUPPORT = np.zeros((1, 0), dtype=np.intp)


@dataclass(frozen=True)
class RipReport:
    """Exact isometry constant with the support pair achieving it."""

    delta: float
    witness_signal_support: tuple
    witness_corruption_support: tuple
    eig_min: float
    eig_max: float
    supports_enumerated: int


@dataclass(frozen=True)
class ThresholdReport:
    """Recovery-threshold evaluation for given sparsity levels and weight."""

    eta: float
    threshold: float
    delta_2s2k: float = None
    satisfied: bool = None
    skrip: RipReport = None  # the exact search behind delta_2s2k, with its witness


def _combo_array(n, r):
    if r == 0:
        return _NO_SUPPORT
    return np.array(list(combinations(range(n), r)), dtype=np.intp)


def _supports(n, m, s, k):
    """Signal and corruption supports in lexicographic order, once checked."""
    check_sparsity(n, m, s, k)
    count = math.comb(n, s) * math.comb(m, k)
    if count > ENUM_BUDGET:
        raise BudgetError(
            f"{count} support pairs exceed the enumeration budget of {ENUM_BUDGET}")
    return _combo_array(n, s), _combo_array(m, k)


def _pair_deviations(gram, sig_combos, cor_combos, n, pairs=None):
    """Extreme-eigenvalue deviations of (S, K) pairs, in the given order.

    `pairs` holds flat indices, every pair by default; the pair at flat
    index t is (sig_combos[t // nK], cor_combos[t % nK]).  Returns
    (devs, eig_mins, eig_maxs) arrays aligned with `pairs`.
    """
    n_cor = cor_combos.shape[0]
    total = sig_combos.shape[0] * n_cor if pairs is None else len(pairs)
    d = sig_combos.shape[1] + cor_combos.shape[1]
    devs = np.empty(total)
    emin = np.empty(total)
    emax = np.empty(total)
    if d == 0:
        devs[:] = 0.0
        emin[:] = 1.0
        emax[:] = 1.0
        return devs, emin, emax
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        t = np.arange(start, stop) if pairs is None else pairs[start:stop]
        idx = np.concatenate(
            [sig_combos[t // n_cor], n + cor_combos[t % n_cor]], axis=1)
        sub = gram[idx[:, :, None], idx[:, None, :]]
        ev = np.linalg.eigvalsh(sub)
        emin[start:stop] = ev[:, 0]
        emax[start:stop] = ev[:, -1]
        devs[start:stop] = np.maximum(ev[:, -1] - 1.0, 1.0 - ev[:, 0])
    return devs, emin, emax


def _pair_bounds(gram, sig_combos, cor_combos, n, e, d):
    """Upper bound on every pair's deviation, by flat index.

    For Gram - I = [[E, C], [C*, D]] and a unit x = (u, v),
    |x* (Gram - I) x| <= e|u|^2 + 2c|u||v| + d|v|^2 with e = ||E||,
    d = ||D|| and c >= ||C||, so the top eigenvalue of [[e, c], [c, d]]
    bounds the pair's deviation.  c is exact when min(s, k) <= 2: with
    one row or column it is the Frobenius norm, taken as the bound when
    both sides exceed 2, and with two it is the root of the closed-form
    top eigenvalue of that side's 2 x 2 Gram.
    """
    cross = gram[:n, n:]
    # the norm is taken over the `small` side's Gram, which must be the
    # 2-wide side when the other is wider
    big, small, x, e_big, e_small = sig_combos, cor_combos, cross, e, d
    swap = sig_combos.shape[1] == 2 < cor_combos.shape[1]
    if swap:
        big, small, x, e_big, e_small = cor_combos, sig_combos, cross.T, d, e
    p = np.abs(x) ** 2
    if small.shape[1] == 2:
        q = x[:, small[:, 0]].conj() * x[:, small[:, 1]]
    ub = np.empty((big.shape[0], small.shape[0]))
    rows = max(1, _CHUNK // small.shape[0])
    for start in range(0, big.shape[0], rows):
        block = big[start:start + rows]
        p_big = p[block].sum(axis=1)
        if small.shape[1] == 2:
            uu, vv = p_big[:, small[:, 0]], p_big[:, small[:, 1]]
            uv = np.abs(q[block].sum(axis=1))
            c2 = (uu + vv) / 2 + np.hypot((uu - vv) / 2, uv)
        else:
            c2 = p_big[:, small].sum(axis=2)
        eb = e_big[start:start + rows, None]
        bound = (eb + e_small) / 2 + np.hypot((eb - e_small) / 2, np.sqrt(c2))
        ub[start:start + rows] = bound + _BOUND_SLACK * (1.0 + bound)
    return (ub.T if swap else ub).ravel()


def _support_search(gram, n, s, k):
    """Largest pair deviation over (S, K) supports of the Gram's two blocks.

    Columns below n form the signal block, the rest the corruption
    block.  The exact deviation of the pair with the largest bound is a
    floor on the maximum; only pairs whose bound reaches that floor, less
    the tie tolerance, can be the maximum or a tie witness, and only
    they are solved, in lexicographic order.
    """
    sig, cor = _supports(n, gram.shape[0] - n, s, k)
    e = _pair_deviations(gram, sig, _NO_SUPPORT, n)[0]
    d = _pair_deviations(gram, _NO_SUPPORT, cor, n)[0]
    ub = _pair_bounds(gram, sig, cor, n, e, d)
    floor = _pair_deviations(gram, sig, cor, n, ub.argmax(keepdims=True))[0][0]
    candidates = np.flatnonzero(ub >= floor - _TIE_TOL)
    devs, emin, emax = _pair_deviations(gram, sig, cor, n, candidates)

    delta = float(devs.max())
    w = int(np.flatnonzero(devs >= delta - _TIE_TOL)[0])
    wi, wj = divmod(int(candidates[w]), cor.shape[0])
    return RipReport(
        delta=delta,
        witness_signal_support=tuple(int(i) for i in sig[wi]),
        witness_corruption_support=tuple(int(i) for i in cor[wj]),
        eig_min=float(emin[w]),
        eig_max=float(emax[w]),
        supports_enumerated=ub.size,
    )


def _joint_gram(a_matrix, h_matrix):
    """Gram of [A, H] and the column count n of A."""
    model = custom_model(a_matrix, h_matrix)
    theta = np.concatenate([model.A.matrix, model.H.matrix], axis=1)
    return theta.conj().T @ theta, model.n


def exact_skrip(a_matrix, h_matrix, s, k):
    """Exact joint isometry constant of [A, H] over (s, k)-sparse pairs.

    Over every signal support S (|S| = s) and corruption support K
    (|K| = k), the constant is the worst deviation from 1 of an
    eigenvalue of the Gram of [A_S, H_K].  Bound-then-verify (module
    docstring) solves only the pairs that can attain it; the result,
    witness and eigenvalues included, equals exhaustive enumeration bit
    for bit, and `supports_enumerated` counts every pair.  The first
    support pair (in lexicographic order) within 1e-14 of the maximum is
    reported as the witness.
    """
    gram, n = _joint_gram(a_matrix, h_matrix)
    return _support_search(gram, n, s, k)


def exact_rip(a_matrix, s):
    """Exact standard restricted isometry constant: the joint search at k = 0."""
    a = Dense(a_matrix).matrix
    return _support_search(a.conj().T @ a, a.shape[1], s, 0)


def rip_split(a_matrix, h_matrix, s, k):
    """Two-part upper bound on the joint constant: (delta1, delta2).

    delta1 is the standard isometry constant of A at sparsity s; delta2
    is the largest spectral norm of a k x s cross block H_K* A_S, which
    equals twice the worst signal/corruption inner product over the unit
    sphere.  The joint constant never exceeds delta1 + delta2.  delta2 is
    the joint search on the Gram of [A, H] with identity diagonal blocks,
    where a pair's eigenvalues are 1 +- its cross block's singular values.
    """
    gram, n = _joint_gram(a_matrix, h_matrix)
    gram[:n, :n] = np.eye(n)
    gram[n:, n:] = np.eye(gram.shape[0] - n)
    delta2 = _support_search(gram, n, s, k).delta
    return exact_rip(a_matrix, s).delta, delta2


def recovery_threshold(s, k, lambda_reg):
    """Largest admissible joint isometry constant for exact recovery.

    eta balances the two sparsity levels under the penalty weight; the
    threshold is 1/sqrt(1 + (1/(2 sqrt 2) + sqrt(eta))^2), strictly
    decreasing in eta with eta >= 2 always.
    """
    if s < 1 or k < 1 or not 0 < lambda_reg < math.inf:
        raise ArgumentError(f"need s, k >= 1 and a finite lambda_reg > 0, "
                            f"got s={s}, k={k}, lambda_reg={lambda_reg}")
    lk = lambda_reg ** 2 * k
    eta = (s + lk) / min(s, lk)
    threshold = 1.0 / math.sqrt(1.0 + (1.0 / (2.0 * math.sqrt(2.0)) + math.sqrt(eta)) ** 2)
    return ThresholdReport(eta=float(eta), threshold=float(threshold))


def certify_uniqueness(model, s, k, lambda_reg):
    """Certificate that every (s, k)-sparse pair is exactly recoverable.

    Materializes the model, computes the exact joint constant at doubled
    sparsity levels and compares it against the recovery threshold.  A
    satisfied certificate means the penalized program with zero noise
    bound returns the ground truth for every s-sparse signal combined
    with every k-sparse corruption.  The report keeps the exact search,
    witness supports included, as `skrip`.
    """
    base = recovery_threshold(s, k, lambda_reg)
    a = materialize(model.A)
    h = materialize(model.H)
    report = exact_skrip(a, h, 2 * s, 2 * k)
    return ThresholdReport(
        eta=base.eta,
        threshold=base.threshold,
        delta_2s2k=report.delta,
        satisfied=bool(report.delta < base.threshold),
        skrip=report,
    )


def _log_clamped(v):
    return max(math.log(v), 1.0)


def _check_bound_args(delta, coherence, **counts):
    if not 0.0 < delta < 1.0:
        raise ArgumentError(f"delta must lie in (0, 1), got {delta}")
    for name, value in coherence.items():
        if not 0.0 < value <= 1.0:
            raise ArgumentError(f"{name} must lie in (0, 1], got {value}")
    for name, value in counts.items():
        if not 1 <= value <= sys.float_info.max:
            raise ArgumentError(f"{name} must lie in [1, {sys.float_info.max:g}], got {value}")


def sample_bound_modulated_frame(s, k, n_tilde, mu_b, delta):
    """Informational measurement bounds for the tight-frame model.

    Returns (m_signal, m_corruption).  Logarithms are natural and
    clamped below at 1 so unit sparsities do not zero the bound.  The
    absolute constants are unknown and set to 1, which makes this a
    relative calculator, not a prescription.
    """
    _check_bound_args(delta, {"mu_b": mu_b}, s=s, k=k, n_tilde=n_tilde)
    ls, lk, ln = _log_clamped(s), _log_clamped(k), _log_clamped(n_tilde)
    m_signal = s / delta / delta * n_tilde * mu_b * mu_b * ls * ls * ln * ln
    m_corruption = k / delta / delta * lk * lk * ln * ln
    return float(m_signal), float(m_corruption)


@dataclass(frozen=True)
class SubsampledBounds:
    """All conditions of the subsampled-basis guarantee, evaluated."""

    m_signal: float
    m_signal_terms: tuple
    m_corruption: float
    m_upper: float


def sample_bound_subsampled(s, k, n, mu_g, delta):
    """Informational bounds for the randomly subsampled orthonormal model.

    The signal condition is the max of three terms (coherence-scaled,
    log^4, and a row-count floor); the corruption condition mirrors the
    coherence term with k; the final condition is an UPPER bound on m.
    The absolute constants are unknown and set to 1, so the raw numbers
    are not prescriptive, which the upper bound makes obvious at small
    delta.
    """
    _check_bound_args(delta, {"mu_g": mu_g}, s=s, k=k, n=n)
    ls, lk, ln = _log_clamped(s), _log_clamped(k), _log_clamped(n)
    terms = (
        s / delta / delta * n * mu_g * mu_g * ls * ls * ln * ln,
        delta * delta * s * ln * ln * ln * ln,
        2.0 * ln,
    )
    m_corruption = k / delta / delta * n * mu_g * mu_g * lk * lk * ln * ln
    m_upper = delta * delta * n
    return SubsampledBounds(
        m_signal=float(max(terms)),
        m_signal_terms=tuple(float(t) for t in terms),
        m_corruption=float(m_corruption),
        m_upper=float(m_upper),
    )


def skrip_support_extremes(a_matrix, h_matrix, s, k):
    """Per-support extreme eigenvalues, for heat maps.

    Yields (signal_support, corruption_support, eig_min, eig_max) in
    lexicographic order.  Every pair is solved, unlike in `exact_skrip`.
    """
    gram, n = _joint_gram(a_matrix, h_matrix)
    sig, cor = _supports(n, gram.shape[0] - n, s, k)
    _, emin, emax = _pair_deviations(gram, sig, cor, n)
    n_cor = cor.shape[0]
    for t in range(emin.size):
        wi, wj = divmod(t, n_cor)
        yield (tuple(int(i) for i in sig[wi]), tuple(int(i) for i in cor[wj]),
               float(emin[t]), float(emax[t]))
