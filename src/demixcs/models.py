"""Sensing-model constructors, problem instances, and scalar diagnostics.

A SensingModel bundles a measurement operator A (m x n) with a corruption
operator H (m x m).  Observations follow y = A x + H z + w with x sparse,
z sparse and w a small dense perturbation.  All builders are pure
functions of their seed, so a model can be rebuilt bit-for-bit from its
header metadata.
"""

import math
from dataclasses import dataclass, field
from inspect import signature

import numpy as np

from . import linop
from .errors import ArgumentError, NumericalError, ShapeError, SparsityError
from .linop import (
    Circulant,
    Dense,
    Diagonal,
    Fourier,
    Subsample,
    WalshHadamard,
    chain,
    identity,
    is_power_of_two,
    materialize,
)
from .seeding import derive_seed, rng

FAMILIES = (
    "modulated-hadamard",   # tight frame x random diagonal x orthonormal
    "subsampled-hadamard",  # scaled row-subset of an orthonormal basis
    "partial-circulant",
    "cs-ofdm",
    "drpe",
    "custom",
)

# Short labels kept as synonyms on the CLI surface.
FAMILY_ALIASES = {
    "mtx1": "modulated-hadamard",
    "mtx2": "subsampled-hadamard",
    "partial_circulant": "partial-circulant",
    "csofdm": "cs-ofdm",
    "cs_ofdm": "cs-ofdm",
}

SETTINGS = ("gaussian", "flat")


def canonical_family(name):
    key = str(name).lower()
    key = FAMILY_ALIASES.get(key, key)
    if key not in FAMILIES:
        raise ShapeError(f"unknown model family '{name}'")
    return key


@dataclass(frozen=True)
class SensingModel:
    """Measurement pair (A, H) plus construction metadata."""

    A: linop.LinearOperator
    H: linop.LinearOperator
    family: str
    m: int
    n: int
    seed: int
    params: dict = field(default_factory=dict)

    def describe(self):
        return (f"{self.family} m={self.m} n={self.n} seed={self.seed} "
                f"A=[{self.A.describe()}] H=[{self.H.describe()}]")


@dataclass(frozen=True)
class ProblemInstance:
    """Ground truth, observation and the seeds that generated them."""

    model: SensingModel
    x_true: np.ndarray
    z_true: np.ndarray
    w: np.ndarray
    y: np.ndarray
    s: int
    k: int
    setting: str
    noise_amp: float
    seed: int
    sub_seeds: dict


@dataclass(frozen=True)
class GolayPair:
    """Complementary +-1 sequence pair of length 2**q."""

    a: np.ndarray
    b: np.ndarray


def golay_pair(q):
    """Complementary pair via the doubling recursion from a=b=(1).

    The power spectra satisfy |A(w)|^2 + |B(w)|^2 = 2 * length for every
    frequency, which is what bounds the coherence of modulated transforms.
    """
    if q < 1:
        raise ShapeError("golay_pair needs q >= 1")
    a = np.array([1.0])
    b = np.array([1.0])
    for _ in range(q):
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return GolayPair(a=a, b=b)


def _rademacher(gen, n):
    return (2.0 * gen.integers(0, 2, n) - 1.0).astype(np.float64)


def _row_subset(gen, n, m, mode):
    if mode == "first":
        return np.arange(m)
    if mode == "random":
        return np.sort(gen.permutation(n)[:m])
    raise ShapeError(f"unknown row selection mode '{mode}'")


def _require_pow2(n, what):
    if not is_power_of_two(n):
        raise ShapeError(f"{what} must be a power of two, got {n}")


def _require_rows(n, m):
    """n a power of two and 1 <= m <= n."""
    _require_pow2(n, "n")
    if not 1 <= m <= n:
        raise ShapeError(f"need 1 <= m <= n, got m={m}, n={n}")


def _scaled_rows(n, m, omega, *ops):
    """sqrt(n/m) R_omega ops..., m rows of an n x n chain scaled to unit column norm."""
    return linop.Scaled(np.sqrt(n / m), chain(Subsample(omega, n), *ops))


def build_modulated_hadamard(n, m, seed, row_selection="random", modulator="rademacher"):
    """Tight-frame model: A = U D B, corruption on the identity basis.

    U is m rows of the +-1 Hadamard scaled by 1/sqrt(m) (a unit-norm tight
    frame with every entry of magnitude 1/sqrt(m)), D a random +-1 diagonal
    and B the normalized Hadamard.  `modulator="gaussian"` draws the
    diagonal from the standard normal instead.
    """
    _require_rows(n, m)
    omega = _row_subset(rng(seed, 0), n, m, row_selection)
    gen = rng(seed, 1)
    if modulator == "rademacher":
        xi = _rademacher(gen, n)
    elif modulator == "gaussian":
        xi = gen.standard_normal(n)
    else:
        raise ShapeError(f"unknown modulator '{modulator}'")
    a = chain(_scaled_rows(n, m, omega, WalshHadamard(n)), Diagonal(xi), WalshHadamard(n))
    return SensingModel(
        A=a, H=identity(m), family="modulated-hadamard", m=m, n=n, seed=int(seed),
        params={"row_selection": row_selection, "modulator": modulator})


def build_subsampled_hadamard(n, m, seed, bernoulli_rows=False):
    """Scaled row-subset of the Hadamard basis, Hadamard-sparse corruption.

    A = sqrt(n/m) R G with G the normalized n x n Hadamard and R a random
    row subset of size m; H is the normalized m x m Hadamard, so every
    entry of H has magnitude exactly 1/sqrt(m).  With `bernoulli_rows`
    each row is kept independently with probability m/n and the realized
    row count M replaces m; H then falls back to the unitary DFT because
    a Hadamard matrix of arbitrary size M need not exist.
    """
    _require_pow2(n, "n")
    if bernoulli_rows:
        gen = rng(seed, 0)
        keep = gen.random(n) < m / n
        omega = np.flatnonzero(keep)
        if omega.size == 0:
            omega = np.array([int(gen.integers(0, n))])
        m_eff = int(omega.size)
        h = Fourier(m_eff)
    else:
        _require_pow2(m, "m")
        if m > n:
            raise ShapeError(f"need m <= n, got m={m}, n={n}")
        omega = _row_subset(rng(seed, 0), n, m, "random")
        m_eff = m
        h = WalshHadamard(m)
    a = _scaled_rows(n, m_eff, omega, WalshHadamard(n))
    return SensingModel(
        A=a, H=h, family="subsampled-hadamard", m=m_eff, n=n, seed=int(seed),
        params={"bernoulli_rows": bool(bernoulli_rows), "m_requested": int(m)})


def build_partial_circulant(n, m, seed, row_selection="first"):
    """Partial random circulant realized through its Fourier factorization.

    A = sqrt(n/m) R F* diag(xi) F with xi a +-1 sequence, which equals
    (1/sqrt(m)) R C_eps for the circulant generated by eps = F* xi.  The
    equality of the two routes is checked on a random probe at build time.
    """
    _require_rows(n, m)
    omega = _row_subset(rng(seed, 0), n, m, row_selection)
    xi = _rademacher(rng(seed, 1), n)
    a = _scaled_rows(n, m, omega, Fourier(n, adjoint=True), Diagonal(xi), Fourier(n))

    eps = Fourier(n, adjoint=True).apply(xi.astype(np.complex128))
    convolution_route = linop.Scaled(1.0 / np.sqrt(m),
                                     chain(Subsample(omega, n), Circulant(eps)))
    probe = rng(seed, 2).standard_normal(n) + 1j * rng(seed, 3).standard_normal(n)
    lhs = a.apply(probe)
    rhs = convolution_route.apply(probe)
    if np.linalg.norm(lhs - rhs) > 1e-10 * max(np.linalg.norm(lhs), 1.0):
        raise NumericalError("circulant factorization self-test failed")

    return SensingModel(
        A=a, H=identity(m), family="partial-circulant", m=m, n=n, seed=int(seed),
        params={"row_selection": row_selection})


def build_cs_ofdm(n, m, seed):
    """Golay-modulated convolution model with Fourier-sparse corruption.

    A = sqrt(n/m) R F* diag(g) F with g a Golay sequence (unimodular, so
    the modulated transform is unitary); H is the m x m unitary DFT, the
    natural basis for narrow-band interference.
    """
    _require_rows(n, m)
    q = int(np.log2(n))
    g = golay_pair(q).a
    omega = _row_subset(rng(seed, 0), n, m, "random")
    a = _scaled_rows(n, m, omega, Fourier(n, adjoint=True), Diagonal(g), Fourier(n))
    return SensingModel(
        A=a, H=Fourier(m), family="cs-ofdm", m=m, n=n, seed=int(seed), params={})


def build_drpe(n, m, seed, psi="identity"):
    """Double random phase encoding with a deterministic Golay input mask.

    A = sqrt(n/m) R F* L F diag(g) Psi where L is a diagonal of uniform
    unimodular phases (the Fourier-plane mask), g a Golay sequence
    replacing the input-plane random mask, and Psi the sparsifying basis
    (identity or Hadamard).  Corruption lives on the identity basis.
    """
    _require_rows(n, m)
    phases = np.exp(2j * np.pi * rng(seed, 0).random(n))
    g = golay_pair(int(np.log2(n))).a
    if psi == "identity":
        basis = identity(n)
    elif psi == "hadamard":
        basis = WalshHadamard(n)
    else:
        raise ShapeError(f"unknown sparsifying basis '{psi}'")
    a = _scaled_rows(n, m, np.arange(m), Fourier(n, adjoint=True), Diagonal(phases),
                     Fourier(n), Diagonal(g), basis)
    return SensingModel(
        A=a, H=identity(m), family="drpe", m=m, n=n, seed=int(seed),
        params={"psi": psi})


def custom_model(a_matrix, h_matrix=None, seed=0):
    """Wrap dense matrices as a SensingModel (family 'custom')."""
    a = Dense(a_matrix)
    h = Dense(h_matrix) if h_matrix is not None else identity(a.rows)
    if h.rows != a.rows or h.rows != h.cols:
        raise ShapeError("H must be square with as many rows as A")
    return SensingModel(A=a, H=h, family="custom", m=a.rows, n=a.cols,
                        seed=int(seed), params={})


_BUILDERS = {
    "modulated-hadamard": build_modulated_hadamard,
    "subsampled-hadamard": build_subsampled_hadamard,
    "partial-circulant": build_partial_circulant,
    "cs-ofdm": build_cs_ofdm,
    "drpe": build_drpe,
}


def family_params(family):
    """A family's builder parameters beyond (n, m, seed), with their defaults."""
    fam = canonical_family(family)
    if fam == "custom":
        raise ShapeError("custom models cannot be built from a family name")
    return {name: par.default for name, par in signature(_BUILDERS[fam]).parameters.items()
            if par.default is not par.empty}


def build_family(family, n, m, seed, **params):
    """Dispatch to a builder by (possibly aliased) family name."""
    fam = canonical_family(family)
    foreign = sorted(set(params) - set(family_params(fam)))
    if foreign:
        raise ArgumentError(f"family '{fam}' takes no parameter {', '.join(foreign)}")
    return _BUILDERS[fam](n, m, seed, **params)


def gen_sparse(length, s, setting, seed):
    """Sparse vector with a uniformly random support of size s.

    Gaussian setting: nonzeros are i.i.d. real standard normals.
    Flat setting: every nonzero equals exactly 1 (constant sign, for
    stress-testing methods that rely on sign randomness).
    """
    if not 0 <= s <= length:
        raise SparsityError(f"sparsity {s} outside [0, {length}]")
    if setting not in SETTINGS:
        raise ShapeError(f"unknown setting '{setting}'")
    v = np.zeros(length, dtype=np.complex128)
    if s == 0:
        return v
    gen = rng(seed, 0)
    support = np.sort(gen.permutation(length)[:s])
    if setting == "gaussian":
        v[support] = rng(seed, 1).standard_normal(s)
    else:
        v[support] = 1.0
    return v


def gen_instance(model, s, k, setting, noise_amp, seed, noise_model="symmetric"):
    """Draw (x, z, w) and assemble y = A x + H z + w.

    Dense noise entries all have magnitude `noise_amp`: symmetric gives
    i.i.d. +-noise_amp signs, `noise_model="zero-one"` gives i.i.d.
    {0, noise_amp} entries.  Sub-seeds for signal, corruption and noise
    are derived from `seed` so the draw is reproducible componentwise.
    """
    if not (math.isfinite(noise_amp) and noise_amp >= 0):
        raise ArgumentError(f"noise_amp must be finite and nonnegative, got {noise_amp}")
    if s > model.n:
        raise SparsityError(f"signal sparsity {s} exceeds n={model.n}")
    if k > model.m:
        raise SparsityError(f"corruption sparsity {k} exceeds m={model.m}")
    sub = {
        "signal": derive_seed(seed, (1,)),
        "corruption": derive_seed(seed, (2,)),
        "noise": derive_seed(seed, (3,)),
    }
    x = gen_sparse(model.n, s, setting, sub["signal"])
    z = gen_sparse(model.m, k, setting, sub["corruption"])
    if noise_amp == 0:
        w = np.zeros(model.m, dtype=np.complex128)
    else:
        gen = rng(sub["noise"], 0)
        if noise_model == "symmetric":
            w = (noise_amp * _rademacher(gen, model.m)).astype(np.complex128)
        elif noise_model == "zero-one":
            w = (noise_amp * gen.integers(0, 2, model.m)).astype(np.complex128)
        else:
            raise ShapeError(f"unknown noise model '{noise_model}'")
    y = model.A.apply(x) + model.H.apply(z) + w
    return ProblemInstance(
        model=model, x_true=x, z_true=z, w=w, y=y, s=int(s), k=int(k),
        setting=setting, noise_amp=float(noise_amp), seed=int(seed),
        sub_seeds=sub)


def coherence(op):
    """Largest entry magnitude of the materialized operator."""
    return float(np.max(np.abs(materialize(op))))


def best_s_term_error(a, s, p=1.0):
    """l_p norm of `a` after zeroing its s largest-magnitude entries.

    Ties are broken toward keeping the lowest index among equal
    magnitudes.
    """
    if not p > 0:
        raise ArgumentError(f"p must be positive, got {p}")
    v = np.asarray(a, dtype=np.complex128)
    if s > v.size:
        raise SparsityError(f"sparsity {s} exceeds length {v.size}")
    if s == v.size:
        return 0.0
    order = np.argsort(-np.abs(v), kind="stable")
    tail = np.abs(v[order[s:]])
    return float(np.sum(tail ** p) ** (1.0 / p))
