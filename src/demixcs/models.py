"""Sensing-model constructors, problem instances, and scalar diagnostics.

A SensingModel bundles a measurement operator A (m x n) with a corruption
operator H (m x m), and reads m and n from A.  Observations follow
y = A x + H z + w with x sparse, z sparse and w a small dense
perturbation.  All builders are pure functions of their seed, so a model
can be rebuilt bit-for-bit from its header metadata.
"""

from dataclasses import dataclass

import numpy as np

from . import linop
from .errors import ArgumentError
from .linop import (
    Chain,
    Dense,
    Diagonal,
    Fourier,
    Subsample,
    WalshHadamard,
    identity,
    is_power_of_two,
    materialize,
)
from .seeding import derive_seed, is_integer, rng

# Short labels kept as synonyms on the CLI surface.
FAMILY_ALIASES = {
    "mtx1": "modulated-hadamard",
    "mtx2": "subsampled-hadamard",
}

SETTINGS = ("gaussian", "flat")


def canonical_family(name):
    key = str(name).lower()
    key = FAMILY_ALIASES.get(key, key)
    if key not in FAMILIES:
        raise ArgumentError(f"unknown model family '{name}'")
    return key


@dataclass(frozen=True)
class SensingModel:
    """Measurement pair (A, H) plus construction metadata.  m and n are A's
    shape, and H must be m x m, so a model cannot disagree with its operators."""

    A: linop.LinearOperator
    H: linop.LinearOperator
    family: str
    seed: int
    m = property(lambda self: self.A.rows)
    n = property(lambda self: self.A.cols)

    def __post_init__(self):
        if self.H.rows != self.A.rows or self.H.rows != self.H.cols:
            raise ArgumentError("H must be square with as many rows as A")

    def describe(self):
        return (f"{self.family} m={self.m} n={self.n} seed={self.seed} "
                f"A=[{self.A.describe()}] H=[{self.H.describe()}]")


@dataclass(frozen=True)
class ProblemInstance:
    """Ground truth, observation and the settings and seed that drew them."""

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


def golay_sequence(q):
    """First sequence a of the Golay complementary pair of length 2**q.

    The doubling recursion from a = b = (1) gives |A(w)|^2 + |B(w)|^2 =
    2 * length at every frequency, so |A(w)|^2 <= 2 * length: the flat
    spectrum that bounds the coherence of modulated transforms.
    """
    linop.check_sizes("golay_sequence q", q)
    a = np.array([1.0])
    b = np.array([1.0])
    for _ in range(q):
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return a


def _rademacher(gen, n):
    return (2.0 * gen.integers(0, 2, n) - 1.0).astype(np.float64)


def _row_subset(gen, n, m):
    return np.sort(gen.permutation(n)[:m])


def _require_pow2(n, what):
    if not is_power_of_two(n):
        raise ArgumentError(f"{what} must be a power of two, got {n}")


def _require_rows(n, m):
    """n and m positive integers, n a power of two and m <= n."""
    linop.check_sizes("n and m", n, m)
    _require_pow2(n, "n")
    if not 1 <= m <= n:
        raise ArgumentError(f"need 1 <= m <= n, got m={m}, n={n}")


def _scaled_rows(n, m, omega, *ops):
    """sqrt(n/m) R_omega ops..., m rows of an n x n chain scaled to unit column norm."""
    return Chain(Subsample(omega, n), *ops, scale=np.sqrt(n / m))


def build_modulated_hadamard(n, m, seed):
    """Tight-frame model: A = U D B, corruption on the identity basis.

    U is m random rows of the +-1 Hadamard scaled by 1/sqrt(m) (a
    unit-norm tight frame with every entry of magnitude 1/sqrt(m)), D a
    random +-1 diagonal and B the normalized Hadamard.
    """
    _require_rows(n, m)
    omega = _row_subset(rng(seed, 0), n, m)
    xi = _rademacher(rng(seed, 1), n)
    a = Chain(_scaled_rows(n, m, omega, WalshHadamard(n)), Diagonal(xi), WalshHadamard(n))
    return SensingModel(A=a, H=identity(m), family="modulated-hadamard", seed=int(seed))


def build_subsampled_hadamard(n, m, seed):
    """Scaled row-subset of the Hadamard basis, Hadamard-sparse corruption.

    A = sqrt(n/m) R G with G the normalized n x n Hadamard and R a random
    row subset of size m; H is the normalized m x m Hadamard, so every
    entry of H has magnitude exactly 1/sqrt(m).
    """
    _require_rows(n, m)
    _require_pow2(m, "m")
    omega = _row_subset(rng(seed, 0), n, m)
    a = _scaled_rows(n, m, omega, WalshHadamard(n))
    return SensingModel(A=a, H=WalshHadamard(m), family="subsampled-hadamard", seed=int(seed))


def build_partial_circulant(n, m, seed):
    """Partial random circulant realized through its Fourier factorization.

    A = sqrt(n/m) R F* diag(xi) F with xi a +-1 sequence and R the first
    m rows, which equals (1/sqrt(m)) R C_eps for the circulant generated
    by eps = F* xi.
    """
    _require_rows(n, m)
    xi = _rademacher(rng(seed, 1), n)
    a = _scaled_rows(n, m, np.arange(m), Fourier(n, adjoint=True), Diagonal(xi), Fourier(n))
    return SensingModel(A=a, H=identity(m), family="partial-circulant", seed=int(seed))


def build_cs_ofdm(n, m, seed):
    """Golay-modulated convolution model with Fourier-sparse corruption.

    A = sqrt(n/m) R F* diag(g) F with g a Golay sequence (unimodular, so
    the modulated transform is unitary); H is the m x m unitary DFT, the
    natural basis for narrow-band interference.
    """
    _require_rows(n, m)
    q = int(np.log2(n))
    g = golay_sequence(q)
    omega = _row_subset(rng(seed, 0), n, m)
    a = _scaled_rows(n, m, omega, Fourier(n, adjoint=True), Diagonal(g), Fourier(n))
    return SensingModel(A=a, H=Fourier(m), family="cs-ofdm", seed=int(seed))


def build_drpe(n, m, seed):
    """Double random phase encoding with a deterministic Golay input mask.

    A = sqrt(n/m) R F* L F diag(g) where L is a diagonal of uniform
    unimodular phases (the Fourier-plane mask), g a Golay sequence
    replacing the input-plane random mask, and R the first m rows.  The
    signal is sparse in the identity basis; corruption lives on the
    identity basis too.
    """
    _require_rows(n, m)
    phases = np.exp(2j * np.pi * rng(seed, 0).random(n))
    g = golay_sequence(int(np.log2(n)))
    a = _scaled_rows(n, m, np.arange(m), Fourier(n, adjoint=True), Diagonal(phases),
                     Fourier(n), Diagonal(g))
    return SensingModel(A=a, H=identity(m), family="drpe", seed=int(seed))


def custom_model(a_matrix, h_matrix=None):
    """Wrap dense matrices as a SensingModel (family 'custom', seed 0).

    A custom model has no builder, so it cannot be rebuilt from a family
    name or persisted as an instance file.
    """
    a = Dense(a_matrix)
    h = Dense(h_matrix) if h_matrix is not None else identity(a.rows)
    return SensingModel(A=a, H=h, family="custom", seed=0)


_BUILDERS = {
    # tight frame x random diagonal x orthonormal
    "modulated-hadamard": build_modulated_hadamard,
    # scaled row-subset of an orthonormal basis
    "subsampled-hadamard": build_subsampled_hadamard,
    "partial-circulant": build_partial_circulant,
    "cs-ofdm": build_cs_ofdm,
    "drpe": build_drpe,
}
FAMILIES = tuple(_BUILDERS)


def build_family(family, n, m, seed):
    """Dispatch to a builder by (possibly aliased) family name."""
    return _BUILDERS[canonical_family(family)](n, m, seed)


def _sparse(length, s, setting, seed):
    """Sparse vector with a uniformly random support of size s.

    Gaussian setting: nonzeros are i.i.d. real standard normals.
    Flat setting: every nonzero equals exactly 1 (constant sign, for
    stress-testing methods that rely on sign randomness).
    """
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


def check_sparsity(n, m, s, k):
    """Refuse a signal sparsity outside [0, n] or a corruption sparsity outside
    [0, m], or one that is not an integer; numpy integers pass, bools do not."""
    for name, value, top in (("signal", s, n), ("corruption", k, m)):
        if not is_integer(value):
            raise ArgumentError(f"{name} sparsity {value} is not an integer")
        if not 0 <= value <= top:
            raise ArgumentError(f"{name} sparsity {value} outside [0, {top}]")


def check_instance_spec(n, m, s, k, setting, noise_amp):
    """Refuse a draw on an m x n model that `gen_instance` cannot make.

    Sparsities must pass `check_sparsity`, the setting must be known,
    and the noise amplitude a finite nonnegative number.  The sweep specs,
    and the instance-file reader through `gen_instance`, apply the same rule.
    """
    linop.check_real("noise_amp", noise_amp, 0, ends="[)")
    check_sparsity(n, m, s, k)
    if setting not in SETTINGS:
        raise ArgumentError(f"unknown setting '{setting}'")


def gen_instance(model, s, k, setting, noise_amp, seed):
    """Draw (x, z, w) and assemble y = A x + H z + w.

    The dense noise w has i.i.d. +-noise_amp entries, so
    ||w||_2 = noise_amp * sqrt(m).  Signal, corruption and noise draw from
    the sub-seeds derive_seed(seed, (1,)), (2,) and (3,), so `seed` alone,
    which is all the instance records, reproduces each component.
    """
    check_instance_spec(model.n, model.m, s, k, setting, noise_amp)
    x = _sparse(model.n, s, setting, derive_seed(seed, (1,)))
    z = _sparse(model.m, k, setting, derive_seed(seed, (2,)))
    if noise_amp == 0:
        w = np.zeros(model.m, dtype=np.complex128)
    else:
        w = noise_amp * _rademacher(rng(derive_seed(seed, (3,)), 0), model.m)
        w = w.astype(np.complex128)
    y = model.A.apply(x) + model.H.apply(z) + w
    return ProblemInstance(
        model=model, x_true=x, z_true=z, w=w, y=y, s=int(s), k=int(k),
        setting=setting, noise_amp=float(noise_amp), seed=int(seed))


def coherence(op):
    """Largest entry magnitude of the materialized operator."""
    return float(np.max(np.abs(materialize(op))))
