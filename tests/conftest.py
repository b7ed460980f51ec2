import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


def dense_hadamard(n):
    """Sylvester-order +-1 Hadamard matrix built by explicit doubling."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def dense_dft(n):
    """Unitary DFT matrix built entrywise from its definition."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def random_complex(gen, *shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def random_unitary(gen, n):
    q, r = np.linalg.qr(random_complex(gen, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_family_reference(family, n, m, seed):
    """Dense (A, H) for a model family, assembled from explicit matrices.

    Uses the same seed streams as the fast builders but composes plain
    numpy matrices, so agreement with the operator path checks the fast
    transforms end to end.
    """
    from demixcs.models import _rademacher, _row_subset, golay_sequence
    from demixcs.seeding import rng as make_rng

    had = dense_hadamard(n)
    f = dense_dft(n)
    if family == "modulated-hadamard":
        omega = _row_subset(make_rng(seed, 0), n, m)
        xi = _rademacher(make_rng(seed, 1), n)
        a = (had[omega] / np.sqrt(m)) @ np.diag(xi) @ (had / np.sqrt(n))
        h = np.eye(m)
    elif family == "subsampled-hadamard":
        omega = _row_subset(make_rng(seed, 0), n, m)
        a = np.sqrt(n / m) * (had / np.sqrt(n))[omega]
        h = dense_hadamard(m) / np.sqrt(m)
    elif family == "partial-circulant":
        xi = _rademacher(make_rng(seed, 1), n)
        eps = f.conj().T @ xi
        circ = np.column_stack([np.roll(eps, j) for j in range(n)])
        a = circ[:m] / np.sqrt(m)
        h = np.eye(m)
    elif family == "cs-ofdm":
        omega = _row_subset(make_rng(seed, 0), n, m)
        g = golay_sequence(int(np.log2(n)))
        a = np.sqrt(n / m) * (f.conj().T @ np.diag(g) @ f)[omega]
        h = dense_dft(m)
    elif family == "drpe":
        phases = np.exp(2j * np.pi * make_rng(seed, 0).random(n))
        g = golay_sequence(int(np.log2(n)))
        a = np.sqrt(n / m) * (f.conj().T @ np.diag(phases) @ f @ np.diag(g))[:m]
        h = np.eye(m)
    else:
        raise ValueError(family)
    return a, h
