"""Deterministic seed derivation for parallel, reproducible experiments.

Every random draw in the package flows through a counter-based generator
keyed by (master_seed, path).  Distinct paths give statistically
independent streams, and the same (master_seed, path) always reproduces
the same stream, independent of evaluation order or worker count.
"""

import numbers

import numpy as np

from .errors import ArgumentError


def is_integer(value):
    """An int or a numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed, path=()):
    """Refuse a seed or path entry that is not a nonnegative integer."""
    if not all(is_integer(v) and v >= 0 for v in (seed, *path)):
        raise ArgumentError(f"seed {seed!r} and path {tuple(path)} must be nonnegative integers")


def _sequence(seed, path):
    check_seed(seed, path)
    return np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))


def derive_seed(master_seed, path):
    """Derive a child seed from a master seed and an integer path.

    The path is a sequence of nonnegative integers identifying the
    consumer (cell index, trial index, ...).  Returns a 128-bit integer
    suitable as a seed for `rng`.
    """
    ss = _sequence(master_seed, path)
    return int.from_bytes(ss.generate_state(2, np.uint64).tobytes(), "little")


def rng(seed, *path):
    """Counter-based generator for the stream (seed, path)."""
    return np.random.Generator(np.random.Philox(_sequence(seed, path)))
