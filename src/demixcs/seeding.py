"""Deterministic seed derivation for parallel, reproducible experiments.

Every random draw in the package flows through a counter-based generator
keyed by (master_seed, path).  Distinct paths give statistically
independent streams, and the same (master_seed, path) always reproduces
the same stream, independent of evaluation order or worker count.
"""

import numpy as np

from .errors import ArgumentError


def _sequence(seed, path):
    key = tuple(int(p) for p in path)
    if int(seed) < 0 or any(p < 0 for p in key):
        raise ArgumentError(f"seed {seed} and path {key} must be nonnegative")
    return np.random.SeedSequence(int(seed), spawn_key=key)


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
