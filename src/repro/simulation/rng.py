"""Reproducible random-number streams for the simulators.

All stochastic components of the library take an explicit
:class:`numpy.random.Generator`.  Experiments that fan out replications use
:func:`spawn_generators`, which derives independent child streams from a
single seed via ``SeedSequence.spawn`` so that every replication is
independent yet the whole experiment is reproducible from one integer.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Create a generator from an int seed, a SeedSequence, or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from one seed."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Use the generator itself to derive a seed sequence deterministically.
        root = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


def poisson_arrival_times(
    rng: np.random.Generator, rate: float, horizon: float
) -> np.ndarray:
    """All arrival times of a rate-``rate`` Poisson process on ``[0, horizon]``."""
    if rate < 0 or horizon < 0:
        raise ValueError("rate and horizon must be nonnegative")
    if rate == 0 or horizon == 0:
        return np.empty(0)
    count = rng.poisson(rate * horizon)
    times = rng.uniform(0.0, horizon, size=count)
    times.sort()
    return times


__all__ = ["SeedLike", "make_rng", "spawn_generators", "poisson_arrival_times"]
