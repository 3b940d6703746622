"""Deterministic random number streams.

Every stochastic routine in the package draws from an :class:`RngStream`,
which names a generator by a ``(seed, stream)`` pair of 64-bit integers.
The same pair always yields the same sequence, on every platform, and
distinct stream ids give statistically independent sequences.  Work that
is split into units (null draws, validation datasets) assigns one stream
per unit, so results never depend on the order the units run in or on
the number of processes that share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_MAX_UINT64 = 2**64 - 1


def _check_uint64(value: int, label: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{label} must be an integer, got {type(value).__name__}")
    value = int(value)
    if not 0 <= value <= _MAX_UINT64:
        raise ConfigError(f"{label} must fit in an unsigned 64-bit integer, got {value}")
    return value


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Parameters
    ----------
    seed : int
        Root seed, shared by all streams of one logical experiment.
    stream : int
        Stream id distinguishing independent sub-streams under one seed.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _check_uint64(self.seed, "seed"))
        object.__setattr__(self, "stream", _check_uint64(self.stream, "stream"))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(seq)


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` along an integer path.

    Children at distinct paths are independent of each other and of the
    parent's own streams, which lets nested stages (data generation,
    model fitting, null sampling) each own a seed without coordination.
    """
    seed = _check_uint64(seed, "seed")
    key = tuple(_check_uint64(p, "path element") for p in path)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key + (_MAX_UINT64,))
    return int(seq.generate_state(1, np.uint64)[0])
