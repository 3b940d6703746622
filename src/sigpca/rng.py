"""Deterministic random number streams.

Every stochastic routine in the package draws from ``generator(seed,
stream)``, which names a generator by a pair of 64-bit integers.  The
same pair always yields the same sequence, on every platform, and
distinct stream ids give statistically independent sequences.  Work that
is split into units (null draws, validation datasets) assigns one stream
per unit, so results never depend on the order the units run in or on
the number of processes that share them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_MAX_UINT64 = 2**64 - 1


def check_seed(value: int, label: str = "seed") -> int:
    """``value`` as an int; ``ConfigError`` unless it is an integer that
    fits in an unsigned 64-bit integer."""
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{label} must be an integer, got {type(value).__name__}")
    value = int(value)
    if not 0 <= value <= _MAX_UINT64:
        raise ConfigError(f"{label} must fit in an unsigned 64-bit integer, got {value}")
    return value


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Fresh generator at the start of stream ``stream`` under the root
    ``seed``; both are unsigned 64-bit integers, checked by the configs
    that hold them."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` along an integer path.

    Children at distinct paths are independent of each other and of the
    parent's own streams, which lets nested stages (data generation,
    model fitting, null sampling) each own a seed without coordination.
    """
    seed = check_seed(seed)
    key = tuple(check_seed(p, "path element") for p in path)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key + (_MAX_UINT64,))
    return int(seq.generate_state(1, np.uint64)[0])
