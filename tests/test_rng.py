"""Deterministic stream naming and distribution sanity of the RNG layer."""

import numpy as np
import pytest

from sigpca import ConfigError, derive_seed, generator
from sigpca.rng import check_seed


def test_same_stream_same_sequence():
    a = generator(7, 3).standard_normal(100)
    b = generator(7, 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = generator(7, 0).standard_normal(100)
    b = generator(7, 1).standard_normal(100)
    c = generator(8).standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generator_restarts_at_stream_origin():
    first = generator(11, 2).standard_normal(5)
    again = generator(11, 2).standard_normal(5)
    assert np.array_equal(first, again)
    # The stream is the SeedSequence spawn key under the root seed.
    seq = np.random.SeedSequence(entropy=11, spawn_key=(2,))
    assert np.array_equal(np.random.default_rng(seq).standard_normal(5), first)


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7"])
def test_seed_range_validation(bad):
    with pytest.raises(ConfigError):
        check_seed(bad)


def test_extreme_valid_seeds():
    assert check_seed(0) == 0
    assert check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    assert type(check_seed(np.int64(5))) is int
    assert generator(2**64 - 1, 2**64 - 1).standard_normal(3).shape == (3,)


def test_large_sample_moments():
    draws = generator(123).standard_normal(1_000_000)
    assert -0.005 <= draws.mean() <= 0.005
    assert 0.99 <= draws.var() <= 1.01


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    seen = {
        derive_seed(42),
        derive_seed(42, 1),
        derive_seed(42, 2),
        derive_seed(42, 1, 2),
        derive_seed(42, 2, 1),
        derive_seed(43, 1, 2),
    }
    assert len(seen) == 6
    for value in seen:
        assert 0 <= value <= 2**64 - 1


def test_derive_seed_child_independent_of_parent_streams():
    child = derive_seed(42, 0)
    assert child != 42
    parent_draws = generator(42, 0).standard_normal(50)
    child_draws = generator(child, 0).standard_normal(50)
    assert not np.array_equal(parent_draws, child_draws)


def test_derive_seed_validates_path():
    with pytest.raises(ConfigError):
        derive_seed(42, -1)
    with pytest.raises(ConfigError):
        derive_seed(-1, 0)
