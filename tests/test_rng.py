"""Deterministic stream naming and distribution sanity of the RNG layer."""

import numpy as np
import pytest

from sigpca import ConfigError, RngStream, derive_seed


def test_same_stream_same_sequence():
    a = RngStream(7, 3).generator().standard_normal(100)
    b = RngStream(7, 3).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(7, 0).generator().standard_normal(100)
    b = RngStream(7, 1).generator().standard_normal(100)
    c = RngStream(8, 0).generator().standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generator_restarts_at_stream_origin():
    stream = RngStream(11, 2)
    first = stream.generator().standard_normal(5)
    again = stream.generator().standard_normal(5)
    assert np.array_equal(first, again)


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7"])
def test_seed_range_validation(bad):
    with pytest.raises(ConfigError):
        RngStream(bad)


def test_extreme_valid_seeds():
    assert RngStream(0).seed == 0
    assert RngStream(2**64 - 1).seed == 2**64 - 1


def test_large_sample_moments():
    draws = RngStream(123).generator().standard_normal(1_000_000)
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
    parent_draws = RngStream(42, 0).generator().standard_normal(50)
    child_draws = RngStream(child, 0).generator().standard_normal(50)
    assert not np.array_equal(parent_draws, child_draws)


def test_derive_seed_validates_path():
    with pytest.raises(ConfigError):
        derive_seed(42, -1)
    with pytest.raises(ConfigError):
        derive_seed(-1, 0)
