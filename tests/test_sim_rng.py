"""Unit tests for reproducible named random streams."""

import pytest

from repro.sim.rng import RandomStreams


def test_same_seed_same_draws():
    a = RandomStreams(seed=42)
    b = RandomStreams(seed=42)
    assert [a.random("x") for _ in range(10)] == [
        b.random("x") for _ in range(10)
    ]


def test_different_seeds_differ():
    a = RandomStreams(seed=1)
    b = RandomStreams(seed=2)
    assert [a.random("x") for _ in range(5)] != [
        b.random("x") for _ in range(5)
    ]


def test_streams_are_independent():
    """Consuming one stream must not perturb another."""
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    for _ in range(100):
        a.random("noise")  # extra consumption on stream 'noise'
    assert [a.random("signal") for _ in range(10)] == [
        b.random("signal") for _ in range(10)
    ]


def test_stream_identity_cached():
    streams = RandomStreams(seed=0)
    assert streams.stream("s") is streams.stream("s")


def test_exponential_mean():
    streams = RandomStreams(seed=3)
    n = 20_000
    mean = sum(streams.exponential("e", 10.0) for _ in range(n)) / n
    assert mean == pytest.approx(10.0, rel=0.05)


def test_exponential_requires_positive_mean():
    streams = RandomStreams(seed=0)
    with pytest.raises(ValueError):
        streams.exponential("e", 0.0)
