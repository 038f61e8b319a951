"""Unit tests for the single-server FIFO resource."""

import pytest

from repro.sim.engine import Environment
from repro.sim.resources import Resource


def _hold(env, resource, duration, log, name):
    with resource.request() as req:
        yield req
        log.append(("start", name, env.now))
        yield env.timeout(duration)
    log.append(("end", name, env.now))


def test_capacity_one_serializes():
    env = Environment()
    res = Resource(env)
    log = []
    env.process(_hold(env, res, 5.0, log, "a"))
    env.process(_hold(env, res, 5.0, log, "b"))
    env.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 5.0),
        ("start", "b", 5.0),
        ("end", "b", 10.0),
    ]


def test_fcfs_order():
    env = Environment()
    res = Resource(env)
    log = []

    def late(name, arrive):
        yield env.timeout(arrive)
        yield from _hold(env, res, 2.0, log, name)

    env.process(late("first", 0.0))
    env.process(late("second", 0.5))
    env.process(late("third", 1.0))
    env.run()
    starts = [entry for entry in log if entry[0] == "start"]
    assert [s[1] for s in starts] == ["first", "second", "third"]


def test_queue_length_and_count():
    env = Environment()
    res = Resource(env)
    log = []
    env.process(_hold(env, res, 10.0, log, "a"))
    env.process(_hold(env, res, 10.0, log, "b"))
    env.process(_hold(env, res, 10.0, log, "c"))
    env.run(until=1.0)
    assert len(res.users) == 1
    assert len(res._waiting) == 2


def test_utilization_tracks_busy_time():
    env = Environment()
    res = Resource(env)
    log = []

    def user():
        yield from _hold(env, res, 4.0, log, "u")

    env.process(user())
    env.run(until=10.0)
    assert res.utilization() == pytest.approx(0.4)


def test_mean_wait_accounts_queueing():
    env = Environment()
    res = Resource(env)
    log = []
    env.process(_hold(env, res, 4.0, log, "a"))
    env.process(_hold(env, res, 4.0, log, "b"))
    env.run()
    # a waited 0, b waited 4 => mean 2.
    assert res.mean_wait == pytest.approx(2.0)


def test_request_grant_value_is_queueing_delay():
    env = Environment()
    res = Resource(env)
    waits = []

    def proc():
        with res.request() as req:
            waited = yield req
            waits.append(waited)
            yield env.timeout(3.0)

    env.process(proc())
    env.process(proc())
    env.run()
    assert waits == [0.0, 3.0]


def test_cancel_waiting_request_frees_queue():
    env = Environment()
    res = Resource(env)
    log = []

    def holder():
        yield from _hold(env, res, 10.0, log, "holder")

    def impatient():
        request = res.request()
        yield env.timeout(1.0)
        res.release(request)  # give up while still queued
        log.append(("gave up", env.now))

    env.process(holder())
    env.process(impatient())
    env.run()
    assert ("gave up", 1.0) in log
    assert not res._waiting
