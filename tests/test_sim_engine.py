"""Unit tests for the discrete-event simulation kernel."""

from itertools import accumulate

import pytest

from repro.sim.engine import Environment, Event, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    # The second input is 10k back-to-back timeouts on one process.
    for delays in [(5.0, 2.5), (1.0,) * 10_000]:
        env = Environment()
        log = []

        def proc():
            for delay in delays:
                yield env.timeout(delay)
                log.append(env.now)

        env.process(proc())
        env.run()
        assert log == list(accumulate(delays))
        assert env.now == sum(delays)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_events_fire_in_time_order_with_fifo_ties():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc("b", 2.0))
    env.process(proc("a", 1.0))
    env.process(proc("tie1", 3.0))
    env.process(proc("tie2", 3.0))
    env.run()
    assert order == ["a", "b", "tie1", "tie2"]


def test_process_waits_for_other_process():
    env = Environment()
    log = []

    def worker():
        yield env.timeout(4.0)
        log.append("worker done")
        return 42

    def waiter(worker_proc):
        value = yield worker_proc
        log.append(("got", value, env.now))

    proc = env.process(worker())
    env.process(waiter(proc))
    env.run()
    assert log == ["worker done", ("got", 42, 4.0)]


def test_yield_from_subgenerator_returns_value():
    env = Environment()
    result = []

    def sub():
        yield env.timeout(1.0)
        return "sub-value"

    def main():
        value = yield from sub()
        result.append(value)

    env.process(main())
    env.run()
    assert result == ["sub-value"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = Event(env)
    log = []

    def opener():
        yield env.timeout(3.0)
        gate.succeed("open!")

    def waiter():
        value = yield gate
        log.append((env.now, value))

    env.process(opener())
    env.process(waiter())
    env.run()
    assert log == [(3.0, "open!")]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = Event(env)
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_raises_in_waiter():
    # A process whose generator raises is a failed event: the exception
    # is thrown into its waiter, and counts as handled there.
    env = Environment()
    caught = []

    def failer():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    def waiter(failing):
        try:
            yield failing
        except RuntimeError as exc:
            caught.append((env.now, str(exc)))

    env.process(waiter(env.process(failer())))
    env.run()
    assert caught == [(1.0, "boom")]


def test_unhandled_process_failure_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(bad())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_is_alive_transitions():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    assert proc._ok is None
    env.run()
    assert proc._ok


def test_many_processes_complete():
    env = Environment()
    done = []

    def proc(i):
        yield env.timeout(float(i % 7) + 0.1)
        done.append(i)

    for i in range(500):
        env.process(proc(i))
    env.run()
    assert sorted(done) == list(range(500))
