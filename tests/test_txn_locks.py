"""Unit tests for the strict 2PL lock manager."""

from repro.sim.engine import Environment
from repro.txn.locks import (
    DeadlockError,
    LockManager,
    LockMode,
    WaitForGraph,
)


def run_acquire(env, locks, txn_id, page_id, mode, log, name):
    def proc():
        yield from locks.acquire(txn_id, page_id, mode)
        log.append((name, env.now))

    return env.process(proc())


def test_shared_locks_coexist():
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    log = []
    run_acquire(env, locks, 1, 7, LockMode.SHARED, log, "a")
    run_acquire(env, locks, 2, 7, LockMode.SHARED, log, "b")
    env.run()
    assert [name for name, _ in log] == ["a", "b"]
    assert locks.holds(1, 7) and locks.holds(2, 7)


def test_exclusive_blocks_shared():
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    log = []
    run_acquire(env, locks, 1, 7, LockMode.EXCLUSIVE, log, "writer")
    run_acquire(env, locks, 2, 7, LockMode.SHARED, log, "reader")
    env.run(until=10.0)
    assert log == [("writer", 0.0)]
    locks.release_all(1)
    env.run()
    assert ("reader", 10.0) in log


def test_shared_blocks_exclusive():
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    log = []
    run_acquire(env, locks, 1, 7, LockMode.SHARED, log, "reader")
    run_acquire(env, locks, 2, 7, LockMode.EXCLUSIVE, log, "writer")
    env.run(until=1.0)
    assert log == [("reader", 0.0)]
    locks.release_all(1)
    env.run()
    assert len(log) == 2


def test_reacquire_held_lock_is_noop():
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    log = []
    run_acquire(env, locks, 1, 7, LockMode.SHARED, log, "first")
    run_acquire(env, locks, 1, 7, LockMode.SHARED, log, "second")
    env.run()
    assert len(log) == 2


def test_upgrade_when_sole_holder():
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    log = []
    run_acquire(env, locks, 1, 7, LockMode.SHARED, log, "s")
    run_acquire(env, locks, 1, 7, LockMode.EXCLUSIVE, log, "x")
    env.run()
    assert len(log) == 2
    # The upgraded lock is exclusive: another reader must wait.
    run_acquire(env, locks, 2, 7, LockMode.SHARED, log, "other")
    env.run()
    assert [name for name, _ in log] == ["s", "x"]


def test_fifo_no_starvation_of_writer():
    """A queued writer must not be overtaken by later readers."""
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    log = []
    run_acquire(env, locks, 1, 7, LockMode.SHARED, log, "r1")
    run_acquire(env, locks, 2, 7, LockMode.EXCLUSIVE, log, "w")
    run_acquire(env, locks, 3, 7, LockMode.SHARED, log, "r2")
    env.run(until=1.0)
    assert [name for name, _ in log] == ["r1"]
    locks.release_all(1)
    env.run(until=2.0)
    assert [name for name, _ in log] == ["r1", "w"]
    locks.release_all(2)
    env.run()
    assert [name for name, _ in log] == ["r1", "w", "r2"]


def test_deadlock_detected_not_blocked():
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    caught = []

    def txn1():
        yield from locks.acquire(1, 10, LockMode.EXCLUSIVE)
        yield env.timeout(1.0)
        yield from locks.acquire(1, 20, LockMode.EXCLUSIVE)

    def txn2():
        yield from locks.acquire(2, 20, LockMode.EXCLUSIVE)
        yield env.timeout(2.0)
        try:
            yield from locks.acquire(2, 10, LockMode.EXCLUSIVE)
        except DeadlockError as exc:
            caught.append(exc.txn_id)
            locks.release_all(2)

    env.process(txn1())
    env.process(txn2())
    env.run()
    assert caught == [2]
    assert locks.deadlocks_detected == 1


def test_three_way_deadlock_detected():
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    caught = []

    def txn(me, first, second, delay):
        yield from locks.acquire(me, first, LockMode.EXCLUSIVE)
        yield env.timeout(delay)
        try:
            yield from locks.acquire(me, second, LockMode.EXCLUSIVE)
        except DeadlockError:
            caught.append(me)
            locks.release_all(me)

    env.process(txn(1, 10, 20, 1.0))
    env.process(txn(2, 20, 30, 1.0))
    env.process(txn(3, 30, 10, 2.0))
    env.run()
    assert caught == [3]


def test_release_all_wakes_multiple_readers():
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    log = []
    run_acquire(env, locks, 1, 7, LockMode.EXCLUSIVE, log, "w")
    run_acquire(env, locks, 2, 7, LockMode.SHARED, log, "r1")
    run_acquire(env, locks, 3, 7, LockMode.SHARED, log, "r2")
    env.run(until=1.0)
    locks.release_all(1)
    env.run()
    assert {name for name, _ in log} == {"w", "r1", "r2"}


def test_release_without_locks_is_noop():
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    locks.release_all(99)  # must not raise
    assert not locks.holds(99, 1)
