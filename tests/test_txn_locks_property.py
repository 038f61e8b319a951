"""Property-based tests for the lock manager invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.txn.locks import (
    DeadlockError,
    LockManager,
    LockMode,
    WaitForGraph,
)

# A schedule step: (txn 0..3, page 0..2, exclusive?, hold time).
steps = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.booleans(),
        st.floats(min_value=0.1, max_value=5.0),
    ),
    min_size=1,
    max_size=25,
)


@given(steps)
@settings(max_examples=80, deadline=None)
def test_property_no_conflicting_holders(schedule):
    """At no point may an X lock coexist with any other lock on a page,
    and every transaction terminates (commit or deadlock abort)."""
    env = Environment()
    locks = LockManager(env, WaitForGraph())
    finished = []

    by_txn = {}
    for txn_id, page, exclusive, hold in schedule:
        by_txn.setdefault(txn_id, []).append((page, exclusive, hold))

    def check_invariant():
        for page, state in locks._locks.items():
            modes = list(state.holders.values())
            if LockMode.EXCLUSIVE in modes:
                assert len(modes) == 1, (
                    f"X lock shared on page {page}: {state.holders}"
                )

    def worker(txn_id, ops):
        try:
            for page, exclusive, hold in ops:
                mode = (
                    LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
                )
                yield from locks.acquire(txn_id, page, mode)
                check_invariant()
                yield env.timeout(hold)
                check_invariant()
        except DeadlockError:
            pass
        finally:
            locks.release_all(txn_id)
            finished.append(txn_id)

    for txn_id, ops in by_txn.items():
        env.process(worker(txn_id, ops))
    env.run()
    assert sorted(finished) == sorted(by_txn)
    # Everything released: the lock table is empty.
    assert not locks._locks


@given(steps)
@settings(max_examples=50, deadline=None)
def test_property_all_grants_are_recorded(schedule):
    """A transaction that acquired a lock holds it until release_all."""
    env = Environment()
    locks = LockManager(env, WaitForGraph())

    by_txn = {}
    for txn_id, page, exclusive, hold in schedule:
        by_txn.setdefault(txn_id, []).append((page, exclusive))

    def worker(txn_id, ops):
        acquired = set()
        try:
            for page, exclusive in ops:
                mode = (
                    LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
                )
                yield from locks.acquire(txn_id, page, mode)
                acquired.add(page)
                for held_page in acquired:
                    assert locks.holds(txn_id, held_page)
                yield env.timeout(0.5)
        except DeadlockError:
            pass
        finally:
            locks.release_all(txn_id)
            for page in acquired:
                assert not locks.holds(txn_id, page)

    for txn_id, ops in by_txn.items():
        env.process(worker(txn_id, ops))
    env.run()
