"""Unit tests for the fault spec grammar and deterministic schedules."""

import itertools

import pytest

from repro.faults import FaultSchedule
from repro.faults.schedule import SCHEDULE_STREAM, _parse_clause
from repro.sim.rng import RandomStreams


# -- grammar ----------------------------------------------------------


def test_parse_one_shot_crash_with_defaults():
    clause = _parse_clause("crash@5000")
    assert clause.kind == "crash"
    assert clause.time_ms == 5000.0
    assert not clause.periodic
    assert clause.node == "any"
    assert clause.restart_delay_ms == 2000.0


def test_parse_one_shot_with_options():
    clause = _parse_clause("crash@1000:node=2:restart=500")
    assert clause.node == 2
    assert clause.restart_delay_ms == 500.0


def test_parse_periodic_clause():
    clause = _parse_clause("netloss:every=10000:start=4000:p=0.5:dur=2000")
    assert clause.periodic
    assert clause.every_ms == 10000.0
    assert clause.start_ms == 4000.0
    assert clause.probability == 0.5
    assert clause.duration_ms == 2000.0


def test_parse_netdelay_and_diskslow_defaults():
    delay = _parse_clause("netdelay@1")
    assert delay.extra_ms == 1.0
    assert delay.duration_ms == 5000.0
    slow = _parse_clause("diskslow@1:factor=8")
    assert slow.factor == 8.0
    assert slow.node == "any"


def test_parse_coordcrash_with_defaults():
    clause = _parse_clause("coordcrash@8000")
    assert clause.kind == "coordcrash"
    assert clause.time_ms == 8000.0
    assert clause.duration_ms == 5000.0
    assert clause.node is None
    assert clause.nodes is None


def test_parse_partition_node_list():
    clause = _parse_clause("partition@4000:nodes=2,0:dur=3000")
    assert clause.kind == "partition"
    assert clause.nodes == (2, 0)
    assert clause.duration_ms == 3000.0


def test_parse_partition_defaults_to_any():
    clause = _parse_clause("partition@4000")
    assert clause.nodes == "any"
    assert clause.duration_ms == 5000.0


def test_parse_spec_splits_on_semicolons():
    schedule = FaultSchedule.parse(
        "crash@1000; netloss@2000:p=0.1 ;; diskslow@3000"
    )
    assert len(schedule.clauses) == 3
    assert [c.kind for c in schedule.clauses] == [
        "crash", "netloss", "diskslow",
    ]


@pytest.mark.parametrize("bad", [
    "explode@1000",              # unknown kind
    "crash",                     # neither @TIME nor every=
    "crash@abc",                 # non-numeric time
    "crash@1000:p=0.5",          # key not allowed for kind
    "netloss@1000:p=1.5",        # probability out of range
    "diskslow@1000:factor=0.5",  # slowdown below 1
    "crash@1000:node=-1",        # negative node
    "crash@1000:node",           # malformed option
    "netloss:every=0",           # non-positive period
    "coordcrash@1000:dur=0",     # zero-length outage
    "coordcrash@1000:dur=-5",    # negative duration
    "netloss@1000:dur=0",        # zero-length episode
    "coordcrash@1000:node=0",    # coordcrash has no node key
    "partition@1000:nodes=0,x",  # non-integer node in the list
    "partition@1000:nodes=1,1",  # duplicate node in the list
    "partition@1000:nodes=-2",   # negative node in the list
    "partition@1000:p=0.5",      # key not allowed for kind
])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        FaultSchedule.parse(bad)


@pytest.mark.parametrize("bad,fragment", [
    ("coordcrash@1000:dur=0", "dur must be a positive number"),
    ("coordcrash@1000:node=0", "allowed: dur"),
    ("partition@1000:nodes=0,x", "comma-separated"),
    ("partition@1000:nodes=1,1", "lists node 1 twice"),
    ("explode@1000", "unknown fault kind"),
])
def test_rejection_messages_name_the_problem(bad, fragment):
    with pytest.raises(ValueError, match=fragment):
        FaultSchedule.parse(bad)


# -- crash-window overlap validation ----------------------------------


def test_overlapping_coordcrash_windows_rejected():
    with pytest.raises(ValueError, match="overlapping crash windows"):
        FaultSchedule.parse(
            "coordcrash@1000:dur=5000;coordcrash@3000:dur=1000"
        )


def test_overlapping_node_crash_windows_rejected():
    with pytest.raises(ValueError, match="node 2"):
        FaultSchedule.parse(
            "crash@1000:node=2:restart=4000;crash@2000:node=2:restart=100"
        )


def test_disjoint_and_cross_target_windows_accepted():
    # Back-to-back windows (end == next start) do not overlap, and
    # different targets never conflict.
    schedule = FaultSchedule.parse(
        "coordcrash@1000:dur=2000;coordcrash@3000:dur=1000;"
        "crash@1500:node=0:restart=500;crash@1500:node=1:restart=500"
    )
    assert len(schedule.clauses) == 4


def test_node_any_crashes_exempt_from_overlap_check():
    # 'any' resolves per occurrence at event time; the parser cannot
    # know the target, so these must parse.
    schedule = FaultSchedule.parse(
        "crash@1000:node=any:restart=9000;crash@2000:node=any:restart=9000"
    )
    assert len(schedule.clauses) == 2


# -- partition / coordcrash event resolution --------------------------


def test_partition_nodes_resolved_and_validated():
    events = list(FaultSchedule.parse(
        "partition@1000:nodes=0,2:dur=100"
    ).events(RandomStreams(0), num_nodes=3))
    assert events[0].nodes == (0, 2)
    with pytest.raises(ValueError):
        list(FaultSchedule.parse("partition@1:nodes=5").events(
            RandomStreams(0), num_nodes=3
        ))


def test_partition_any_draws_one_seeded_node():
    spec = "partition:every=1000:nodes=any:dur=10"
    drawn = {
        e.nodes
        for e in itertools.islice(
            FaultSchedule.parse(spec).events(RandomStreams(5), 4), 16
        )
    }
    assert all(len(nodes) == 1 and 0 <= nodes[0] < 4 for nodes in drawn)
    assert len(drawn) > 1


# -- event generation -------------------------------------------------


def test_one_shot_events_in_time_order():
    schedule = FaultSchedule.parse(
        "diskslow@9000:node=1;crash@3000:node=0;netloss@6000"
    )
    events = list(schedule.events(RandomStreams(0), num_nodes=3))
    assert [e.kind for e in events] == ["crash", "netloss", "diskslow"]
    assert [e.time_ms for e in events] == [3000.0, 6000.0, 9000.0]


def test_periodic_clause_is_infinite_and_spaced():
    schedule = FaultSchedule.parse("crash:every=5000:node=0:restart=1")
    events = schedule.events(RandomStreams(0), num_nodes=3)
    first_four = list(itertools.islice(events, 4))
    assert [e.time_ms for e in first_four] == [
        5000.0, 10000.0, 15000.0, 20000.0,
    ]


def test_same_seed_same_events():
    spec = "crash:every=7000:jitter=2000;netloss@10000;diskslow:every=9000"
    a = list(itertools.islice(
        FaultSchedule.parse(spec).events(RandomStreams(42), 4), 20
    ))
    b = list(itertools.islice(
        FaultSchedule.parse(spec).events(RandomStreams(42), 4), 20
    ))
    assert a == b


def test_different_seed_changes_node_draws():
    spec = "crash:every=1000:node=any:restart=1"
    nodes = [
        tuple(
            e.node for e in itertools.islice(
                FaultSchedule.parse(spec).events(RandomStreams(s), 8), 16
            )
        )
        for s in range(6)
    ]
    assert len(set(nodes)) > 1


def test_node_any_resolved_within_cluster():
    spec = "crash:every=1000:node=any:restart=1"
    for event in itertools.islice(
        FaultSchedule.parse(spec).events(RandomStreams(7), 3), 32
    ):
        assert 0 <= event.node < 3


def test_explicit_node_out_of_range_rejected_at_resolution():
    schedule = FaultSchedule.parse("crash@1000:node=5")
    with pytest.raises(ValueError):
        list(schedule.events(RandomStreams(0), num_nodes=3))


def test_schedule_uses_dedicated_stream():
    # Resolving a schedule must never touch workload streams: all
    # randomness comes from the faults/schedule stream.
    rng = RandomStreams(3)
    arrivals = rng.stream("arrivals/0")
    before = arrivals.getstate()
    list(itertools.islice(
        FaultSchedule.parse("crash:every=100:jitter=50").events(rng, 3), 10
    ))
    assert arrivals.getstate() == before
    assert SCHEDULE_STREAM in rng._streams
