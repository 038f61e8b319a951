"""Handler-driven arrival front-end vs. its process-based reference.

``WorkloadGenerator.start`` runs one :class:`NodeDispatcher` handler per
node and starts read-only operations as fetch-chain runs owned by the
generator — no process, generator frame or start/termination event per
operation.  The reference in ``tests/frontend_reference.py`` is the
front-end as processes: a dispatcher process per node spawning one
operation process per arrival.  Both must produce the same arrivals,
completions (time and response time), per-level access counts and
recorded trace — under a mid-run spec change, with a writing class run
as transactions, and with an origin node crashing so operations stall
in the fetch chain.  Every event pushed onto the kernel heap must be
pushed in the same order, except the start and termination events of
processes; the kernel's sequence counter therefore drops by design.
"""

import heapq

import pytest

from repro.bufmgr.costs import LEVEL_ORDER
from repro.cluster.cluster import Cluster, _FetchChain
from repro.faults import FaultInjector, FaultSchedule
from repro.txn.manager import TransactionManager
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import ClassSpec, WorkloadSpec
from repro.workload.trace import TraceRecorder
from tests.frontend_reference import start_reference

#: Node 1 crashes at 6 s and serves nothing for 1.5 s: operations that
#: arrive there meanwhile stall in the chain's origin-node state.
FAULTS = "crash@6000:node=1:restart=1500;netdelay@3000:extra=0.4:dur=4000"


class RecordingSink:
    def __init__(self):
        self.arrivals = []
        self.completions = []

    def on_arrival(self, node_id, class_id, now):
        self.arrivals.append((node_id, class_id, now))

    def on_complete(self, node_id, class_id, response_ms, now):
        self.completions.append((node_id, class_id, response_ms, now))


def _workload():
    return WorkloadSpec(classes=[
        ClassSpec(class_id=0, goal_ms=None, pages=tuple(range(0, 200)),
                  skew=0.8, pages_per_op=4, arrival_rate_per_node=0.015),
        ClassSpec(class_id=1, goal_ms=40.0, pages=tuple(range(200, 400)),
                  skew=0.5, pages_per_op=3, arrival_rate_per_node=0.01),
        ClassSpec(class_id=2, goal_ms=60.0, pages=tuple(range(100, 300)),
                  pages_per_op=2, arrival_rate_per_node=0.004,
                  write_fraction=0.3),
    ])


def _evolve(generator):
    old = generator.spec
    generator.spec = WorkloadSpec(classes=[
        # faster arrivals, same pages
        ClassSpec(class_id=0, goal_ms=None, pages=old.classes[0].pages,
                  skew=0.8, pages_per_op=4, arrival_rate_per_node=0.025),
        # new page set (shared with class 0), skew and run length
        ClassSpec(class_id=1, goal_ms=25.0, pages=tuple(range(50, 180)),
                  skew=0.2, pages_per_op=5, arrival_rate_per_node=0.01),
        old.classes[2],
    ])


def _record_pushes(monkeypatch, cluster, pushes):
    """Log (time, priority, event type) of every push onto the kernel
    heap, leaving out process start and termination events."""
    queue = cluster.env._queue
    push = heapq.heappush

    def recording_push(heap, item):
        if heap is queue:
            kind = type(item[3]).__name__
            if kind not in ("Initialize", "Process"):
                pushes.append((item[0], item[1], kind))
        push(heap, item)

    monkeypatch.setattr(heapq, "heappush", recording_push)


def _run(fast_config, reference, faults, monkeypatch, pushes):
    cluster = Cluster(fast_config, seed=5)
    _record_pushes(monkeypatch, cluster, pushes)
    sink = RecordingSink()
    recorder = TraceRecorder()
    manager = TransactionManager(cluster)
    generator = WorkloadGenerator(
        cluster, _workload(), sink=sink, recorder=recorder,
        txn_manager=manager,
    )
    if faults:
        FaultInjector(cluster, FaultSchedule.parse(faults)).start()
    if reference:
        start_reference(generator)
    else:
        generator.start()
    cluster.env.run(until=9_000.0)
    _evolve(generator)
    cluster.env.run(until=16_000.0)
    outcome = {
        "now": cluster.env.now,
        "arrivals": sink.arrivals,
        "completions": sink.completions,
        "trace": recorder.records,
        "levels": [cluster.costs.observations(lv) for lv in LEVEL_ORDER],
        "counters": (
            generator.operations_started, generator.operations_completed,
        ),
        "txn": (manager.committed, manager.aborted),
        "disk_reads": [node.disk.reads for node in cluster.nodes],
    }
    return outcome, cluster.env._seq


@pytest.mark.parametrize("faults", [FAULTS, None], ids=["crash", "no-faults"])
def test_handler_front_end_matches_process_reference(
    fast_config, monkeypatch, faults
):
    stalls = []
    original = _FetchChain._next_page

    def spy(chain):
        original(chain)
        if chain._state == 10:
            stalls.append(chain._node_id)

    monkeypatch.setattr(_FetchChain, "_next_page", spy)
    ref_pushes, new_pushes = [], []
    ref, ref_seq = _run(fast_config, True, faults, monkeypatch, ref_pushes)
    ref_stalls = list(stalls)
    del stalls[:]
    new, new_seq = _run(fast_config, False, faults, monkeypatch, new_pushes)

    assert new == ref
    assert stalls == ref_stalls
    # The dispatcher pushes its next-arrival timeout before the new
    # operation's first hold, as the process front-end did.
    assert new_pushes == ref_pushes
    # The run exercised what the test is about.
    if faults:
        assert set(stalls) == {1}, "no operation stalled on the crashed node"
    else:
        assert not stalls
    assert new["txn"][0] > 0, "the writing class committed nothing"
    assert any(
        set(r.pages) & set(range(50, 180))
        for r in new["trace"] if r.class_id == 1
    ), "the evolved class 1 spec never took effect"
    # Reads in the mix: completions of all three classes.
    assert {c for _, c, _, _ in new["completions"]} == {0, 1, 2}
    # No start or termination event per read-only operation.
    assert new_seq < ref_seq


def test_exception_in_handler_operation_propagates(fast_config):
    """A failing read-only operation still aborts ``env.run``."""

    class FailingSink(RecordingSink):
        def on_complete(self, node_id, class_id, response_ms, now):
            raise RuntimeError("sink failed")

    cluster = Cluster(fast_config, seed=0)
    spec = WorkloadSpec(classes=[_workload().classes[0]])
    generator = WorkloadGenerator(cluster, spec, sink=FailingSink())
    generator.start()
    with pytest.raises(RuntimeError, match="sink failed"):
        cluster.env.run(until=5_000.0)
    assert generator.operations_completed == 1
