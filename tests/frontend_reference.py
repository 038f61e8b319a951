"""Process-based reference of the open-system arrival front-end.

The executable specification of :class:`repro.workload.blockgen.NodeDispatcher`
and of the handler-driven operations of
:class:`repro.workload.generator.WorkloadGenerator`: one dispatcher
*process* per node that spawns one operation *process* per arrival,
each running its pages through ``Cluster.access_run``.  The handler
front-end must reproduce its arrival trace, completion times, response
times and access counts exactly; only the kernel's sequence counter
differs, because the reference pays a start and a termination event
per operation.
"""

from repro.sim.engine import pooled_timeout_at
from repro.workload.blockgen import DEFAULT_BLOCK, ClassStream


def reference_operation(generator, node_id, class_spec, pages):
    """Process: one operation, as the generator ran it before handlers."""
    if class_spec.write_fraction > 0 and generator.txn_manager is not None:
        # The transaction process counts, reports and records the
        # operation itself.
        yield from generator._transactional_operation(
            node_id, class_spec, pages
        )
        return
    env = generator.cluster.env
    started = env.now
    generator.operations_started += 1
    generator.sink.on_arrival(node_id, class_spec.class_id, started)
    if generator.recorder is not None:
        generator.recorder.record(
            started, node_id, class_spec.class_id, tuple(pages)
        )
    yield from generator.cluster.access_run(
        node_id, pages, class_spec.class_id
    )
    response = env.now - started
    generator.operations_completed += 1
    generator.sink.on_complete(
        node_id, class_spec.class_id, response, env.now
    )


def reference_dispatcher(generator, node_id, block=DEFAULT_BLOCK):
    """Process: merged block-drawn arrival front-end for one node.

    Each wake-up lands on a precomputed absolute timestamp, spawns
    exactly one operation process, then sleeps to the earliest pending
    arrival across the node's classes (ties go to the class listed
    first in the workload spec).
    """
    env = generator.cluster.env
    streams = [
        ClassStream(generator, node_id, class_spec, env._now, block)
        for class_spec in generator.spec.classes
    ]
    if not streams:
        return
    while True:
        stream = streams[0]
        when = stream.next_t
        for other in streams:
            if other.next_t < when:
                stream = other
                when = other.next_t
        yield pooled_timeout_at(env, when)
        spec = stream.spec
        page_ids = stream.picker.pages
        column = stream.pages
        pages = [
            page_ids[column.next_rank()]
            for _ in range(spec.pages_per_op)
        ]
        env.process(reference_operation(generator, node_id, spec, pages))
        stream.rebind(generator, node_id)
        stream.next_t = env._now + stream.gaps.next_neglog() / stream.lambd


def start_reference(generator, block=DEFAULT_BLOCK):
    """Start the reference front-end in place of ``generator.start()``."""
    if not generator.spec.classes:
        return
    env = generator.cluster.env
    for node_id in range(generator.cluster.num_nodes):
        env.process(reference_dispatcher(generator, node_id, block))
