"""Block-drawn arrival front-end: draw-order equivalence properties.

The contract under test (see :mod:`repro.workload.blockgen`): for any
block size and any refill point, variates consumed through the block
columns are bit-identical to the ones the sequential front-end would
have drawn from the same stream — and the per-node dispatcher
reproduces the reference per-(node, class) coroutines' arrival trace
exactly, including across mid-run spec changes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.workload.blockgen import (
    DEFAULT_BLOCK,
    ExponentialColumn,
    NodeDispatcher,
    ZipfColumn,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import ClassSpec, WorkloadSpec
from repro.workload.trace import TraceRecorder
from repro.workload.zipf import ZipfSampler
from tests.frontend_reference import reference_operation
from tests.workload_reference import zipf_sample


# -- column-level equivalence (Hypothesis) --------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 257),
    offset=st.integers(0, 40),
    n=st.integers(1, 600),
    lambd=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
)
def test_exponential_block_matches_sequential(seed, block, offset, n, lambd):
    """Block-drawn gaps == expovariate, any block size / stream state."""
    seq_rng = random.Random(seed)
    blk_rng = random.Random(seed)
    # Advance both streams to an arbitrary offset first: the column
    # must resume the exact sequence from wherever the stream stands.
    expected = [seq_rng.expovariate(lambd) for _ in range(offset + n)][offset:]
    for _ in range(offset):
        blk_rng.expovariate(lambd)
    column = ExponentialColumn(blk_rng, block=block)
    got = [column.next_neglog() / lambd for _ in range(n)]
    assert got == expected  # bit-identical, not approx


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 257),
    n=st.integers(1, 600),
    num_items=st.integers(1, 50),
    theta=st.floats(0.0, 1.5, allow_nan=False),
)
def test_zipf_block_matches_sequential(seed, block, n, num_items, theta):
    """Block-drawn ranks == sampler.sample, any block size."""
    sampler = ZipfSampler(num_items, theta)
    seq_rng = random.Random(seed)
    expected = [zipf_sample(sampler, seq_rng) for _ in range(n)]
    column = ZipfColumn(random.Random(seed), sampler, block=block)
    got = [column.next_rank() for _ in range(n)]
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 257),
    n=st.integers(2, 400),
    switch=st.data(),
    items_a=st.integers(1, 40),
    items_b=st.integers(1, 40),
    theta_a=st.floats(0.0, 1.2, allow_nan=False),
    theta_b=st.floats(0.0, 1.2, allow_nan=False),
)
def test_zipf_retarget_matches_sequential_switch(
    seed, block, n, switch, items_a, items_b, theta_a, theta_b
):
    """A mid-block sampler change re-maps only the unconsumed tail.

    Sequentially, every draw goes through the sampler in force at
    consumption time; retargeting the column at the same consumption
    index must yield the identical rank sequence.
    """
    cut = switch.draw(st.integers(0, n))
    sampler_a = ZipfSampler(items_a, theta_a)
    sampler_b = ZipfSampler(items_b, theta_b)
    seq_rng = random.Random(seed)
    expected = [zipf_sample(sampler_a, seq_rng) for _ in range(cut)]
    expected += [zipf_sample(sampler_b, seq_rng) for _ in range(n - cut)]
    column = ZipfColumn(random.Random(seed), sampler_a, block=block)
    got = [column.next_rank() for _ in range(cut)]
    column.retarget(sampler_b)
    got += [column.next_rank() for _ in range(n - cut)]
    assert got == expected


def test_column_block_size_validation():
    with pytest.raises(ValueError):
        ExponentialColumn(random.Random(0), block=0)
    with pytest.raises(ValueError):
        ZipfColumn(random.Random(0), ZipfSampler(4, 0.5), block=0)


def test_sample_from_uniform_matches_sample():
    sampler = ZipfSampler(17, 0.9)
    rng_a, rng_b = random.Random(7), random.Random(7)
    for _ in range(500):
        u = rng_a.random()
        assert sampler.sample_from_uniform(u) == zipf_sample(sampler, rng_b)


# -- dispatcher vs. sequential reference front-end ------------------


def _workload():
    return WorkloadSpec(classes=[
        ClassSpec(class_id=0, goal_ms=None, pages=tuple(range(0, 40)),
                  skew=0.8, pages_per_op=3, arrival_rate_per_node=0.004),
        ClassSpec(class_id=1, goal_ms=50.0, pages=tuple(range(40, 90)),
                  skew=0.5, pages_per_op=2, arrival_rate_per_node=0.006),
        ClassSpec(class_id=2, goal_ms=80.0, pages=tuple(range(60, 120)),
                  pages_per_op=4, arrival_rate_per_node=0.002),
    ])


def _reference_arrivals(generator, node_id, class_spec):
    """Sequential reference front-end for one (node, class) pair.

    The classic per-(node, class) coroutine the block-drawn dispatcher
    replaced, kept as the executable specification of the draw-order
    contract: the dispatcher must reproduce its arrival trace exactly.
    """
    env = generator.cluster.env
    rng = generator.cluster.rng
    class_id = class_spec.class_id
    arrival_stream = f"arrivals/n{node_id}/c{class_id}"
    page_stream = f"pages/n{node_id}/c{class_id}"
    while True:
        # Re-read the spec every iteration so evolving workloads
        # (changed arrival rates or page sets, §7.2) take effect
        # on running streams.
        spec = generator.spec.spec_for(class_id)
        picker = generator._picker_for(spec)
        delay = rng.exponential(
            arrival_stream, 1.0 / spec.rate_for(node_id)
        )
        yield env.timeout(delay)
        pages = [
            picker.pages[
                zipf_sample(picker.sampler, rng.stream(page_stream))
            ]
            for _ in range(spec.pages_per_op)
        ]
        env.process(reference_operation(generator, node_id, spec, pages))


def _build(config, start_reference, block=DEFAULT_BLOCK):
    cluster = Cluster(config, seed=11)
    recorder = TraceRecorder()
    generator = WorkloadGenerator(cluster, _workload(), recorder=recorder)
    if start_reference:
        # The classic front-end: one coroutine per (node, class).
        for class_spec in generator.spec.classes:
            for node_id in range(cluster.num_nodes):
                cluster.env.process(
                    _reference_arrivals(generator, node_id, class_spec)
                )
    else:
        for node_id in range(cluster.num_nodes):
            NodeDispatcher(generator, node_id, block=block)
    return cluster, generator, recorder


@pytest.mark.parametrize("block", [1, 3, DEFAULT_BLOCK])
def test_dispatcher_trace_identical_to_reference(fast_config, block):
    ref_cluster, _, ref_rec = _build(fast_config, start_reference=True)
    blk_cluster, _, blk_rec = _build(
        fast_config, start_reference=False, block=block
    )
    ref_cluster.env.run(until=30_000.0)
    blk_cluster.env.run(until=30_000.0)
    assert ref_rec.records  # the horizon produced work
    assert blk_rec.records == ref_rec.records


def test_dispatcher_trace_identical_across_spec_change(fast_config):
    """Mid-run rate / page-set / goal changes keep the traces equal."""

    def evolve(generator):
        old = generator.spec
        generator.spec = WorkloadSpec(classes=[
            # class 0: arrival rate doubled (rescales pending gaps)
            ClassSpec(class_id=0, goal_ms=None, pages=old.classes[0].pages,
                      skew=0.8, pages_per_op=3,
                      arrival_rate_per_node=0.008),
            # class 1: new page set and skew (retargets rank columns)
            ClassSpec(class_id=1, goal_ms=50.0,
                      pages=tuple(range(100, 130)), skew=0.2,
                      pages_per_op=2, arrival_rate_per_node=0.006),
            # class 2: goal-only clone (same distribution object-for-
            # object — the picker must be reused, not rebuilt)
            ClassSpec(class_id=2, goal_ms=40.0, pages=old.classes[2].pages,
                      pages_per_op=4, arrival_rate_per_node=0.002),
        ])

    ref_cluster, ref_gen, ref_rec = _build(fast_config, start_reference=True)
    blk_cluster, blk_gen, blk_rec = _build(fast_config, start_reference=False)
    ref_cluster.env.run(until=15_000.0)
    blk_cluster.env.run(until=15_000.0)
    evolve(ref_gen)
    evolve(blk_gen)
    ref_cluster.env.run(until=40_000.0)
    blk_cluster.env.run(until=40_000.0)
    assert ref_rec.records
    assert blk_rec.records == ref_rec.records
    # The evolved trace actually exercised the new page set.
    new_pages = set(range(100, 130))
    assert any(
        set(r.pages) & new_pages for r in blk_rec.records if r.class_id == 1
    )


def test_start_uses_dispatcher_and_matches_reference(fast_config):
    """WorkloadGenerator.start() is wired to the block front-end."""
    ref_cluster, _, ref_rec = _build(fast_config, start_reference=True)
    cluster = Cluster(fast_config, seed=11)
    recorder = TraceRecorder()
    generator = WorkloadGenerator(cluster, _workload(), recorder=recorder)
    generator.start()
    ref_cluster.env.run(until=30_000.0)
    cluster.env.run(until=30_000.0)
    assert recorder.records == ref_rec.records


# -- picker / alias memoization (regression) ------------------------


def test_alias_tables_memoized_across_samplers():
    a = ZipfSampler(123, 0.77)
    b = ZipfSampler(123, 0.77)
    assert a._accept is b._accept and a._alias is b._alias
    c = ZipfSampler(123, 0.78)
    assert c._accept is not a._accept


def test_picker_reused_across_goal_clones(fast_config):
    """with_goal clones must not rebuild the page picker."""
    cluster = Cluster(fast_config, seed=0)
    spec = _workload()
    generator = WorkloadGenerator(cluster, spec)
    original = spec.spec_for(1)
    picker = generator._picker_for(original)
    clone = spec.with_goal(1, 123.0).spec_for(1)
    assert clone is not original
    assert generator._picker_for(clone) is picker
    # ...and the cache rebinds so the identity fast path now hits.
    assert generator._pickers[1][0] is clone


def test_picker_rebuilt_on_distribution_change(fast_config):
    cluster = Cluster(fast_config, seed=0)
    spec = _workload()
    generator = WorkloadGenerator(cluster, spec)
    picker = generator._picker_for(spec.spec_for(1))
    changed = ClassSpec(class_id=1, goal_ms=50.0,
                        pages=tuple(range(200, 250)), skew=0.5,
                        pages_per_op=2, arrival_rate_per_node=0.006)
    rebuilt = generator._picker_for(changed)
    assert rebuilt is not picker
    assert list(rebuilt.pages) == list(range(200, 250))
