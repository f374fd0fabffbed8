"""Span freelist: recycled spans are fully re-initialised on reuse.

The zero-alloc tracer keeps consumed :class:`Span` objects on a shared
module-level pool; ``Tracer.begin`` must overwrite every slot so a
recycled span can never leak the previous trace's name, kind,
timestamps, tags or children into a new one.
"""

import gc
import itertools
import json
import tracemalloc

import pytest

from repro.obs import trace
from repro.obs.slo import REGISTRATION_SOJOURN_DEADLINE_MS
from repro.obs.trace import Span, Tracer, TraceStore, span_from_dict
from repro.sim.clock import SimClock


def _drain_pool():
    trace._SPAN_POOL.clear()


def test_recycle_returns_whole_tree_to_pool():
    _drain_pool()
    tracer = Tracer(SimClock())
    root = tracer.begin("registration", "registration")
    tracer.begin("nas", "nas")
    tracer.begin("ocall", "sgx.ocall")
    tracer.end(tracer._stack[-1])
    tracer.end(tracer._stack[-1])
    tracer.end(root)
    tracer.recycle(root)
    assert len(trace._SPAN_POOL) == 3
    assert tracer.roots == []


def test_recycled_span_never_leaks_prior_state():
    _drain_pool()
    clock = SimClock()
    tracer = Tracer(clock)

    first = tracer.begin("old-name", "old-kind", secret="hunter2", ue="ue-1")
    clock.advance(1_234)
    tracer.end(first, status=500)
    old_end = first.end_ns
    tracer.recycle(first)

    clock.advance(5_000)
    reused = tracer.begin("new-name", "new-kind", ue="ue-2")
    assert reused is first  # the pool actually served the recycled object
    assert reused.name == "new-name"
    assert reused.kind == "new-kind"
    assert reused.start_ns == clock.now_ns
    assert reused.end_ns == clock.now_ns
    assert reused.end_ns != old_end
    assert reused.tags == {"ue": "ue-2"}
    assert "secret" not in reused.tags
    assert "status" not in reused.tags
    assert reused.children == []
    tracer.end(reused)


def test_recycled_children_lists_are_emptied():
    _drain_pool()
    tracer = Tracer(SimClock())
    root = tracer.begin("root")
    child = tracer.begin("child")
    tracer.end(child)
    tracer.end(root)
    tracer.recycle(root)

    # Both spans sit in the pool with empty children; reusing one as a
    # fresh leaf must not resurrect the old parent/child edge.
    fresh_a = tracer.begin("a")
    fresh_b = tracer.begin("b")
    assert fresh_a.children == [fresh_b]
    assert fresh_b.children == []
    tracer.end(fresh_b)
    tracer.end(fresh_a)


def test_pool_is_capacity_bounded():
    _drain_pool()
    tracer = Tracer(SimClock())
    original_cap, trace._SPAN_POOL_CAP = trace._SPAN_POOL_CAP, 2
    try:
        for i in range(5):
            span = tracer.begin(f"r{i}")
            tracer.end(span)
        for root in list(tracer.roots):
            tracer.recycle(root)
        assert len(trace._SPAN_POOL) == 2
    finally:
        trace._SPAN_POOL_CAP = original_cap
        _drain_pool()


def test_pooled_begin_matches_constructed_span():
    _drain_pool()
    clock = SimClock()
    tracer = Tracer(clock)
    recycled = tracer.begin("x", "y", a=1)
    tracer.end(recycled)
    tracer.recycle(recycled)

    clock.advance(77)
    pooled = tracer.begin("same", "kind", tag="v")
    reference = Span("same", "kind", clock.now_ns, tag="v")
    assert pooled.name == reference.name
    assert pooled.kind == reference.kind
    assert pooled.start_ns == reference.start_ns
    assert pooled.end_ns == reference.end_ns
    assert pooled.tags == reference.tags
    assert pooled.children == reference.children
    tracer.end(pooled)


# ---------------------------------------------------------------- bursts
#
# A fused OCALL replay files its ``sgx.ocall`` leaves as one unread burst
# (``Tracer.ocall_burst``); they are built when ``children`` is first
# read and dropped unbuilt when the tree is recycled before that.


def _burst_templates(n):
    return [(f"sys{i}", 10, {"runtime": "rt", "shield_ns": 10}) for i in range(n)]


def _raw_spans(span):
    """Built spans of a tree, without reading (= expanding) anything."""
    yield span
    for child in span._children:
        if isinstance(child, Span):
            yield from _raw_spans(child)


def test_recycled_unread_bursts_never_resurface():
    _drain_pool()
    clock = SimClock()
    tracer = Tracer(clock, trace_seed=1)
    tracer.start_trace("imsi-1")
    root = tracer.begin("registration", "registration")
    window = tracer.begin("window", "L_T")
    tracer.ocall_burst(_burst_templates(5), [14, 27, 41, 55, 70])
    handler = tracer.begin("handler", "L_F")
    tracer.end(handler)
    tracer.ocall_burst(_burst_templates(3))
    tracer.end(window)
    tracer.ocall_burst(_burst_templates(2), [12, 25])
    tracer.end(root)
    tracer.end_trace()
    assert root._unread and window._unread
    tracer.recycle(root)

    # Only the three spans ever built went to the pool — no burst leaf was.
    assert len(trace._SPAN_POOL) == 3
    reused = [tracer.begin(f"fresh{i}") for i in range(3)]
    assert {id(span) for span in reused} == {id(root), id(window), id(handler)}
    for depth, span in enumerate(reused):
        assert not span._unread
        assert span.children == reused[depth + 1: depth + 2]
    for span in reversed(reused):
        tracer.end(span)


def test_burst_leaves_take_the_reserved_sequence_range():
    _drain_pool()
    clock = SimClock()
    clock.advance(1_000)
    tracer = Tracer(clock, trace_seed=1)
    trace_id = tracer.start_trace("imsi-1")
    root = tracer.begin("registration", "registration")
    tracer.ocall_burst(_burst_templates(3), [14, 27, 41])
    after = tracer.begin("after", "nas")
    tracer.end(after)
    tracer.end(root)
    assert after.span_id == trace.span_context_id(trace_id, 4)
    leaves = root.children[:3]
    assert [leaf.span_id for leaf in leaves] == [
        trace.span_context_id(trace_id, seq) for seq in (1, 2, 3)
    ]
    assert [(leaf.start_ns, leaf.end_ns) for leaf in leaves] == [
        (1_000, 1_014), (1_014, 1_027), (1_027, 1_041)
    ]
    assert [leaf.tags["transition_ns"] for leaf in leaves] == [4, 3, 4]
    assert all(leaf.parent_id == root.span_id for leaf in leaves)
    assert root.children[3] is after


def _traced_registrations(count):
    """``count`` fresh SGX registrations under an armed store-less tracer:
    the roots stay on the tracer, their OCALL bursts unread."""
    from repro.experiments.harness import warmed_testbed
    from repro.testbed import IsolationMode

    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    tracer = Tracer(testbed.host.clock, trace_seed=7)
    testbed.host.tracer = tracer
    for _ in range(count):
        outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
        assert outcome.success
    return testbed, tracer.roots


def test_every_consumer_reads_a_lazy_tree_like_its_dict_copy():
    from repro.obs.analytics import registration_breakdown
    from repro.obs.profile import fold_registration
    from repro.obs.trace import format_span_tree, span_from_dict

    def flat(span):
        return (
            span.name, span.kind, span.start_ns, span.end_ns, span.tags,
            span.trace_id, span.span_id, span.parent_id,
        )

    def fold(root):
        profile = fold_registration(root, **maps)
        return profile.stacks, profile.modules

    consumers = [
        lambda root: [flat(span) for span in root.walk()],
        lambda root: [flat(span) for span in root.find("sgx.ocall")],
        lambda root: [
            flat(window.child_of_kind("sgx.ocall") or window)
            for window in root.find("L_T")
        ],
        format_span_tree,
        lambda root: registration_breakdown(root, **maps),
        fold,
    ]
    testbed, lazy_roots = _traced_registrations(len(consumers))
    _, twin_roots = _traced_registrations(len(consumers))
    modules = testbed.paka.modules
    maps = {
        "module_servers": {name: m.server.name for name, m in modules.items()},
        "module_runtimes": {name: m.runtime.name for name, m in modules.items()},
    }
    for consume, lazy, twin in zip(consumers, lazy_roots, twin_roots):
        assert any(span._unread for span in _raw_spans(lazy))
        copy = span_from_dict(twin.to_dict())
        assert len(copy.find("sgx.ocall")) == 261
        assert consume(lazy) == consume(copy)


# ------------------------------------------------------------ kept trees
#
# A store keeps the tree the tracer built — bursts unread, ids unhashed —
# and serialises it on every read.  The oracle is the eager form that
# replaced: a twin run's root with every burst expanded into spans (it
# reads ``children``), ids hashed from the pre-order (= begin-order)
# index, one dict per span, in ``Span.to_dict``'s key order.


def store_dump(store):
    """A store's JSON-ready snapshot, records in offer order: every
    kept record read through ``TraceStore.get``, beside the counters."""
    return {
        "cap": store.cap,
        "sample_every": store.sample_every,
        "deadline_ms": REGISTRATION_SOJOURN_DEADLINE_MS,
        "seen": store.seen,
        "kept_tail": store.kept_tail,
        "kept_head": store.kept_head,
        "evicted": store.evicted,
        "records": [store.get(trace_id) for trace_id in store.trace_ids()],
    }


def _eager_dict(span, seqs=None, parent_id=None):
    seqs = itertools.count() if seqs is None else seqs
    traced = span.trace_id is not None
    span_id = trace.span_context_id(span.trace_id, next(seqs)) if traced else None
    payload = {
        "name": span.name,
        "kind": span.kind,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "tags": {key: span.tags[key] for key in sorted(span.tags)},
        "children": [_eager_dict(child, seqs, span_id) for child in span.children],
    }
    if traced:
        payload.update(trace_id=span.trace_id, span_id=span_id, parent_id=parent_id)
    return payload


_FLAVOURS = {
    "sgx": ("SGX", {}),
    "exitless": ("SGX", {"exitless": True}),  # bursts filed with ends=None
    "container": ("CONTAINER", {}),  # no bursts at all
}


def _three_registrations(flavour, trace_seed, store=None):
    """Two successful attaches and one the AMF sheds, under an armed
    tracer; returns the tracer and the three outcomes' success flags."""
    from repro.experiments.harness import warmed_testbed
    from repro.fivegc.admission import AdmissionConfig, AdmissionController
    from repro.testbed import IsolationMode

    isolation, config = _FLAVOURS[flavour]
    testbed = warmed_testbed(IsolationMode[isolation], seed=7, **config)
    tracer = Tracer(testbed.host.clock, trace_seed=trace_seed, store=store)
    testbed.host.tracer = tracer
    successes = [
        testbed.register(testbed.add_subscriber(), establish_session=False).success
    ]
    testbed.amf.admission = AdmissionController(
        AdmissionConfig(bucket_rate_per_s=0.001, bucket_burst=1.0)
    )
    for _ in range(2):
        outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
        successes.append(outcome.success)
    assert successes == [True, True, False]
    return tracer, successes


@pytest.mark.parametrize("trace_seed", [7, None], ids=["seeded", "unseeded"])
@pytest.mark.parametrize("flavour", list(_FLAVOURS))
def test_a_store_dump_is_the_eager_snapshot_byte_for_byte(flavour, trace_seed):
    _drain_pool()
    twin, _ = _three_registrations(flavour, trace_seed)
    eager = [_eager_dict(root) for root in twin.roots]
    assert len(eager) == 3
    nodes = [node for root in eager for node in span_from_dict(root).walk()]
    leaves = sum(node.kind == "sgx.ocall" for node in nodes)
    assert leaves == (0 if flavour == "container" else 2 * 261)  # none when shed

    store = TraceStore(cap=None, sample_every=1)
    tracer, successes = _three_registrations(flavour, trace_seed, store)
    if trace_seed is None:
        # No identity, so ``RootTrace.record`` files nothing; offer the
        # roots by hand (an id is only the store's key).
        assert len(store) == 0 and len(tracer.roots) == 3
        for index, (root, success) in enumerate(zip(tracer.roots, successes)):
            assert store.offer(
                root, f"{index:032x}", supi="imsi", attempt=1,
                success=success, sojourn_ns=root.ns,
            )
    else:
        assert tracer.roots == []  # kept trees left the tracer for the store
    assert (store.seen, store.kept_head, store.kept_tail) == (3, 2, 1)

    pool_before = list(trace._SPAN_POOL)
    first = json.dumps(store_dump(store), sort_keys=True)
    records = store_dump(store)["records"]
    assert [record["success"] for record in records] == successes
    for record, expected in zip(records, eager):
        # Unsorted too: the key order is ``Span.to_dict``'s.
        assert json.dumps(record["root"]) == json.dumps(expected)
        assert (record["start_ns"], record["end_ns"], record["duration_ns"]) == (
            expected["start_ns"], expected["end_ns"],
            expected["end_ns"] - expected["start_ns"],
        )
        assert store.get(record["trace_id"]) == record
        assert span_from_dict(record["root"]).to_dict() == record["root"]
    assert store.get("f" * 32) is None

    # A read is only a read: the kept trees are still the tracer's
    # (bursts unread, no leaf span built), the freelist is untouched, a
    # second dump is the first and leaves the heap where it was.
    stored_spans = [
        span for record in store.records.values()
        for span in _raw_spans(record["root"])
    ]
    assert len(stored_spans) == len(nodes) - leaves
    assert not any(span.kind == "sgx.ocall" for span in stored_spans)
    bursts = [
        child for span in stored_spans for child in span._children
        if child.__class__ is trace._OcallBurst
    ]
    assert len(bursts) == (0 if flavour == "container" else 2 * 9)
    assert sum(len(burst.templates) for burst in bursts) == leaves
    assert all((burst.ends is None) == (flavour == "exitless") for burst in bursts)
    assert not {id(span) for span in stored_spans} & {id(s) for s in trace._SPAN_POOL}
    assert trace._SPAN_POOL == pool_before
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        second = json.dumps(store_dump(store), sort_keys=True)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before - len(second)
    finally:
        tracemalloc.stop()
    assert second == first
    assert growth < 4096  # three trees of ≈220 kB of dicts came and went


def test_reading_a_kept_record_leaves_the_freelist_to_the_next_begin():
    _drain_pool()
    store = TraceStore(cap=None, sample_every=1)
    tracer, _ = _three_registrations("sgx", 7, store)
    # Give the freelist something to hand out: an unstored tree, recycled.
    with tracer.trace("probe", "attack"):
        with tracer.begin("inner"):
            pass
    pool_before = list(trace._SPAN_POOL)
    assert len(pool_before) == 2
    for trace_id in store.trace_ids():
        assert store.get(trace_id)["root"]["children"]
    store_dump(store)
    assert trace._SPAN_POOL == pool_before
    fresh = tracer.begin("next")
    assert fresh is pool_before[-1]
    assert fresh.children == [] and fresh.trace_id is None and fresh.span_id is None
    tracer.end(fresh)


def test_eviction_follows_the_policy_and_returns_the_tree_to_the_freelist():
    def offer(store, tracer, trace_id, success=True, sojourn_ns=1):
        root = tracer.begin("registration", "registration")
        child = tracer.begin("nas", "nas")
        tracer.ocall_burst(_burst_templates(4), [11, 23, 36, 50])
        tracer.end(child)
        tracer.end(root)
        tracer.roots.remove(root)
        kept = store.offer(
            root, trace_id, supi="imsi", attempt=1,
            success=success, sojourn_ns=sojourn_ns,
        )
        return root, child, kept

    _drain_pool()
    tracer = Tracer(SimClock())
    store = TraceStore(cap=2, sample_every=2)
    head, tail, skip = "00000002" + "0" * 24, "00000003" + "a" * 24, "00000005" + "0" * 24
    _, _, kept = offer(store, tracer, skip)
    assert not kept and trace._SPAN_POOL == []  # declined: the caller's to recycle
    failed_root, failed_child, _ = offer(store, tracer, tail, success=False)
    head_root, head_child, _ = offer(store, tracer, head)
    assert trace._SPAN_POOL == []
    # Over the cap: the oldest head sample goes, not the older tail record
    # — and what goes back to the freelist is its two begun spans, the
    # burst dropped unbuilt.
    _, _, kept = offer(store, tracer, head[:-1] + "2", sojourn_ns=9**9)
    assert kept and store.trace_ids() == [tail, head[:-1] + "2"]
    assert {id(span) for span in trace._SPAN_POOL} == {id(head_root), id(head_child)}
    assert head_root._children == [] and not head_child._unread
    # No head sample left: the oldest record overall goes.
    _, _, kept = offer(store, tracer, head[:-1] + "4", success=False)
    assert kept and store.trace_ids() == [head[:-1] + "2", head[:-1] + "4"]
    assert {id(failed_root), id(failed_child)} <= {id(s) for s in trace._SPAN_POOL}
    assert (store.seen, store.kept_tail, store.kept_head, store.evicted) == (5, 3, 1, 2)
    # What is left still dumps whole.
    for record in store_dump(store)["records"]:
        assert len(record["root"]["children"][0]["children"]) == 4
