"""Span trees from begin to drop: OCALL bursts, kept and dropped trees.

A fused OCALL replay files its ``sgx.ocall`` leaves as one unread burst;
every reader of ``children`` (a dump included) builds them into spans in
place.  A tree a ``TraceStore`` declines or evicts is dropped and freed
by refcount: nothing else holds a span.
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


# ---------------------------------------------------------------- bursts
#
# A fused OCALL replay files its ``sgx.ocall`` leaves as one unread burst
# (``Tracer.ocall_burst``); they are built when ``children`` is first
# read and dropped unbuilt with a tree nobody read.


def _burst_templates(n):
    return [(f"sys{i}", 10, {"runtime": "rt", "shield_ns": 10}) for i in range(n)]


def _raw_spans(span):
    """Built spans of a tree, without reading (= expanding) anything."""
    yield span
    for child in span._children:
        if isinstance(child, Span):
            yield from _raw_spans(child)


def test_burst_leaves_take_the_reserved_sequence_range():
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
# and serialises it on every read, building its bursts on the first.  The
# oracle is the eager form that
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
    twin, _ = _three_registrations(flavour, trace_seed)
    eager = [_eager_dict(root) for root in twin.roots]
    assert len(eager) == 3
    nodes = [node for root in eager for node in span_from_dict(root).walk()]
    leaves = sum(node.kind == "sgx.ocall" for node in nodes)
    assert leaves == (0 if flavour == "container" else 2 * 261)  # none when shed

    store = TraceStore(sample_every=1)
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

    # Until it is read, a kept tree is the tracer's: bursts unread, no
    # leaf span built.
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

    # The first read built every leaf in place; a second dump is the
    # first and leaves the heap where it was.
    built = [
        span for record in store.records.values()
        for span in _raw_spans(record["root"])
    ]
    assert len(built) == len(nodes)
    assert not any(span._unread for span in built)
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


def test_a_dropped_tree_leaves_no_span_behind():
    """Declined and evicted trees are freed by refcount: every live span
    the tracer began is one the store or ``tracer.roots`` still holds."""
    from repro.experiments.harness import warmed_testbed
    from repro.testbed import IsolationMode

    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    store = TraceStore(cap=1, sample_every=4)
    tracer = Tracer(testbed.host.clock, trace_seed=7, store=store)
    testbed.host.tracer = tracer
    for _ in range(24):
        assert testbed.register(testbed.add_subscriber(), establish_session=False).success
    with tracer.trace("probe", "attack"):  # no SUPI: dropped as it closes
        with tracer.begin("inner"):
            pass
    assert store.seen == 24 and 0 < store.evicted < store.seen - len(store)  # some declined
    held = {
        id(span)
        for root in [record["root"] for record in store.records.values()] + tracer.roots
        for span in _raw_spans(root)
    }
    alive = {
        id(obj) for obj in gc.get_objects()
        if obj.__class__ is Span and obj.tracer is tracer
    }
    assert held and alive == held


def test_eviction_follows_the_policy():
    def offer(store, tracer, trace_id, success=True, sojourn_ns=1):
        root = tracer.begin("registration", "registration")
        child = tracer.begin("nas", "nas")
        tracer.ocall_burst(_burst_templates(4), [11, 23, 36, 50])
        tracer.end(child)
        tracer.end(root)
        tracer.roots.remove(root)
        return store.offer(
            root, trace_id, supi="imsi", attempt=1,
            success=success, sojourn_ns=sojourn_ns,
        )

    tracer = Tracer(SimClock())
    store = TraceStore(cap=2, sample_every=2)
    head, tail, skip = "00000002" + "0" * 24, "00000003" + "a" * 24, "00000005" + "0" * 24
    assert not offer(store, tracer, skip)
    assert offer(store, tracer, tail, success=False)
    assert offer(store, tracer, head)
    # Over the cap: the oldest head sample goes, not the older tail record.
    assert offer(store, tracer, head[:-1] + "2", sojourn_ns=9**9)
    assert store.trace_ids() == [tail, head[:-1] + "2"]
    # No head sample left: the oldest record overall goes.
    assert offer(store, tracer, head[:-1] + "4", success=False)
    assert store.trace_ids() == [head[:-1] + "2", head[:-1] + "4"]
    assert (store.seen, store.kept_tail, store.kept_head, store.evicted) == (5, 3, 1, 2)
    # What is left still dumps whole.
    for record in store_dump(store)["records"]:
        assert len(record["root"]["children"][0]["children"]) == 4
