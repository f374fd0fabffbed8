"""Distributed-trace identity: deterministic ids, W3C propagation,
tail-based trace store."""

import json

from repro.experiments.harness import warmed_testbed
from repro.obs.collect import observe
from repro.obs.trace import (
    Span,
    TraceStore,
    Tracer,
    parse_traceparent,
    span_context_id,
    span_from_dict,
    trace_context_id,
    traceparent_of,
)
from repro.paka.deploy import IsolationMode
from repro.sim.clock import SimClock


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


def test_trace_ids_are_deterministic_and_distinct():
    tid = trace_context_id(7, "imsi-001", 1)
    assert tid == trace_context_id(7, "imsi-001", 1)
    assert len(tid) == 32 and int(tid, 16) >= 0
    # Any coordinate change mints a different id.
    assert trace_context_id(8, "imsi-001", 1) != tid
    assert trace_context_id(7, "imsi-002", 1) != tid
    assert trace_context_id(7, "imsi-001", 2) != tid
    sid = span_context_id(tid, 0)
    assert sid == span_context_id(tid, 0)
    assert len(sid) == 16
    assert span_context_id(tid, 1) != sid


def test_tracer_stamps_identity_in_begin_order():
    tracer = Tracer(SimClock(), trace_seed=7)
    trace_id = tracer.start_trace("imsi-001")
    assert trace_id == trace_context_id(7, "imsi-001", 1)
    assert tracer.current_trace_id == trace_id
    root = tracer.begin("registration", kind="registration")
    child = tracer.begin("request", kind="sbi.request")
    assert root.trace_id == child.trace_id == trace_id
    assert root.span_id == span_context_id(trace_id, 0)
    assert child.span_id == span_context_id(trace_id, 1)
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    tracer.end(child)
    tracer.end(root)
    assert tracer.end_trace() == (trace_id, "imsi-001", 1)
    # Re-registration of the same SUPI is a distinct trace.
    assert tracer.start_trace("imsi-001") == trace_context_id(7, "imsi-001", 2)
    tracer.end_trace()
    # Outside any trace context, spans stay unstamped.
    bare = tracer.begin("work", kind="L_F")
    assert bare.trace_id is None and bare.span_id is None
    tracer.end(bare)


def test_seedless_tracer_mints_no_trace_context():
    tracer = Tracer(SimClock())
    assert tracer.start_trace("imsi-001") is None
    span = tracer.begin("registration", kind="registration")
    assert span.trace_id is None
    tracer.end(span)


def test_to_dict_tags_are_key_sorted():
    """Serialization pin: tag order at the call site must not leak into
    the serialized tree (shard digests are byte-compared)."""
    span = Span("serve", "sbi.server", 0, zulu=1, alpha=2, mike=3)
    span.end_ns = 10
    payload = span.to_dict()
    assert list(payload["tags"]) == ["alpha", "mike", "zulu"]
    # Identity keys appear only on stamped spans.
    assert "trace_id" not in payload
    stamped = span_from_dict(
        {**payload, "trace_id": "ab" * 16, "span_id": "cd" * 8, "parent_id": None}
    ).to_dict()
    assert stamped["trace_id"] == "ab" * 16
    assert stamped["parent_id"] is None
    # Byte-stable regardless of insertion order.
    twin = Span("serve", "sbi.server", 0, mike=3, alpha=2, zulu=1)
    twin.end_ns = 10
    assert json.dumps(payload) == json.dumps(twin.to_dict())


def test_span_from_dict_round_trip_is_exact():
    tracer = Tracer(SimClock(), trace_seed=7)
    tracer.start_trace("imsi-001")
    root = tracer.begin("registration", kind="registration", ue="ue-1")
    child = tracer.begin("request", kind="sbi.request", dst="ausf")
    tracer.end(child)
    tracer.end(root)
    tracer.end_trace()
    tree = root.to_dict()
    assert span_from_dict(tree).to_dict() == tree


def test_traceparent_format_round_trips_and_rejects_garbage():
    header = traceparent_of("ab" * 16, "cd" * 8)
    assert header == f"00-{'ab' * 16}-{'cd' * 8}-01"
    assert parse_traceparent(header) == ("ab" * 16, "cd" * 8)
    assert parse_traceparent(header.upper()) is None  # more rows: test_error_paths


def test_traceparent_propagates_across_every_sbi_hop():
    """One traced registration: every server span on every NF carries the
    client's traceparent, and its span id is the parent request span."""
    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    with observe(testbed, trace_sample=1) as observation:
        outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert outcome.success
    record = observation.store.get(observation.store.trace_ids()[0])
    tree = record["root"]
    assert {node["trace_id"] for node in _walk(tree)} == {record["trace_id"]}

    def check(node, parent_request_span_id=None):
        if node["kind"] == "sbi.server":
            trace_id, span_id = parse_traceparent(node["tags"]["traceparent"])
            assert trace_id == record["trace_id"]
            assert span_id == parent_request_span_id
        next_parent = (
            node["span_id"] if node["kind"] == "sbi.request"
            else parent_request_span_id
        )
        for child in node["children"]:
            check(child, next_parent)

    check(tree)
    servers = {
        node["tags"]["server"] for node in _walk(tree)
        if node["kind"] == "sbi.server"
    }
    assert len(servers) >= 3  # cross-NF: AMF, AUSF, UDM at least
    # Parent links all resolve inside the tree.
    span_ids = {node["span_id"] for node in _walk(tree)}
    for node in _walk(tree):
        assert node["parent_id"] is None or node["parent_id"] in span_ids


def test_distributed_tracing_spends_no_simulated_time():
    plain = warmed_testbed(IsolationMode.SGX, seed=7)
    traced = warmed_testbed(IsolationMode.SGX, seed=7)
    plain.register(plain.add_subscriber(), establish_session=False)
    with observe(traced, trace_sample=1):
        traced.register(traced.add_subscriber(), establish_session=False)
    assert plain.host.clock.now_ns == traced.host.clock.now_ns


def _offer(store, trace_id, success=True, sojourn_ns=0):
    span = Span("registration", "registration", 0)
    span.end_ns = sojourn_ns or 1
    return store.offer(
        span, trace_id, supi="imsi-001", attempt=1,
        success=success, sojourn_ns=sojourn_ns,
    )


def test_store_keep_reasons():
    store = TraceStore(cap=8, sample_every=4)
    sampled = "00000004" + "0" * 24   # int % 4 == 0 -> head sample
    skipped = "00000005" + "0" * 24   # int % 4 == 1 -> dropped
    assert store.keep_reason(skipped, False, 0) == "tail_failed"
    assert store.keep_reason(skipped, True, 250_000_000) is None  # at it
    assert store.keep_reason(skipped, True, 250_000_001) == "tail_deadline"
    assert store.keep_reason(sampled, True, 0) == "head_sample"
    assert store.keep_reason(skipped, True, 0) is None
    assert _offer(store, skipped, success=False)
    assert not _offer(store, skipped[:-1] + "1", success=True)
    assert store.seen == 2 and store.kept_tail == 1 and store.kept_head == 0


def test_store_evicts_head_samples_before_tail_records():
    store = TraceStore(cap=2, sample_every=1)
    _offer(store, "a" * 32, success=False)                    # tail
    _offer(store, "b" * 32, success=True)                     # head
    _offer(store, "c" * 32, success=True, sojourn_ns=9**9)    # tail -> evicts b
    assert store.trace_ids() == ["a" * 32, "c" * 32]
    assert store.evicted == 1
    _offer(store, "d" * 32, success=False)                    # no head left
    assert store.trace_ids() == ["c" * 32, "d" * 32]          # oldest overall
