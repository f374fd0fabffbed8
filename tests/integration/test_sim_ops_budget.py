"""Bookkeeping ops budget of one warmed registration, pinned as equalities.

The second slice of the ops budget (``test_crypto_ops_budget.py`` is the
first): what the simulator spends on *booking* a registration — events,
measurement windows — as exact, host-independent counts.  A warmed SGX
registration replays 261 OCALLs in 9 profile replays; each replay must
reach the event log as one burst (and, traced, reach the tracer as one
burst over the *same* end-offset list), and nobody may build an
``sgx.ocall`` ``Event`` until the log is read.  A silent fall-back to
per-event emission fails here on any machine, with no timer involved.
Likewise the random streams: a fresh subscriber's registration seeds
exactly three (K, OPc, the UE's ECIES ephemerals — the bytes need them)
and the RNG service keeps none of them.  And the tracer's deferred
work: an armed registration hashes a span id only where a
``traceparent`` is minted (7 SBI requests; all 33 begun spans before ids
were made on read), and a store that keeps the tree builds nothing —
no ``Span`` from a burst, no leaf at all — until the tree is dumped, and
a dump derives 261 leaves, hashes 326 ids (294 spans, the 32 parents
once more) and still builds no ``Span``.

``python tests/integration/test_sim_ops_budget.py`` prints the counts as
JSON.
"""

import json
from collections import Counter
from contextlib import ExitStack
from unittest import mock

from repro.experiments.harness import warmed_testbed
from repro.obs import trace as trace_module
from repro.obs.trace import TraceStore, Tracer, _OcallBurst
from repro.paka.deploy import IsolationMode
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventLog
from repro.sim.rng import RngService

# Seven SBI hops: 14 frames and 7 sbi.request events; each hop's four
# windows (client R, server busy, L_T, L_F) are clock reads, so the only
# measure() window is the gNB's session set-up; on SGX the hops replay
# compiled syscall profiles 9 times, 261 OCALLs.
SGX_BUDGET = {
    "events": 282,
    "single_events": 21,
    "event_bursts": 9,
    "events_in_bursts": 261,
    "ring_entries": 30,
    "event_objects_built": 21,
    "ocall_event_objects_built": 0,
    "ocall_event_objects_built_by_a_read": 261,
    "measure_windows": 1,
    "open_measurements_after": 0,
    "rng_streams_seeded": 3,
    "rng_streams_kept": 0,
}
CONTAINER_BUDGET = dict(
    SGX_BUDGET,
    events=21,
    event_bursts=0,
    events_in_bursts=0,
    ring_entries=21,
    ocall_event_objects_built_by_a_read=0,
)


# What the tracer adds, armed with a store: kept (1 in 1) or declined.
KEPT_BUDGET = {
    "span_bursts_sharing_the_event_ends": 9,
    "span_ids_hashed": 7,
    "burst_leaves_derived": 0,
    "spans_built_from_bursts": 0,
    "traces_kept": 1,
    "span_ids_hashed_by_a_dump": 326,
    "burst_leaves_derived_by_a_dump": 261,
    "spans_built_from_bursts_by_a_dump": 0,
}
DECLINED_BUDGET = dict(
    KEPT_BUDGET,
    traces_kept=0,
    span_ids_hashed_by_a_dump=0,
    burst_leaves_derived_by_a_dump=0,
)
_TRACER_COUNTS = ("span_ids_hashed", "burst_leaves_derived", "spans_built_from_bursts")


def count_ops(
    isolation: IsolationMode, armed: bool, registrations: int = 2, keep: bool = True
) -> list:
    """Per-registration bookkeeping counts on a warmed, unbounded-log testbed."""
    testbed = warmed_testbed(isolation, seed=7)
    host = testbed.host
    if armed:
        store = TraceStore(cap=None, sample_every=1 if keep else 2**32)
        host.tracer = Tracer(host.clock, trace_seed=7, store=store)
    counts: Counter = Counter()
    event_ends, span_ends = [], []

    real_event_init = Event.__init__
    real_emit_burst = EventLog.emit_burst
    real_ocall_burst = Tracer.ocall_burst
    real_measure = SimClock.measure
    real_fresh_stream = RngService.fresh_stream
    real_span_context_id = trace_module.span_context_id
    real_expand_under = _OcallBurst.expand_under
    real_leaves = _OcallBurst.leaves
    streams_seeded = [0]  # its own tally: provisioning precedes counts.clear()

    def event_init(event, timestamp_ns, category, detail=None):
        counts["event_objects_built"] += 1
        counts["ocall_event_objects_built"] += category == "sgx.ocall"
        real_event_init(event, timestamp_ns, category, detail)

    def emit_burst(log, category, details, base_ns, ends):
        assert category == "sgx.ocall" and len(details) == len(ends)
        event_ends.append(ends)
        real_emit_burst(log, category, details, base_ns, ends)

    def ocall_burst(tracer, templates, ends=None):
        span_ends.append(ends)
        real_ocall_burst(tracer, templates, ends)

    def measure(clock):
        counts["measure_windows"] += 1
        return real_measure(clock)

    def fresh_stream(service, name):
        streams_seeded[0] += 1
        return real_fresh_stream(service, name)

    def span_context_id(trace_id, seq):
        counts["span_ids_hashed"] += 1
        return real_span_context_id(trace_id, seq)

    def expand_under(burst, parent, out):
        counts["spans_built_from_bursts"] += len(burst.templates)
        real_expand_under(burst, parent, out)

    def leaves(burst):
        for leaf in real_leaves(burst):
            counts["burst_leaves_derived"] += 1
            yield leaf

    results = []
    with ExitStack() as stack:
        for owner, name, wrapper in (
            (Event, "__init__", event_init),
            (EventLog, "emit_burst", emit_burst),
            (Tracer, "ocall_burst", ocall_burst),
            (SimClock, "measure", measure),
            (RngService, "fresh_stream", fresh_stream),
            (trace_module, "span_context_id", span_context_id),
            (_OcallBurst, "expand_under", expand_under),
            (_OcallBurst, "leaves", leaves),
        ):
            stack.enter_context(mock.patch.object(owner, name, wrapper))
        for _ in range(registrations):
            seeded_before, kept_before = streams_seeded[0], len(host.rng._streams)
            ue = testbed.add_subscriber()
            host.events.clear()
            counts.clear()
            del event_ends[:], span_ends[:]
            assert testbed.register(ue, establish_session=False).success
            counts["events"] = len(host.events)
            counts["ring_entries"] = len(host.events._entries)
            counts["event_bursts"] = len(event_ends)
            counts["events_in_bursts"] = sum(len(ends) for ends in event_ends)
            counts["single_events"] = counts["events"] - counts["events_in_bursts"]
            counts["open_measurements_after"] = len(host.clock._open_measurements)
            counts["rng_streams_seeded"] = streams_seeded[0] - seeded_before
            counts["rng_streams_kept"] = len(host.rng._streams) - kept_before
            if armed:
                # The tracer got the very lists the event log holds.
                counts["span_bursts_sharing_the_event_ends"] = sum(
                    a is b for a, b in zip(span_ends, event_ends)
                )
                counts["traces_kept"] = len(store)
                counts.update(dict.fromkeys(_TRACER_COUNTS, 0))  # report zeros too
            result = {key: counts[key] for key in sorted(counts)}
            if armed:
                # Only now is the store read: the kept tree is dumped.
                store.to_dict()
                for key in _TRACER_COUNTS:
                    result[f"{key}_by_a_dump"] = counts[key] - result[key]
                store.records.clear()
            # Only now is the log read: the burst events get built.
            assert len(host.events.select("sgx.ocall")) == counts["events_in_bursts"]
            result["ocall_event_objects_built_by_a_read"] = (
                counts["ocall_event_objects_built"]
                - result["ocall_event_objects_built"]
            )
            results.append(result)
    return results


def test_sgx_registration_books_its_ocalls_as_nine_bursts():
    for counts in count_ops(IsolationMode.SGX, armed=False):
        assert counts == SGX_BUDGET


def test_armed_tracer_changes_nothing_and_shares_the_end_offsets():
    for counts in count_ops(IsolationMode.SGX, armed=True):
        assert counts == dict(SGX_BUDGET, **KEPT_BUDGET)


def test_a_declined_trace_hashes_only_its_traceparents():
    for counts in count_ops(IsolationMode.SGX, armed=True, keep=False):
        assert counts == dict(SGX_BUDGET, **DECLINED_BUDGET)


def test_container_registration_books_no_bursts():
    for counts in count_ops(IsolationMode.CONTAINER, armed=False):
        assert counts == CONTAINER_BUDGET


if __name__ == "__main__":
    print(json.dumps({
        "sgx": count_ops(IsolationMode.SGX, armed=False),
        "sgx-armed": count_ops(IsolationMode.SGX, armed=True),
        "sgx-armed-declined": count_ops(IsolationMode.SGX, armed=True, keep=False),
        "container": count_ops(IsolationMode.CONTAINER, armed=False),
    }, indent=1))
