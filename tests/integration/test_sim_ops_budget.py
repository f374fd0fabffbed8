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
and the RNG service keeps none of them.

``python tests/integration/test_sim_ops_budget.py`` prints the counts as
JSON.
"""

import json
from collections import Counter
from contextlib import ExitStack
from unittest import mock

from repro.experiments.harness import warmed_testbed
from repro.obs.trace import Tracer
from repro.paka.deploy import IsolationMode
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventLog
from repro.sim.rng import RngService

# Seven SBI hops: 14 frames and 7 sbi.request events, and four windows
# each (client R, server busy, L_T, L_F) plus the gNB's session set-up;
# on SGX the hops replay compiled syscall profiles 9 times, 261 OCALLs.
SGX_BUDGET = {
    "events": 282,
    "single_events": 21,
    "event_bursts": 9,
    "events_in_bursts": 261,
    "ring_entries": 30,
    "event_objects_built": 21,
    "ocall_event_objects_built": 0,
    "ocall_event_objects_built_by_a_read": 261,
    "measure_windows": 29,
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


def count_ops(isolation: IsolationMode, armed: bool, registrations: int = 2) -> list:
    """Per-registration bookkeeping counts on a warmed, unbounded-log testbed."""
    testbed = warmed_testbed(isolation, seed=7)
    host = testbed.host
    if armed:
        host.tracer = Tracer(host.clock, trace_seed=7)
    counts: Counter = Counter()
    event_ends, span_ends = [], []

    real_event_init = Event.__init__
    real_emit_burst = EventLog.emit_burst
    real_ocall_burst = Tracer.ocall_burst
    real_measure = SimClock.measure
    real_fresh_stream = RngService.fresh_stream
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

    results = []
    with ExitStack() as stack:
        for owner, name, wrapper in (
            (Event, "__init__", event_init),
            (EventLog, "emit_burst", emit_burst),
            (Tracer, "ocall_burst", ocall_burst),
            (SimClock, "measure", measure),
            (RngService, "fresh_stream", fresh_stream),
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
            result = {key: counts[key] for key in sorted(counts)}
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
    armed_budget = dict(SGX_BUDGET, span_bursts_sharing_the_event_ends=9)
    for counts in count_ops(IsolationMode.SGX, armed=True):
        assert counts == armed_budget


def test_container_registration_books_no_bursts():
    for counts in count_ops(IsolationMode.CONTAINER, armed=False):
        assert counts == CONTAINER_BUDGET


if __name__ == "__main__":
    print(json.dumps({
        "sgx": count_ops(IsolationMode.SGX, armed=False),
        "sgx-armed": count_ops(IsolationMode.SGX, armed=True),
        "container": count_ops(IsolationMode.CONTAINER, armed=False),
    }, indent=1))
