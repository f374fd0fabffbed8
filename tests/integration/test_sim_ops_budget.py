"""Bookkeeping ops budget of one warmed registration, pinned as equalities.

The second slice of the ops budget (``test_crypto_ops_budget.py`` is the
first): what the simulator spends on *booking* a registration — events
and random streams — as exact, host-independent counts.  A warmed SGX
registration books 282 events, 261 of them OCALLs in 9 profile replays.
The random streams are pinned too: a fresh subscriber's registration seeds
exactly three (K, OPc, the UE's ECIES ephemerals — the bytes need them)
and the RNG service keeps none of them.  And the tracer's deferred
work: an armed registration hashes a span id only where a
``traceparent`` is minted (7 SBI requests; all 33 begun spans before ids
were made on read), and a store that keeps the tree builds no ``Span``
from a burst until the tree is dumped.  A dump reads ``children`` like
any reader: it builds the 261 leaves into spans and hashes 587 ids (294
span ids, 293 parent ids).

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
from repro.sim.rng import RngService
from tests.obs.test_trace_freelist import store_dump

# Seven SBI hops: 14 frames and 7 sbi.request events; on SGX the hops
# replay compiled syscall profiles 9 times, 261 OCALLs.
SGX_BUDGET = {
    "events": 282,
    "rng_streams_seeded": 3,
    "rng_streams_kept": 0,
}
CONTAINER_BUDGET = dict(SGX_BUDGET, events=21)


# What the tracer adds, armed with a store: kept (1 in 1) or declined.
KEPT_BUDGET = {
    "span_ids_hashed": 7,
    "spans_built_from_bursts": 0,
    "traces_kept": 1,
    "span_ids_hashed_by_a_dump": 587,
    "spans_built_from_bursts_by_a_dump": 261,
}
DECLINED_BUDGET = dict(
    KEPT_BUDGET,
    traces_kept=0,
    span_ids_hashed_by_a_dump=0,
    spans_built_from_bursts_by_a_dump=0,
)
_TRACER_COUNTS = ("span_ids_hashed", "spans_built_from_bursts")


def count_ops(
    isolation: IsolationMode, armed: bool, registrations: int = 2, keep: bool = True
) -> list:
    """Per-registration bookkeeping counts on a warmed testbed."""
    testbed = warmed_testbed(isolation, seed=7)
    host = testbed.host
    if armed:
        store = TraceStore(sample_every=1 if keep else 2**32)
        host.tracer = Tracer(host.clock, trace_seed=7, store=store)
    counts: Counter = Counter()

    real_fresh_stream = RngService.fresh_stream
    real_span_context_id = trace_module.span_context_id
    real_expand_under = _OcallBurst.expand_under
    streams_seeded = [0]  # its own tally: provisioning precedes counts.clear()

    def fresh_stream(service, name):
        streams_seeded[0] += 1
        return real_fresh_stream(service, name)

    def span_context_id(trace_id, seq):
        counts["span_ids_hashed"] += 1
        return real_span_context_id(trace_id, seq)

    def expand_under(burst, parent, out):
        counts["spans_built_from_bursts"] += len(burst.templates)
        real_expand_under(burst, parent, out)

    results = []
    with ExitStack() as stack:
        for owner, name, wrapper in (
            (RngService, "fresh_stream", fresh_stream),
            (trace_module, "span_context_id", span_context_id),
            (_OcallBurst, "expand_under", expand_under),
        ):
            stack.enter_context(mock.patch.object(owner, name, wrapper))
        for _ in range(registrations):
            seeded_before, kept_before = streams_seeded[0], len(host.rng._streams)
            ue = testbed.add_subscriber()
            events_before = len(host.events)
            counts.clear()
            assert testbed.register(ue, establish_session=False).success
            counts["events"] = len(host.events) - events_before
            counts["rng_streams_seeded"] = streams_seeded[0] - seeded_before
            counts["rng_streams_kept"] = len(host.rng._streams) - kept_before
            if armed:
                counts["traces_kept"] = len(store)
                counts.update(dict.fromkeys(_TRACER_COUNTS, 0))  # report zeros too
            result = {key: counts[key] for key in sorted(counts)}
            if armed:
                # Only now is the store read: the kept tree is dumped.
                store_dump(store)
                for key in _TRACER_COUNTS:
                    result[f"{key}_by_a_dump"] = counts[key] - result[key]
                store.records.clear()
            results.append(result)
    return results


def test_sgx_registration_bookkeeping_is_pinned():
    for counts in count_ops(IsolationMode.SGX, armed=False):
        assert counts == SGX_BUDGET


def test_armed_tracer_changes_nothing_and_defers_its_leaves():
    for counts in count_ops(IsolationMode.SGX, armed=True):
        assert counts == dict(SGX_BUDGET, **KEPT_BUDGET)


def test_a_declined_trace_hashes_only_its_traceparents():
    for counts in count_ops(IsolationMode.SGX, armed=True, keep=False):
        assert counts == dict(SGX_BUDGET, **DECLINED_BUDGET)


def test_container_registration_bookkeeping_is_pinned():
    for counts in count_ops(IsolationMode.CONTAINER, armed=False):
        assert counts == CONTAINER_BUDGET


if __name__ == "__main__":
    print(json.dumps({
        "sgx": count_ops(IsolationMode.SGX, armed=False),
        "sgx-armed": count_ops(IsolationMode.SGX, armed=True),
        "sgx-armed-declined": count_ops(IsolationMode.SGX, armed=True, keep=False),
        "container": count_ops(IsolationMode.CONTAINER, armed=False),
    }, indent=1))
