"""Tracing acceptance: span-derived numbers must equal the recorded ones.

Three invariants anchor the observability subsystem to the paper
artifacts:

1. **Bit-identity of values** — span L_F / L_T / R durations are the
   *same floats* the servers' and clients' metric series record (the
   tracer reads the clock at the same instants the windows do).
   Trace-derived Fig 9 numbers therefore match the committed results
   exactly, not approximately.
2. **Table III from spans** — counting ``sgx.ocall`` spans reproduces the
   per-module EENTER/EEXIT/OCALL deltas the enclave stats record
   (~90 transitions per request, paper §V-B2).
3. **Zero simulated cost** — with a tracer installed (or disabled), the
   final clock still matches the golden constants: tracing never
   advances simulated time or perturbs an RNG draw.
"""

import pytest

from repro.experiments.harness import warmed_testbed
from repro.obs.trace import TraceStore, Tracer
from repro.testbed import IsolationMode

from tests.integration.test_golden_clocks import (
    SGX_GOLDEN_CLOCKS,
    SGX_GOLDEN_OCALL_EVENTS,
    SGX_GOLDEN_TOTAL_EVENTS,
)


@pytest.fixture(scope="module")
def traced_sgx():
    """Warmed SGX testbed (seed 7) + one traced registration."""
    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    trace = testbed.trace_registration()
    return testbed, trace


def test_traced_registration_succeeds(traced_sgx):
    _, trace = traced_sgx
    assert trace.outcome.success
    assert trace.root.kind == "registration"


def test_span_lf_lt_bit_identical_to_server_series(traced_sgx):
    testbed, trace = traced_sgx
    for name, module in testbed.paka.modules.items():
        server = module.server
        spans = [
            s for s in trace.root.walk()
            if s.kind == "sbi.server" and s.tags.get("server") == server.name
        ]
        assert len(spans) == trace.breakdown[name]["requests"] == 1
        lt_span = spans[0].child_of_kind("L_T")
        lf_span = lt_span.child_of_kind("L_F")
        # Same float, not approximately the same float.
        assert lf_span.us == list(server.lf_us)[-1]
        assert lt_span.us == list(server.lt_us)[-1]


def test_span_r_bit_identical_to_client_series(traced_sgx):
    testbed, trace = traced_sgx
    for module in testbed.paka.modules.values():
        server_name = module.server.name
        request_spans = [
            s for s in trace.root.walk()
            if s.kind == "sbi.request" and s.tags.get("dst") == server_name
        ]
        assert len(request_spans) == 1
        span = request_spans[0]
        recorded = None
        for nf in (testbed.amf, testbed.ausf, testbed.udm):
            times = nf.client.response_times_by_server.get(server_name)
            if times:
                recorded = times[-1]
        assert span.tags["r_us"] == recorded == span.us


def test_table3_transitions_from_spans_match_stats_delta(traced_sgx):
    _, trace = traced_sgx
    assert set(trace.breakdown) == {"eamf", "eausf", "eudm"}
    for name, row in trace.breakdown.items():
        delta = trace.stats_delta[name]
        assert row["eenters"] == delta.eenters
        assert row["eexits"] == delta.eexits
        assert row["ocalls"] == delta.ocalls
        # The paper's ~90 transitions per AKA request (§V-B2, Table III).
        assert 60 <= row["eenters"] <= 120


def test_ln_is_lt_minus_lf_and_dominated_by_transitions(traced_sgx):
    _, trace = traced_sgx
    for row in trace.breakdown.values():
        assert row["ln_us"] == pytest.approx(row["lt_us"] - row["lf_us"])
        # Fig 9: the shielded L_N exceeds L_F (SGX overhead dominates).
        assert row["ln_us"] > row["lf_us"]


def test_enabled_tracer_keeps_golden_clock():
    """A fully traced run spends exactly the golden simulated nanoseconds."""
    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    testbed.host.tracer = Tracer(testbed.host.clock)
    try:
        for _ in range(5):
            ue = testbed.add_subscriber()
            outcome = testbed.register(ue, establish_session=False)
            assert outcome.success
    finally:
        testbed.host.tracer = None
    assert testbed.host.clock.now_ns == SGX_GOLDEN_CLOCKS[7]
    assert testbed.host.events.count("sgx.ocall") == SGX_GOLDEN_OCALL_EVENTS
    assert len(testbed.host.events) == SGX_GOLDEN_TOTAL_EVENTS


def test_trace_derived_fig9_split_matches_experiment_shape(traced_sgx):
    """The span-tree decomposition shows Fig 9's structure: for shielded
    modules the functional share of L_T sits well below half."""
    _, trace = traced_sgx
    for row in trace.breakdown.values():
        share = row["lf_us"] / row["lt_us"]
        assert 0.15 <= share <= 0.55


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


def _us(node):
    return (node["end_ns"] - node["start_ns"]) / 1_000


def _only(node, kind):
    (child,) = [c for c in node["children"] if c["kind"] == kind]
    return child


@pytest.mark.parametrize("isolation", [IsolationMode.CONTAINER, IsolationMode.SGX])
def test_every_hop_window_is_its_span(isolation):
    """Each SBI hop's four windows — the client's R and the server's busy,
    L_T and L_F — are the very floats its spans measure, on every server
    and client of the registration, read back from a store that kept the
    tree."""
    testbed = warmed_testbed(isolation, seed=7)
    host = testbed.host
    store = TraceStore(cap=None, sample_every=1)
    host.tracer = Tracer(host.clock, trace_seed=7, store=store)
    try:
        ue = testbed.add_subscriber()
        assert testbed.register(ue, establish_session=False).success
    finally:
        host.tracer = None
    (trace_id,) = store.trace_ids()
    requests = [
        node for node in _walk(store.get(trace_id)["root"])
        if node["kind"] == "sbi.request"
    ]
    assert len(requests) == 7

    nfs = (testbed.udr, testbed.udm, testbed.ausf, testbed.amf)
    servers = {nf.server.name: nf.server for nf in nfs}
    servers.update((s.name, s) for s in testbed.module_servers().values())
    clients = {nf.client.name: nf.client for nf in nfs}
    hops_by_server, requests_by_client = {}, {}
    for request in requests:
        hop = _only(request, "sbi.server")
        hops_by_server.setdefault(hop["tags"]["server"], []).append(hop)
        requests_by_client.setdefault(request["tags"]["src"], []).append(request)
        assert request["tags"]["r_us"] == _us(request)

    for name, hops in hops_by_server.items():
        server, n = servers[name], len(hops)
        lts = [_only(hop, "L_T") for hop in hops]
        lfs = [_only(lt, "L_F") for lt in lts]
        assert list(server.busy_us[-n:]) == [_us(hop) for hop in hops]
        assert list(server.lt_us[-n:]) == [_us(lt) for lt in lts]
        assert list(server.lf_us[-n:]) == [_us(lf) for lf in lfs]
        for lt, lf in zip(lts, lfs):
            path = lf["tags"]["path"]
            assert server.lt_us_by_path[path][-1] == _us(lt)
            assert server.lf_us_by_path[path][-1] == _us(lf)
    # Every server but the AMF's (N1 is direct dispatch) served this UE.
    assert set(hops_by_server) == set(servers) - {testbed.amf.server.name}

    for name, sent in requests_by_client.items():
        client = clients[name]
        times = client.response_times_us
        assert list(times[-len(sent):]) == [_us(request) for request in sent]
        for dst in {request["tags"]["dst"] for request in sent}:
            to_dst = [_us(request) for request in sent if request["tags"]["dst"] == dst]
            by_server = client.response_times_by_server[dst]
            assert list(by_server[-len(to_dst):]) == to_dst
