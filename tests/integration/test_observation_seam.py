"""The observation seam on ``PhysicalHost``: armed or not, nothing moves.

Every protocol hook (gNB registration root + NAS rounds, HTTP client R
window, HTTP server busy / L_T / L_F windows, AMF annotation, per-OCALL
spans, attack-event roots, the monitor tick) goes through
``host.span`` / ``host.trace`` / ``host.tick``.  One matrix checks the
contract for all of them at once:

* the simulated clock lands on the same nanosecond whether no tracer is
  installed or one is (with or without distributed-trace identity and a
  store),
* no span stays open afterwards — on
  success, when a handler raises through the whole stack, when a
  ``fault_gate`` swallows the request or the bridge loses its frame
  (the client times out), when the AMF sheds the attach, and for storm
  events; and no ``traceparent`` stays behind on any SBI connection,
* the span trees, stored traces and sojourn exemplars the armed states
  produce are byte-identical to the ones pinned from the commit before
  the seam existed (``PINNED``).
"""

import hashlib
import json

import pytest

from repro.experiments.harness import warmed_testbed
from repro.fivegc.admission import AdmissionConfig, AdmissionController
from repro.net.http import RETRY_MAX_ATTEMPTS, UnresponsiveError
from repro.net.sbi import EUDM_GENERATE_AV
from repro.obs.trace import TraceStore, Tracer
from repro.security.attacks import AttackPlane, StormKind, generate_storm
from repro.testbed import IsolationMode
from tests.obs.test_trace_freelist import store_dump

ARMINGS = ("none", "armed", "seeded")


def _arm(testbed, arming):
    clock = testbed.host.clock
    if arming == "armed":
        testbed.host.tracer = Tracer(clock)
    elif arming == "seeded":
        testbed.host.tracer = Tracer(
            clock, trace_seed=7, store=TraceStore(cap=64, sample_every=1)
        )
    return testbed.host.tracer


# ------------------------------------------------------------- scenarios


def _success(testbed):
    for _ in range(2):
        assert testbed.register(testbed.add_subscriber()).success


def _handler_raises(testbed):
    def exploding(request, context):
        context.runtime.compute(10_000)
        raise RuntimeError("handler blew up")

    server = testbed.paka.modules["eudm"].server
    server.route("POST", EUDM_GENERATE_AV, exploding)
    with pytest.raises(RuntimeError, match="blew up"):
        testbed.register(testbed.add_subscriber())


def _request_timeout(testbed):
    def gate(server):
        raise UnresponsiveError(f"{server.name} is down")

    testbed.udm.server.fault_gate = gate
    testbed.ausf.retry = True
    outcome = testbed.register(testbed.add_subscriber())
    assert not outcome.success
    assert testbed.ausf.client.timeouts == RETRY_MAX_ATTEMPTS


def _frame_lost(testbed):
    """Every frame towards the UDR vanishes: the UDM's requests are lost
    before the server ever sees them."""
    udr = testbed.udr.server.name
    testbed.sbi.link_filter = lambda src, dst, nbytes: None if dst == udr else 0.0
    testbed.udm.retry = True
    outcome = testbed.register(testbed.add_subscriber())
    assert not outcome.success
    assert testbed.udm.client.timeouts >= 1


def _amf_reject(testbed):
    testbed.amf.admission = AdmissionController(
        AdmissionConfig(bucket_rate_per_s=0.001, bucket_burst=1.0)
    )
    assert testbed.register(testbed.add_subscriber()).success
    outcome = testbed.register(testbed.add_subscriber())
    assert not outcome.success
    assert outcome.failure_cause.startswith("congestion:")


def _storm_events(testbed):
    plane = AttackPlane(testbed)
    events = generate_storm(seed=7, horizon_s=0.1, rate_per_s=200.0)
    assert {event.kind for event in events} == set(StormKind)
    for event in events:
        plane.execute(event)
    # A legitimate attach after the storm: attack roots were dropped as
    # they closed, so only its tree is left on the tracer.
    assert testbed.register(testbed.add_subscriber()).success


SCENARIOS = {
    "success": _success,
    "handler_raises": _handler_raises,
    "request_timeout": _request_timeout,
    "frame_lost": _frame_lost,
    "amf_reject": _amf_reject,
    "storm_events": _storm_events,
}

# sha256[:16] of the armed states' observable output (span trees left in
# ``tracer.roots``, the TraceStore snapshot, the gNB's sojourn
# exemplars), generated at the commit before the seam was introduced.
PINNED = {
    ("amf_reject", "armed"): "38c3a1017df4c011",
    ("amf_reject", "seeded"): "0c84eba4e0bad98f",
    ("frame_lost", "armed"): "5c390fa915d9c32e",
    ("frame_lost", "seeded"): "6897d858c9ab6bb9",
    ("handler_raises", "armed"): "4e52579f3ec40fd4",
    ("handler_raises", "seeded"): "ab97af2dae4c732c",
    ("request_timeout", "armed"): "cfdd73a9a812209b",
    ("request_timeout", "seeded"): "188d5f032e545679",
    ("storm_events", "armed"): "565bd3ab855d8fca",
    ("storm_events", "seeded"): "b84110d532f41e01",
    ("success", "armed"): "2536379407676794",
    ("success", "seeded"): "3b3ed8fbca217549",
}


def _fingerprint(testbed, tracer):
    payload = {
        "roots": [root.to_dict() for root in tracer.roots],
        "exemplars": {
            le: list(value)
            for le, value in sorted(testbed.gnb.sojourn_exemplars.items())
        },
    }
    if tracer.store is not None:
        payload["store"] = store_dump(tracer.store)
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _run(scenario, arming):
    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    tracer = _arm(testbed, arming)
    SCENARIOS[scenario](testbed)
    host = testbed.host
    if tracer is not None:
        assert tracer.depth == 0
        assert tracer.current_trace_id is None
    for nf in (testbed.amf, testbed.ausf, testbed.udm):
        for connection in nf._connections.values():
            assert connection.traceparent is None
    fingerprint = None if tracer is None else _fingerprint(testbed, tracer)
    return host.clock.now_ns, len(host.events), fingerprint


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_seam_is_invisible_to_the_clock_and_leaks_nothing(scenario):
    results = {arming: _run(scenario, arming) for arming in ARMINGS}
    clocks = {arming: result[:2] for arming, result in results.items()}
    assert len(set(clocks.values())) == 1, clocks
    for arming in ("armed", "seeded"):
        assert results[arming][2] == PINNED[(scenario, arming)]


if __name__ == "__main__":  # regenerate PINNED (run at the parent commit)
    for name in sorted(SCENARIOS):
        for state in ("armed", "seeded"):
            print(f'    ("{name}", "{state}"): "{_run(name, state)[2]}",')
