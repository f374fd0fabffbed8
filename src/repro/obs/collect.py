"""Assemble observability artifacts from a live testbed.

Collection is a *pull*: live objects (HTTP servers/clients, NFs, SGX
stats, the fault injector) are snapshotted into a
:class:`MetricsRegistry` on demand, so a running simulation pays nothing
until someone asks.  Tracing one registration installs a
:class:`~repro.obs.trace.Tracer` on the host for exactly one
``register()`` call and removes it afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.obs.analytics import registration_breakdown
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.sgx.stats import SgxStats


def collect_sgx_stats(
    registry: MetricsRegistry, stats: SgxStats, **labels: str
) -> None:
    """Snapshot one enclave's Table III counters into the registry."""
    registry.counter("sgx_eenters_total", **labels).set(stats.eenters)
    registry.counter("sgx_eexits_total", **labels).set(stats.eexits)
    registry.counter("sgx_aexs_total", **labels).set(stats.aexs)
    registry.counter("sgx_ocalls_total", **labels).set(stats.ocalls)
    registry.counter("sgx_page_faults_total", **labels).set(stats.page_faults)
    registry.counter("sgx_page_evictions_total", **labels).set(stats.page_evictions)
    registry.counter("sgx_bytes_copied_in_total", **labels).set(stats.bytes_copied_in)
    registry.counter("sgx_bytes_copied_out_total", **labels).set(stats.bytes_copied_out)


def collect_testbed_metrics(
    testbed: Any,
    registry: Optional[MetricsRegistry] = None,
    fault_injector: Optional[Any] = None,
) -> MetricsRegistry:
    """Snapshot a whole testbed (Fig 4) into one registry."""
    registry = registry if registry is not None else MetricsRegistry()

    for nf in (
        testbed.nrf, testbed.udr, testbed.udm, testbed.ausf, testbed.amf,
        testbed.smf, testbed.upf,
    ):
        nf.collect_metrics(registry)

    if testbed.paka is not None:
        for name, module in testbed.paka.modules.items():
            module.server.collect_metrics(registry, component=name)
            stats = module.runtime.sgx_stats
            if stats is not None:
                collect_sgx_stats(registry, stats, component=name)

    gnb = testbed.gnb
    registry.counter("gnb_registrations_attempted_total", gnb=gnb.name).set(
        gnb.registrations_attempted
    )
    registry.counter("gnb_registrations_succeeded_total", gnb=gnb.name).set(
        gnb.registrations_succeeded
    )
    # Adopt the live sojourn series: count/sum reach the Tsdb as histogram
    # component counters so windowed means are O(1).  The gNB's per-bucket
    # exemplar dict rides along (populated only under a trace-context-armed
    # tracer) so export can emit OpenMetrics exemplars and alerts can cite
    # trace ids.
    sojourn = registry.histogram_from_series(
        "gnb_registration_sojourn_ms", gnb.sojourn_ms, gnb=gnb.name
    )
    exemplars = getattr(gnb, "sojourn_exemplars", None)
    if exemplars:
        sojourn.exemplars = exemplars

    host = testbed.host
    registry.counter("sim_clock_ns_total", host=host.name).set(host.clock.now_ns)
    registry.gauge("sim_events_retained", host=host.name).set(len(host.events))
    registry.counter("sim_ocall_events_total", host=host.name).set(
        host.events.count("sgx.ocall")
    )

    if fault_injector is not None:
        fault_injector.collect_metrics(registry)
    return registry


@dataclass
class RegistrationTrace:
    """One traced UE registration: the span tree plus its decompositions."""

    root: Span
    outcome: Any
    # Per-module Fig 9 / Table II / Table III decomposition from spans.
    breakdown: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Per-module SgxStats deltas over the registration (the independent
    # counter-based view the span-derived numbers must agree with).
    stats_delta: Dict[str, SgxStats] = field(default_factory=dict)


def trace_registration(
    testbed: Any, establish_session: bool = False
) -> RegistrationTrace:
    """Trace exactly one registration on ``testbed``.

    The subscriber is provisioned *before* the tracer is installed (so
    provisioning SBI traffic does not pollute the tree), the tracer lives
    only for the ``register()`` call, and the simulated clock is advanced
    identically to an untraced registration.
    """
    host = testbed.host
    if host.tracer is not None:
        raise RuntimeError("a tracer is already installed on this host")

    ue = testbed.add_subscriber()
    modules = testbed.paka.modules if testbed.paka is not None else {}
    before = {
        name: module.runtime.sgx_stats.snapshot()
        for name, module in modules.items()
        if module.runtime.sgx_stats is not None
    }

    # Armed with the host seed so the one-shot trace carries the same
    # deterministic trace/span ids a campaign tracer would mint.
    tracer = Tracer(host.clock, trace_seed=host.rng.seed)
    host.tracer = tracer
    try:
        outcome = testbed.register(ue, establish_session=establish_session)
    finally:
        host.tracer = None
    if not tracer.roots:
        raise RuntimeError("registration produced no trace root")
    root = tracer.roots[-1]

    stats_delta = {
        name: modules[name].runtime.sgx_stats.delta(snapshot)
        for name, snapshot in before.items()
    }
    breakdown = registration_breakdown(
        root,
        module_servers={name: m.server.name for name, m in modules.items()},
        module_runtimes={name: m.runtime.name for name, m in modules.items()},
    )
    return RegistrationTrace(
        root=root, outcome=outcome, breakdown=breakdown, stats_delta=stats_delta
    )
