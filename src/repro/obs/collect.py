"""Assemble observability artifacts from a live testbed.

Collection is a *pull*: live objects (HTTP servers/clients, NFs, SGX
stats, the fault injector) are snapshotted into a
:class:`MetricsRegistry` on demand, so a running simulation pays nothing
until someone asks.  Tracing one registration installs a
:class:`~repro.obs.trace.Tracer` on the host for exactly one
``register()`` call and removes it afterwards; :func:`observe` does the
same for a whole campaign arm and hands back one :class:`Observation`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.analytics import registration_breakdown
from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import Scraper
from repro.obs.slo import Alert, SloEngine, default_slos
from repro.obs.trace import Span, Tracer, TraceStore
from repro.sgx.stats import SgxStats
from repro.sim import invariants

#: Bound on a traced arm's store (the oldest head samples go first).
_TRACE_STORE_CAP = 2048


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

    for nf in testbed.core_nfs:
        nf.collect_metrics(registry)

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
    registry.counter("sim_events_total", host=host.name).set(len(host.events))
    registry.counter("sim_ocall_events_total", host=host.name).set(
        host.events.count("sgx.ocall")
    )

    if fault_injector is not None:
        fault_injector.collect_metrics(registry)
    return registry


def module_maps(testbed: Any) -> Tuple[Dict[str, str], Dict[str, str]]:
    """``(module_servers, module_runtimes)``: each P-AKA module's HTTP
    server and enclave runtime name, the keys the analytics fold reads
    span tags by."""
    modules = testbed.paka.modules
    return (
        {name: module.server.name for name, module in modules.items()},
        {name: module.runtime.name for name, module in modules.items()},
    )


@dataclass
class Observation:
    """Everything one monitored campaign arm saw, opened by :func:`observe`.

    The scraper and its Tsdb, the trace store (``None`` for an untraced
    arm), the module maps that decompose its trees, the paper-derived
    SLOs and their alerts, the armed fault plan (``None`` without an
    injector) and the gNB sojourns recorded inside the ``with`` block.
    ``alerts`` is the list an :class:`SloEngine` subscribed to the
    scraper fills as each scrape lands, so inside the block it holds the
    verdicts so far.  The observation holds data only: it does not keep
    its testbed alive.
    """

    base_ns: int
    scraper: Scraper
    store: Optional[TraceStore]
    module_servers: Dict[str, str]
    module_runtimes: Dict[str, str]
    slos: List[Any]
    alerts: List[Alert]
    fault_plan: Optional[Any] = None
    sojourns_ms: List[float] = field(default_factory=list)


@contextmanager
def observe(
    testbed: Any,
    cadence_s: float = 1.0,
    fault_injector: Optional[Any] = None,
    attack_plane: Optional[Any] = None,
    series_cap: Optional[int] = None,
    trace_sample: Optional[int] = None,
    expected_registration_rate_per_s: Optional[float] = None,
) -> Iterator[Observation]:
    """Watch ``testbed`` for the duration of the ``with`` block.

    Installs :meth:`Scraper.for_testbed`, with an :class:`SloEngine`
    over :func:`default_slos` subscribed before the baseline scrape, and,
    when ``trace_sample`` is
    given, a trace-context :class:`Tracer` (seeded from the host) whose
    finished trees go to a bounded :class:`TraceStore` keeping every
    failed or late trace plus 1/``trace_sample`` healthy ones.  Both are
    removed on exit, an exception included, and the scraper is detached
    from the testbed.  Scrapes and spans only read the simulated clock,
    so an observed arm spends exactly the nanoseconds of an unobserved
    one.  A block that exits normally leaves a quiescent testbed, which
    :func:`repro.sim.invariants.enforce` judges over the block's window.
    """
    host = testbed.host
    if trace_sample is not None and host.tracer is not None:
        raise RuntimeError("a tracer is already installed on this host")
    engine = SloEngine(default_slos(
        testbed,
        expected_registration_rate_per_s=expected_registration_rate_per_s,
    ))
    scraper = Scraper.for_testbed(
        testbed, cadence_s=cadence_s, fault_injector=fault_injector,
        series_cap=series_cap, attack_plane=attack_plane,
    ).subscribe(engine).install(host)
    store = None
    sojourn_base = len(testbed.gnb.sojourn_ms)
    since = invariants.baseline(testbed)
    try:
        if trace_sample is not None:
            store = TraceStore(cap=_TRACE_STORE_CAP, sample_every=trace_sample)
            host.tracer = Tracer(host.clock, trace_seed=host.rng.seed, store=store)
        observation = Observation(
            host.clock.now_ns, scraper, store, *module_maps(testbed),
            slos=engine.slos, alerts=engine.alerts,
            fault_plan=fault_injector.plan if fault_injector is not None else None,
        )
        yield observation
        observation.sojourns_ms = list(testbed.gnb.sojourn_ms[sojourn_base:])
        invariants.enforce(testbed, since)
    finally:
        scraper.uninstall(host)
        # Keep the Tsdb, drop what reaches the testbed.
        scraper.collect, scraper.observers = None, []
        if store is not None:
            host.tracer = None


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
    modules = testbed.paka.modules
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
    breakdown = registration_breakdown(root, *module_maps(testbed))
    return RegistrationTrace(
        root=root, outcome=outcome, breakdown=breakdown, stats_delta=stats_delta
    )
