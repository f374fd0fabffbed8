"""Periodic pull of metrics registries into a :class:`~repro.obs.tsdb.Tsdb`.

A :class:`Scraper` owns a *collect* callable that snapshots any
``MetricsRegistry`` producer — the usual one wraps
:func:`repro.obs.collect.collect_testbed_metrics`, which reaches the
HTTP servers/clients, NF circuit breakers, enclave ``SgxStats`` and the
fault injector in one pull.  The scraper is driven by ``host.tick()``
calls from the simulation (end of each registration, storm event and
``Testbed.idle`` slice); it samples whenever simulated time has crossed
the next cadence-grid deadline.

Scrapes are pull-only: they never advance the simulated clock and never
draw randomness, so an armed scraper leaves golden clocks byte-identical.
The testbed scraper reuses one persistent registry across scrapes
(metrics allocated once, re-``set`` per snapshot); counter reset banking
and histogram series re-adoption keep restarted producers monotone.
When no scraper is installed ``host.tick()`` does nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import NS_PER_S, Tsdb


class Scraper:
    """Samples a registry producer on a simulated-time cadence."""

    __slots__ = ("clock", "collect", "tsdb", "cadence_ns",
                 "scrapes", "observers", "_base_ns", "_next_ns")

    def __init__(
        self,
        clock: Any,
        collect: Callable[[], MetricsRegistry],
        cadence_s: float = 1.0,
        series_cap: Optional[int] = None,
    ) -> None:
        cadence_ns = int(round(cadence_s * NS_PER_S))
        if cadence_ns <= 0:
            raise ValueError(f"cadence must be positive, got {cadence_s}")
        self.clock = clock
        self.collect = collect
        self.tsdb = Tsdb(cap=series_cap)
        self.cadence_ns = cadence_ns
        self.scrapes = 0
        # On-line consumers of the freshly ingested Tsdb (e.g. the
        # :class:`repro.obs.detect.AdmissionGovernor`).  Observers run
        # after each ingest with the same timestamp; they must be pure
        # readers of simulated time — the golden-clock contract extends
        # to them.
        self.observers: list = []
        # Deadlines live on a grid anchored at install time, so the
        # sample *schedule* is a pure function of (anchor, cadence) even
        # though actual sample timestamps are the sim times of the
        # tick() calls that crossed each deadline.
        self._base_ns = 0
        self._next_ns = 0

    def install(self, host: Any) -> "Scraper":
        """Attach to ``host.monitor``, anchor the grid, take a baseline."""
        if getattr(host, "monitor", None) is not None:
            raise RuntimeError("a monitor is already installed on this host")
        host.monitor = self
        self._base_ns = self.clock.now_ns
        self._next_ns = self._base_ns + self.cadence_ns
        self.scrape()
        return self

    def uninstall(self, host: Any) -> None:
        if host.monitor is self:
            host.monitor = None

    def subscribe(self, observer: Any) -> "Scraper":
        """Register an ``on_scrape(tsdb, now_ns)`` observer."""
        self.observers.append(observer)
        return self

    def scrape(self) -> None:
        """Take one sample now, regardless of the cadence grid."""
        now_ns = self.clock.now_ns
        self.tsdb.ingest(self.collect(), now_ns)
        self.scrapes += 1
        for observer in self.observers:
            observer.on_scrape(self.tsdb, now_ns)

    def tick(self) -> None:
        """Sample iff simulated time crossed the next grid deadline.

        At most one scrape per tick: with coarse tick sites (a paced
        arrival loop) several deadlines may have elapsed, but replaying
        them would only duplicate the same cumulative snapshot at
        fabricated timestamps.  The deadline then re-aligns to the grid.
        """
        now = self.clock.now_ns
        if now < self._next_ns:
            return
        self.scrape()
        elapsed = now - self._base_ns
        self._next_ns = (
            self._base_ns + (elapsed // self.cadence_ns + 1) * self.cadence_ns
        )

    @classmethod
    def for_testbed(
        cls,
        testbed: Any,
        cadence_s: float = 1.0,
        fault_injector: Optional[Any] = None,
        series_cap: Optional[int] = None,
        attack_plane: Optional[Any] = None,
    ) -> "Scraper":
        """Scraper over the whole testbed (plus optional fault injector
        and/or adversarial :class:`~repro.security.attacks.AttackPlane`,
        whose per-kind outcome counters fold into the same registry).

        The scraper owns one *persistent* registry reused across scrapes:
        metric objects and their label keys are allocated on the first
        pull and every later snapshot just re-``set``s them — the metric
        side of the zero-alloc observability work.  Persistence is what
        :meth:`~repro.obs.metrics.Counter.set`'s reset banking and
        :meth:`~repro.obs.metrics.MetricsRegistry.histogram_from_series`
        re-adoption were designed for, so restarted producers (an NF
        dying under fault injection) stay correctly monotone.
        """
        from repro.obs.collect import collect_testbed_metrics

        registry = MetricsRegistry()

        def collect() -> MetricsRegistry:
            collect_testbed_metrics(
                testbed, registry=registry, fault_injector=fault_injector
            )
            if attack_plane is not None:
                attack_plane.collect_metrics(registry)
            return registry

        return cls(
            testbed.host.clock,
            collect,
            cadence_s=cadence_s,
            series_cap=series_cap,
        )
