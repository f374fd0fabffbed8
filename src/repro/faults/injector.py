"""Attaches a :class:`FaultPlan` to a live testbed.

The injector works through three hooks that are ``None`` (zero cost) in
fault-free runs:

* ``BridgeNetwork.link_filter`` — drops frames / adds latency during
  link-loss and latency-spike windows,
* ``HttpServer.fault_gate`` — raises :class:`UnresponsiveError` while a
  module is reloading (MODULE_CRASH) or an NF process is dead (NF_DEATH),
* :meth:`FaultInjector.tick` — called by the driving loop between
  arrivals to sync EPC-pressure noise residency and book AEX-storm
  interrupts on the module enclaves.

All randomness comes from the ``faults.*`` RNG streams, drawn only while
a window is active, so the golden fault-free clocks stay bit-identical
and a given ``(seed, plan)`` replays exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faults.plan import FaultKind, FaultPlan, FaultWindow
from repro.net.http import HttpServer, UnresponsiveError
from repro.sgx.epc import EpcRegion
from repro.sim.sched import EventScheduler


class FaultInjector:
    """Deterministic executor of one fault plan over one testbed run."""

    def __init__(self, testbed, plan: FaultPlan) -> None:
        self.testbed = testbed
        self.plan = plan
        self.base_ns: Optional[int] = None
        self._last_tick_ns = 0
        self._noise_region: Optional[EpcRegion] = None
        self._gated: List[HttpServer] = []
        self._link_windows = [
            w for w in plan.windows
            if w.kind in (FaultKind.LINK_LOSS, FaultKind.LATENCY_SPIKE)
        ]
        self._epc_windows = [
            w for w in plan.windows if w.kind is FaultKind.EPC_PRESSURE
        ]
        self._storm_windows = [
            w for w in plan.windows if w.kind is FaultKind.AEX_STORM
        ]
        # Window-edge scheduler: tick() only runs the EPC / AEX-storm sync
        # scans while a matching window is (or was just) active; idle
        # ticks cost one heap-root comparison instead of a plan scan.
        self._sched: Optional[EventScheduler] = None
        self._epc_active = 0
        self._storm_active = 0
        self._storm_flush = False
        # Accounting surfaced by the availability experiment.
        self.frames_dropped = 0
        self.requests_refused = 0
        self.storm_aexs_booked = 0

    # -------------------------------------------------------------- metrics

    def collect_metrics(self, registry) -> None:
        """Snapshot injector accounting into a ``repro.obs`` registry."""
        labels = {"plan_seed": str(self.plan.seed)}
        registry.counter("fault_frames_dropped_total", **labels).set(
            self.frames_dropped
        )
        registry.counter("fault_requests_refused_total", **labels).set(
            self.requests_refused
        )
        registry.counter("fault_storm_aexs_total", **labels).set(
            self.storm_aexs_booked
        )

    # ------------------------------------------------------------ lifecycle

    def arm(self) -> "FaultInjector":
        """Anchor the plan at *now* and install the hooks."""
        if self.base_ns is not None:
            raise RuntimeError("injector already armed")
        clock = self.testbed.host.clock
        self.base_ns = clock.now_ns
        self._last_tick_ns = 0
        if self._link_windows:
            self.testbed.sbi.link_filter = self._link_filter
        sched = self._sched = EventScheduler()
        self._epc_active = 0
        self._storm_active = 0
        self._storm_flush = False
        for window in self._epc_windows:
            # Windows are active on [start, end): the start edge fires on
            # the first tick at/after start_ns; after the end edge the
            # lingering noise region keeps _sync_epc running once more to
            # release it.
            sched.schedule_at(window.start_ns, self._epc_edge_start)
            sched.schedule_at(window.end_ns, self._epc_edge_end)
        for window in self._storm_windows:
            # The storm books overlap with the *open* interval (from, to],
            # so the tick that crosses end_ns must still run one final
            # _book_aex_storms for the tail slice — the end edge sets
            # _storm_flush to request exactly that.
            sched.schedule_at(window.start_ns, self._storm_edge_start)
            sched.schedule_at(window.end_ns, self._storm_edge_end)
        for name, server in self._servers().items():
            gate = self._gate_for(name)
            if gate is not None:
                server.fault_gate = gate
                self._gated.append(server)
        return self

    def disarm(self) -> None:
        self.testbed.sbi.link_filter = None
        for server in self._gated:
            server.fault_gate = None
        self._gated.clear()
        self._clear_noise()
        self._sched = None
        self._epc_active = 0
        self._storm_active = 0
        self._storm_flush = False
        self.base_ns = None

    def _servers(self) -> Dict[str, HttpServer]:
        servers: Dict[str, HttpServer] = dict(self.testbed.module_servers())
        for nf in (
            self.testbed.nrf, self.testbed.udr, self.testbed.udm,
            self.testbed.ausf, self.testbed.amf, self.testbed.smf,
            self.testbed.upf,
        ):
            servers[nf.name] = nf.server
        return servers

    # ------------------------------------------------------------ hooks

    def _rel_ns(self) -> int:
        if self.base_ns is None:
            raise RuntimeError("injector not armed")
        return self.testbed.host.clock.now_ns - self.base_ns

    def _gate_for(self, target: str):
        windows = [
            w for w in self.plan.windows
            if w.target == target
            and w.kind in (FaultKind.MODULE_CRASH, FaultKind.NF_DEATH)
        ]
        if not windows:
            return None

        def gate(server: HttpServer) -> None:
            rel = self._rel_ns()
            for window in windows:
                if window.active(rel):
                    self.requests_refused += 1
                    raise UnresponsiveError(
                        f"{server.name} down ({window.kind.value}) until "
                        f"t+{window.end_ns / 1e9:.1f}s"
                    )

        return gate

    def _link_filter(self, src: str, dst: str, nbytes: int) -> Optional[float]:
        rel = self._rel_ns()
        extra_us = 0.0
        for window in self._link_windows:
            if not window.active(rel):
                continue
            if window.kind is FaultKind.LINK_LOSS:
                stream = self.testbed.host.rng.stream("faults.link")
                if stream.random() < window.magnitude:
                    self.frames_dropped += 1
                    return None
            else:  # LATENCY_SPIKE
                extra_us += window.magnitude
        return extra_us

    # ------------------------------------------------------------ ticking

    def tick(self) -> None:
        """Sync window-driven state; call between arrivals in the driving
        loop.  Idempotent at a given simulated time.

        With the edge scheduler armed, the per-tick scans only run while a
        matching window is active (or needs a final flush); skipped calls
        are exact no-ops — ``_sync_epc`` with no active window and no
        noise region does nothing, and ``_book_aex_storms`` outside every
        storm window books zero overlap.
        """
        rel = self._rel_ns()
        sched = self._sched
        if sched is None:
            self._sync_epc(rel)
            self._book_aex_storms(self._last_tick_ns, rel)
        else:
            sched.run_due(rel)
            if self._epc_active or self._noise_region is not None:
                self._sync_epc(rel)
            if self._storm_active or self._storm_flush:
                self._storm_flush = False
                self._book_aex_storms(self._last_tick_ns, rel)
        self._last_tick_ns = rel

    def _epc_edge_start(self) -> None:
        self._epc_active += 1

    def _epc_edge_end(self) -> None:
        self._epc_active -= 1

    def _storm_edge_start(self) -> None:
        self._storm_active += 1

    def _storm_edge_end(self) -> None:
        self._storm_active -= 1
        self._storm_flush = True

    def _sync_epc(self, rel_ns: int) -> None:
        epc = getattr(self.testbed.deployment, "epc_manager", None)
        if epc is None:
            return
        active = [
            w for w in self.plan.windows
            if w.kind is FaultKind.EPC_PRESSURE and w.active(rel_ns)
        ]
        if not active:
            self._clear_noise()
            return
        fraction = max(w.magnitude for w in active)
        if self._noise_region is None:
            self._noise_region = epc.create_region(
                "fault.noise", epc.capacity_bytes
            )
        # The noisy neighbour's paging happens on its own CPU time: no
        # clock charge here, but its residency (and the module pages it
        # evicts) push the Gramine runtimes into the contention regime.
        target = int(fraction * epc.capacity_pages)
        others = epc.resident_pages - self._noise_region.resident_pages
        want = max(0, target - others)
        have = self._noise_region.resident_pages
        if want > have:
            epc.fault_in(self._noise_region, want - have, charge_time=False)
        elif want < have:
            self._noise_region.resident_pages = want

    def _clear_noise(self) -> None:
        if self._noise_region is None:
            return
        epc = self.testbed.deployment.epc_manager
        epc.release_region(self._noise_region.name)
        self._noise_region = None

    def _book_aex_storms(self, from_ns: int, to_ns: int) -> None:
        if to_ns <= from_ns:
            return
        modules = getattr(self.testbed.paka, "modules", None) if self.testbed.paka else None
        if not modules:
            return
        for window in self.plan.windows:
            if window.kind is not FaultKind.AEX_STORM:
                continue
            module = modules.get(window.target)
            enclave = getattr(module.runtime, "enclave", None) if module else None
            if enclave is None:
                continue
            overlap_ns = min(to_ns, window.end_ns) - max(from_ns, window.start_ns)
            if overlap_ns <= 0:
                continue
            # The storm multiplies the interrupt rate: book the surplus
            # (multiplier − 1) on top of the idle baseline the testbed
            # already accounts.  Time itself already passed.
            extra_s = (overlap_ns / 1e9) * max(0.0, window.magnitude - 1.0)
            before = enclave.stats.aexs
            enclave.run_idle(extra_s, advance_clock=False)
            self.storm_aexs_booked += enclave.stats.aexs - before
