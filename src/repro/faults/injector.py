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


class FaultInjector:
    """Deterministic executor of one fault plan over one testbed run."""

    def __init__(self, testbed, plan: FaultPlan) -> None:
        self.testbed = testbed
        self.plan = plan
        self.base_ns: Optional[int] = None
        self._last_tick_ns = 0
        self._noise_region: Optional[EpcRegion] = None
        self._gated: List[HttpServer] = []
        by_kind = plan.by_kind()
        # Losses draw and spikes add, so only each kind's own order
        # matters to a frame's fate.
        self._link_windows = by_kind.get(FaultKind.LINK_LOSS, []) + by_kind.get(
            FaultKind.LATENCY_SPIKE, []
        )
        self._epc_windows = by_kind.get(FaultKind.EPC_PRESSURE, [])
        self._storm_windows = by_kind.get(FaultKind.AEX_STORM, [])
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
        self.base_ns = None

    def _servers(self) -> Dict[str, HttpServer]:
        servers: Dict[str, HttpServer] = dict(self.testbed.module_servers())
        for nf in self.testbed.core_nfs:
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

        Both syncs are exact no-ops outside their windows: ``_sync_epc``
        finds no active window and no noise region to release, and
        ``_book_aex_storms`` books each storm's overlap with the ticks'
        interval ``(last, now]``, zero when they miss — so a tick that
        jumps a whole window still books all of it.
        """
        rel = self._rel_ns()
        if self._epc_windows:
            self._sync_epc(rel)
        if self._storm_windows:
            self._book_aex_storms(self._last_tick_ns, rel)
        self._last_tick_ns = rel

    def _sync_epc(self, rel_ns: int) -> None:
        active = [w for w in self._epc_windows if w.active(rel_ns)]
        if not active:
            self._clear_noise()
            return
        epc = self.testbed.deployment.epc_manager
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
        modules = self.testbed.paka.modules
        for window in self._storm_windows:
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
            enclave.run_idle(extra_s)
            self.storm_aexs_booked += enclave.stats.aexs - before
