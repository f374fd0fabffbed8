"""Seeded, clock-driven fault plans.

A :class:`FaultPlan` is a pure value: a set of fault *windows* on the
simulated timeline, generated from ``(seed, horizon, rates)`` with a
private :class:`random.Random` — the testbed's own RNG streams are never
touched, so attaching a plan to a run cannot perturb fault-free
behaviour, and the same ``(seed, plan)`` pair replays bit-identically.

The fault kinds mirror the paper's robustness facts: an enclave crash
costs a Fig-7-scale (~1 minute) reload before the module answers again;
AEX storms multiply the Table III interrupt rates; EPC pressure pushes
the host past the contention threshold that produces Fig 8's paging
cliff; NF death, link loss and latency spikes exercise the SBI plane
the way Michaelides et al. stress the network layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from enum import Enum
from typing import Dict, List, Tuple

NS_PER_S = 1_000_000_000


class FaultKind(Enum):
    MODULE_CRASH = "module-crash"    # enclave dies; Fig-7-cost reload window
    NF_DEATH = "nf-death"            # core NF process dies, restarts later
    LINK_LOSS = "link-loss"          # frames dropped on the SBI bridge
    LATENCY_SPIKE = "latency-spike"  # extra per-frame transit latency
    EPC_PRESSURE = "epc-pressure"    # noisy neighbour fills the EPC
    AEX_STORM = "aex-storm"          # multiplied AEX interrupt rate


@dataclass(frozen=True)
class FaultWindow:
    """One fault, active on ``[start_ns, end_ns)`` of the run timeline."""

    kind: FaultKind
    target: str  # module / NF / bridge name
    start_ns: int
    end_ns: int
    # Kind-specific: loss probability (LINK_LOSS), extra µs per frame
    # (LATENCY_SPIKE), EPC fill fraction (EPC_PRESSURE), AEX rate
    # multiplier (AEX_STORM); unused for crash/death.
    magnitude: float = 0.0

    def active(self, rel_ns: int) -> bool:
        return self.start_ns <= rel_ns < self.end_ns

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / NS_PER_S


@dataclass(frozen=True)
class FaultRates:
    """Mean event rates, per simulated minute, for each fault kind."""

    module_crash_per_min: float = 0.0
    nf_death_per_min: float = 0.0
    link_loss_per_min: float = 0.0
    latency_spike_per_min: float = 0.0
    epc_pressure_per_min: float = 0.0
    aex_storm_per_min: float = 0.0

    def scaled(self, factor: float) -> "FaultRates":
        return FaultRates(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )

    @property
    def total_per_min(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))


# What each kind of fault can hit: the shielded modules, the core NFs
# that can die, and the SBI bridge.
_MODULE_TARGETS = ("eudm", "eausf", "eamf")
_NF_TARGETS = ("udr", "udm", "ausf", "smf")
_LINK_TARGETS = ("oai-bridge",)

#: A balanced mix exercising every fault kind; scale with ``.scaled()``.
BASELINE_RATES = FaultRates(
    module_crash_per_min=0.25,
    nf_death_per_min=0.25,
    link_loss_per_min=0.5,
    latency_spike_per_min=0.5,
    epc_pressure_per_min=0.25,
    aex_storm_per_min=0.25,
)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault windows for one run."""

    seed: int
    horizon_s: float
    windows: Tuple[FaultWindow, ...]

    @staticmethod
    def generate(seed: int, horizon_s: float, rates: FaultRates) -> "FaultPlan":
        """Draw a plan: Poisson arrivals per kind, kind-specific windows.

        Every draw comes from a private generator seeded from
        ``(seed, kind)``, so plans are reproducible and independent of
        the testbed RNG service.
        """
        windows: List[FaultWindow] = []

        def arrivals(salt: str, rate_per_min: float) -> List[Tuple[float, random.Random]]:
            if rate_per_min <= 0:
                return []
            rnd = random.Random(f"faultplan:{seed}:{salt}")
            rate_per_s = rate_per_min / 60.0
            out: List[Tuple[float, random.Random]] = []
            t = rnd.expovariate(rate_per_s)
            while t < horizon_s:
                out.append((t, rnd))
                t += rnd.expovariate(rate_per_s)
            return out

        def add(kind: FaultKind, target: str, start_s: float, dur_s: float,
                magnitude: float = 0.0) -> None:
            windows.append(
                FaultWindow(
                    kind=kind,
                    target=target,
                    start_ns=int(start_s * NS_PER_S),
                    end_ns=int((start_s + dur_s) * NS_PER_S),
                    magnitude=magnitude,
                )
            )

        for start, rnd in arrivals("module-crash", rates.module_crash_per_min):
            # The outage lasts a Fig-7-scale enclave reload (~1 min).
            reload_s = max(20.0, rnd.gauss(60.0, 4.0))
            add(FaultKind.MODULE_CRASH, rnd.choice(_MODULE_TARGETS), start, reload_s)
        for start, rnd in arrivals("aex-storm", rates.aex_storm_per_min):
            add(FaultKind.AEX_STORM, rnd.choice(_MODULE_TARGETS),
                start, rnd.uniform(5.0, 15.0), magnitude=rnd.uniform(5.0, 20.0))
        for start, rnd in arrivals("nf-death", rates.nf_death_per_min):
            add(FaultKind.NF_DEATH, rnd.choice(_NF_TARGETS),
                start, rnd.uniform(5.0, 15.0))
        for start, rnd in arrivals("link-loss", rates.link_loss_per_min):
            add(FaultKind.LINK_LOSS, rnd.choice(_LINK_TARGETS),
                start, rnd.uniform(2.0, 8.0), magnitude=rnd.uniform(0.3, 0.9))
        for start, rnd in arrivals("latency-spike", rates.latency_spike_per_min):
            add(FaultKind.LATENCY_SPIKE, rnd.choice(_LINK_TARGETS),
                start, rnd.uniform(2.0, 10.0),
                magnitude=rnd.uniform(30_000.0, 250_000.0))
        for start, rnd in arrivals("epc-pressure", rates.epc_pressure_per_min):
            add(FaultKind.EPC_PRESSURE, "epc", start,
                rnd.uniform(5.0, 20.0), magnitude=rnd.uniform(0.95, 1.0))

        windows.sort(key=lambda w: (w.start_ns, w.kind.value, w.target))
        return FaultPlan(seed=seed, horizon_s=horizon_s, windows=tuple(windows))

    # ------------------------------------------------------------- queries

    def by_kind(self) -> Dict[FaultKind, List[FaultWindow]]:
        out: Dict[FaultKind, List[FaultWindow]] = {}
        for window in self.windows:
            out.setdefault(window.kind, []).append(window)
        return out
