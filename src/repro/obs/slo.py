"""Declarative SLOs with multi-window burn-rate alerting over a Tsdb.

Objectives come from the paper's own envelope:

* **registration-success** — the control plane must register ≥ 99 % of
  attempting UEs (a :class:`RatioSlo` over the gNB attempt/success
  counters).
* **stable-latency-<module>** — each shielded module's stable total
  latency L_T must stay within the paper's Table II overhead budget,
  ≤ 2.9× its container baseline (a :class:`ThresholdSlo` over the
  windowed mean of the module server's ``http_lt_us`` histogram).

Alerting follows the multi-window multi-burn-rate recipe (Google SRE
workbook, ch. 5): an alert fires when the burn rate exceeds a factor
over **both** a long and a short window — the long window supplies
confidence, the short one makes the alert resolve quickly once the fault
clears.  Burn rate 1.0 means "consuming exactly the error budget".

Everything is evaluated over the :class:`~repro.obs.tsdb.Tsdb` scrape
timeline, replaying the recorded simulated timestamps — the engine is a
pure function of the Tsdb contents, so a fixed ``(seed, plan, cadence)``
yields bit-identical alerts, including firing/resolve timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.tsdb import NS_PER_S, Tsdb


@dataclass(frozen=True)
class BurnRateWindow:
    """One (long, short) window pair with its firing factor."""

    name: str        # "fast" / "slow"
    long_s: float
    short_s: float
    factor: float    # fire when burn >= factor on BOTH windows

    @property
    def long_ns(self) -> int:
        return int(self.long_s * NS_PER_S)

    @property
    def short_ns(self) -> int:
        return int(self.short_s * NS_PER_S)


#: Window pairs scaled to the availability experiment's 180 s horizon the
#: way the SRE workbook's 1 h/5 m + 6 h/30 m pairs scale to a 30 d budget.
RATIO_WINDOWS: Tuple[BurnRateWindow, ...] = (
    BurnRateWindow("fast", long_s=60.0, short_s=15.0, factor=4.0),
    BurnRateWindow("slow", long_s=120.0, short_s=30.0, factor=1.5),
)
LATENCY_WINDOWS: Tuple[BurnRateWindow, ...] = (
    BurnRateWindow("fast", long_s=30.0, short_s=10.0, factor=1.5),
    BurnRateWindow("slow", long_s=90.0, short_s=30.0, factor=1.0),
)
#: Sojourn windows are tight because storms are short: the survivability
#: campaign's attack window is ~12 s, so a 60 s long window would never
#: confirm inside it.  Burn 1.0 = mean sojourn at the deadline; the slow
#: pair fires at 0.6 (60 % of the deadline) for early warning.
SOJOURN_WINDOWS: Tuple[BurnRateWindow, ...] = (
    BurnRateWindow("fast", long_s=6.0, short_s=2.0, factor=1.0),
    BurnRateWindow("slow", long_s=30.0, short_s=10.0, factor=0.6),
)
#: Liveness windows: burn is the shortfall of the observed attempt rate
#: against the expected floor, so factor 0.95 means "95 % of expected
#: traffic has vanished" — a starved gNB, not a noisy one.
LIVENESS_WINDOWS: Tuple[BurnRateWindow, ...] = (
    BurnRateWindow("fast", long_s=20.0, short_s=5.0, factor=0.95),
)

#: The registration deadline (ms of simulated gNB-side sojourn, the UE's
#: scheduled arrival → outcome) — the number a user would call "the
#: attach worked".  ≈5× the unloaded setup time: generous against
#: jitter, unforgiving against storm-induced queueing.  The sojourn SLO
#: burns against it, the classifier calls a queueing collapse at it, the
#: trace store keeps every registration over it, and the survivability
#: campaign counts a legitimate success only within it.
REGISTRATION_SOJOURN_DEADLINE_MS = 250.0

#: Container-mode stable L_T per module (µs), the Fig 9 / Table II
#: baseline the 2.9× stable-overhead objective multiplies.
CONTAINER_BASELINE_LT_US: Dict[str, float] = {
    "eudm": 61.0,
    "eausf": 55.0,
    "eamf": 48.1,
}

#: Table II: the worst consolidated *stable* L_T overhead factor the
#: paper accepts for SGX-shielded modules.
TABLE2_STABLE_FACTOR = 2.9

#: The good/total objective a :class:`RatioSlo` holds: a 1 % error budget.
RATIO_OBJECTIVE = 0.99


class RatioSlo:
    """Good/total ratio objective (registration success ≥ 99 %).

    Burn rate = observed bad fraction over the window divided by the
    error budget ``1 - RATIO_OBJECTIVE``; 0.0 when the window saw no
    traffic.
    """

    windows = RATIO_WINDOWS

    def __init__(
        self,
        name: str,
        good: Tuple[str, Mapping[str, str]],
        total: Tuple[str, Mapping[str, str]],
    ) -> None:
        self.name = name
        self.good = (good[0], dict(good[1]))
        self.total = (total[0], dict(total[1]))

    def burn_rate(self, tsdb: Tsdb, window_ns: int, at_ns: int) -> float:
        total_name, total_labels = self.total
        total_inc = tsdb.increase(total_name, window_ns, at_ns, **total_labels)
        if total_inc <= 0:
            return 0.0
        good_name, good_labels = self.good
        good_inc = tsdb.increase(good_name, window_ns, at_ns, **good_labels)
        bad_fraction = max(0.0, 1.0 - good_inc / total_inc)
        return bad_fraction / (1.0 - RATIO_OBJECTIVE)

    def describe(self) -> str:
        return f"{self.name}: good/total >= {RATIO_OBJECTIVE:g}"


class ThresholdSlo:
    """Windowed-mean ceiling objective (e.g. L_T ≤ 2.9× baseline).

    Burn rate = windowed mean (Δ``_sum``/Δ``_count`` of the histogram)
    divided by the limit; 0.0 when the window saw no new observations —
    an idle (or dead) producer is a *traffic* problem, which the ratio
    SLO owns, not a latency one.
    """

    windows = LATENCY_WINDOWS

    def __init__(
        self,
        name: str,
        basename: str,
        labels: Mapping[str, str],
        limit_us: float,
    ) -> None:
        if limit_us <= 0:
            raise ValueError(f"limit must be positive, got {limit_us}")
        self.name = name
        self.basename = basename
        self.labels = dict(labels)
        self.limit_us = limit_us

    def burn_rate(self, tsdb: Tsdb, window_ns: int, at_ns: int) -> float:
        mean = tsdb.windowed_mean(self.basename, window_ns, at_ns, **self.labels)
        if mean is None:
            return 0.0
        return mean / self.limit_us

    def describe(self) -> str:
        return f"{self.name}: mean {self.basename} <= {self.limit_us:g} us"


class SojournSlo:
    """gNB-side registration-sojourn ceiling (attempt → outcome).

    The blind spot this closes: a pure-queueing collapse leaves every
    registration *eventually* succeeding, so the success-ratio SLO reads
    healthy while the sojourn deadline dies.  Burn rate = windowed mean
    of the ``gnb_registration_sojourn_ms`` histogram divided by
    :data:`REGISTRATION_SOJOURN_DEADLINE_MS`; 0.0 when the window saw no
    attempts (starvation is the liveness SLO's problem, same split as
    :class:`ThresholdSlo`).
    """

    basename = "gnb_registration_sojourn_ms"
    windows = SOJOURN_WINDOWS

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)

    def burn_rate(self, tsdb: Tsdb, window_ns: int, at_ns: int) -> float:
        mean = tsdb.windowed_mean(self.basename, window_ns, at_ns, **self.labels)
        if mean is None:
            return 0.0
        return mean / REGISTRATION_SOJOURN_DEADLINE_MS

    def describe(self) -> str:
        return (
            f"{self.name}: mean {self.basename} <= "
            f"{REGISTRATION_SOJOURN_DEADLINE_MS:g} ms"
        )


class LivenessSlo:
    """Traffic-liveness floor: the expected attempt rate must keep flowing.

    :class:`RatioSlo` reads a zero-attempt window as burn 0.0, so a
    fully starved gNB — the worst failure mode — looks healthy.  This
    companion objective burns on the *shortfall*: burn = 1 − rate/floor,
    clamped at 0.  It stays silent until the counter has at least two
    samples inside the window, so a freshly armed scraper cannot fire
    before traffic had any chance to appear.
    """

    windows = LIVENESS_WINDOWS

    def __init__(
        self,
        name: str,
        total: Tuple[str, Mapping[str, str]],
        min_rate_per_s: float,
    ) -> None:
        if min_rate_per_s <= 0:
            raise ValueError(
                f"min rate must be positive, got {min_rate_per_s}"
            )
        self.name = name
        self.total = (total[0], dict(total[1]))
        self.min_rate_per_s = min_rate_per_s

    def burn_rate(self, tsdb: Tsdb, window_ns: int, at_ns: int) -> float:
        total_name, total_labels = self.total
        series = tsdb.get(total_name, **total_labels)
        if series is None or len(series.window(at_ns - window_ns, at_ns)) < 2:
            return 0.0
        rate = tsdb.rate(total_name, window_ns, at_ns, **total_labels)
        return max(0.0, 1.0 - rate / self.min_rate_per_s)

    def describe(self) -> str:
        return (
            f"{self.name}: rate {self.total[0]} >= {self.min_rate_per_s:g}/s"
        )


@dataclass
class Alert:
    """One firing of an SLO's burn-rate rule, on simulated time.

    ``exemplar_trace_ids`` cites the traces behind the page: every trace
    id whose exemplar landed in the SLO's histogram (same basename +
    labels) inside the long window while the alert was firing.  Empty
    unless the run carried a trace-context-armed tracer.
    """

    slo: str
    window: str
    fired_at_ns: int
    resolved_at_ns: Optional[int] = None
    peak_burn: float = 0.0
    exemplar_trace_ids: List[str] = field(default_factory=list)

    @property
    def resolved(self) -> bool:
        return self.resolved_at_ns is not None

    def cite_exemplars(self, trace_ids: Sequence[str]) -> None:
        """Union-merge cited trace ids, kept sorted and unique."""
        if trace_ids:
            self.exemplar_trace_ids = sorted(
                set(self.exemplar_trace_ids).union(trace_ids)
            )

    def to_dict(self, base_ns: int = 0) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "window": self.window,
            "fired_at_ns": self.fired_at_ns,
            "fired_at_s": round((self.fired_at_ns - base_ns) / NS_PER_S, 6),
            "resolved_at_ns": self.resolved_at_ns,
            "resolved_at_s": (
                None if self.resolved_at_ns is None
                else round((self.resolved_at_ns - base_ns) / NS_PER_S, 6)
            ),
            "peak_burn": round(self.peak_burn, 6),
            "exemplar_trace_ids": list(self.exemplar_trace_ids),
        }


class SloEngine:
    """Replays a Tsdb's scrape timeline against a set of SLOs."""

    def __init__(self, slos: Sequence[Any]) -> None:
        self.slos = list(slos)

    def evaluate(self, tsdb: Tsdb) -> List[Alert]:
        """All alerts over the scrape timeline, in firing order.

        An alert opens at the first scrape where the burn rate meets the
        window factor on both the long and the short window, and resolves
        at the first later scrape where either drops below.  Alerts still
        active at the last scrape are returned unresolved.
        """
        alerts: List[Alert] = []
        open_alerts: Dict[Tuple[str, str], Alert] = {}
        for at_ns in tsdb.scrape_times:
            for slo in self.slos:
                for window in slo.windows:
                    key = (slo.name, window.name)
                    long_burn = slo.burn_rate(tsdb, window.long_ns, at_ns)
                    firing = long_burn >= window.factor and (
                        slo.burn_rate(tsdb, window.short_ns, at_ns)
                        >= window.factor
                    )
                    alert = open_alerts.get(key)
                    if firing:
                        if alert is None:
                            alert = Alert(
                                slo=slo.name, window=window.name,
                                fired_at_ns=at_ns, peak_burn=long_burn,
                            )
                            open_alerts[key] = alert
                            alerts.append(alert)
                        elif long_burn > alert.peak_burn:
                            alert.peak_burn = long_burn
                        # Cite the traces behind the burn: exemplars the
                        # SLO's own histogram recorded inside the long
                        # window.  SLOs without a histogram basename
                        # (ratio/liveness) have nothing to cite.
                        basename = getattr(slo, "basename", None)
                        if basename is not None:
                            alert.cite_exemplars(
                                tsdb.exemplars_in_window(
                                    basename, window.long_ns, at_ns,
                                    **getattr(slo, "labels", {}),
                                )
                            )
                    elif alert is not None:
                        alert.resolved_at_ns = at_ns
                        del open_alerts[key]
        return alerts


def default_slos(
    testbed: Any,
    expected_registration_rate_per_s: Optional[float] = None,
) -> List[Any]:
    """The paper-derived objectives for one testbed.

    On the testbed's gNB: the ≥99 % success ratio, the sojourn
    deadline, and — when the caller declares the workload's expected
    attempt rate — a traffic-liveness floor that catches full starvation
    (the case the ratio SLO reads as burn 0).  Then the Table II latency
    ceiling of each shielded module.
    """
    gnb = {"gnb": testbed.gnb.name}
    slos: List[Any] = [
        RatioSlo(
            "registration-success",
            good=("gnb_registrations_succeeded_total", gnb),
            total=("gnb_registrations_attempted_total", gnb),
        ),
        SojournSlo("registration-sojourn", labels=gnb),
    ]
    if expected_registration_rate_per_s is not None:
        slos.append(
            LivenessSlo(
                "registration-liveness",
                total=("gnb_registrations_attempted_total", gnb),
                min_rate_per_s=expected_registration_rate_per_s,
            )
        )
    for module, server in sorted(testbed.module_servers().items()):
        baseline = CONTAINER_BASELINE_LT_US.get(module)
        if baseline is None:
            continue
        slos.append(
            ThresholdSlo(
                f"stable-latency-{module}",
                basename="http_lt_us",
                labels={"server": server.name, "component": module},
                limit_us=TABLE2_STABLE_FACTOR * baseline,
            )
        )
    return slos
