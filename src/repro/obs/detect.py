"""Attack classification and alert-armed admission (ROADMAP item 4).

PR 8's survivability campaign found the blind spot this module closes:
a pure-queueing collapse at 400 atk/s drove the legitimate success rate
to 0.07 while the SLO engine fired **zero** alerts — every registration
eventually succeeded, and nothing watched the gNB-side sojourn.  Two
pieces close the loop from *seeing* an attack to *surviving* it:

* :class:`AttackClassifier` — folds the defender-side series the scraper
  already collects (per-gNB arrival skew, AUTS-resync and NAS-fuzz
  signature rates, accept fractions, sojourn-vs-success divergence) into
  a deterministic per-window verdict: one of :data:`VERDICTS`.
* :class:`AdmissionGovernor` — a scraper observer that arms or tunes the
  AMF's :class:`~repro.fivegc.admission.AdmissionController` at runtime:
  ingress defenses (per-source buckets, per-gNB guards) on attack
  verdicts, the overload breaker on sojourn burn, with hysteresis so a
  transient blip neither arms nor disarms anything.  The runtime-tunable
  per-source policy shape is the one 5G-WAVE's decentralized
  authorization argues for (PAPERS.md).

Everything is clockless bookkeeping over the Tsdb: classification and
governance read simulated time, never advance it and never draw from an
RNG, so a quiescent governor leaves golden clocks byte-identical and a
fixed ``(seed, storm, cadence)`` yields bit-identical verdicts and
actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fivegc.admission import AdmissionConfig, AdmissionController
from repro.obs.tsdb import NS_PER_S, Tsdb

#: The verdict classes, in priority order: a storm signature outranks
#: queueing (a botnet flood also queues — name the cause, not the
#: symptom); ``queueing_collapse`` is sojourn burn with no attack
#: signature; ``none`` is a healthy window.
VERDICTS: Tuple[str, ...] = (
    "suci_replay",
    "auts_resync",
    "nas_fuzz",
    "botnet_ddos",
    "queueing_collapse",
    "none",
)

#: Storm verdicts — the classes whose evidence is hostile-cell traffic.
ATTACK_VERDICTS: Tuple[str, ...] = (
    "suci_replay", "auts_resync", "nas_fuzz", "botnet_ddos",
)


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds for one classification window."""

    #: gNB names carrying hostile ingress (repro.security.attacks).
    attack_cell_prefix: str = "gnb-atk-"
    #: The survivability campaign's registration deadline (ms).
    deadline_ms: float = 250.0
    #: Lookback per verdict (seconds of scraped history).
    window_s: float = 4.0
    #: Hostile-cell arrival rate below this is noise, not a storm.
    min_attack_rate_per_s: float = 4.0
    #: A signature (resync / fuzz-error / accept) rate at least this
    #: fraction of the hostile arrival rate names the storm kind.
    signature_fraction: float = 0.3


@dataclass(frozen=True)
class Classification:
    """One per-window verdict with the evidence that produced it.

    ``exemplar_trace_ids`` cites victim-side traces: trace ids whose
    sojourn exemplars the legitimate cells recorded inside the verdict
    window.  Empty on ``none`` verdicts and on runs without a
    trace-context-armed tracer.
    """

    at_ns: int
    verdict: str
    evidence: Dict[str, float]
    exemplar_trace_ids: Tuple[str, ...] = ()


class AttackClassifier:
    """Deterministic per-window attack-class verdicts over a Tsdb.

    Pure reads: rates and windowed means over series the scraper already
    ingests.  The decision tree mirrors how the storms differ *at the
    defender*:

    * hostile-cell arrivals above the noise floor → a storm; its kind
      comes from signature fractions (resyncs ≈ arrivals for forged-AUTS,
      protocol errors ≈ half the arrivals for NAS fuzz, accepts ≈
      arrivals for a credentialed botnet, none of the above for replay);
    * no storm but legit sojourn at/over the deadline → queueing
      collapse (the class PR 8 could not see);
    * otherwise healthy.
    """

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config or DetectorConfig()

    # ------------------------------------------------------------ queries

    def _cell_rate(self, tsdb: Tsdb, name: str, window_ns: int, at_ns: int,
                   hostile: bool) -> float:
        """Summed per-second rate of ``name`` over (non-)hostile cells."""
        prefix = self.config.attack_cell_prefix
        total = 0.0
        for series in tsdb.series_named(name):
            labels = dict(series.labels)
            if labels.get("gnb", "").startswith(prefix) is hostile:
                total += tsdb.rate(name, window_ns, at_ns, **labels)
        return total

    def _total_rate(self, tsdb: Tsdb, name: str, window_ns: int,
                    at_ns: int) -> float:
        return sum(
            tsdb.rate(name, window_ns, at_ns, **dict(series.labels))
            for series in tsdb.series_named(name)
        )

    def _legit_sojourn_mean(self, tsdb: Tsdb, window_ns: int,
                            at_ns: int) -> Optional[float]:
        """Attempt-weighted mean sojourn across every legitimate cell."""
        prefix = self.config.attack_cell_prefix
        count = total = 0.0
        for series in tsdb.series_named("gnb_registration_sojourn_ms_count"):
            labels = dict(series.labels)
            if labels.get("gnb", "").startswith(prefix):
                continue
            count += tsdb.increase(series.name, window_ns, at_ns, **labels)
            total += tsdb.increase(
                "gnb_registration_sojourn_ms_sum", window_ns, at_ns, **labels
            )
        return total / count if count > 0 else None

    # ------------------------------------------------------------ verdict

    def classify_at(self, tsdb: Tsdb, at_ns: int) -> Classification:
        cfg = self.config
        window_ns = int(cfg.window_s * NS_PER_S)
        attack_rate = self._cell_rate(
            tsdb, "amf_nas_registration_arrivals_total", window_ns, at_ns,
            hostile=True,
        )
        sojourn_mean = self._legit_sojourn_mean(tsdb, window_ns, at_ns)
        evidence: Dict[str, float] = {
            "attack_arrival_rate_per_s": attack_rate,
            "legit_sojourn_mean_ms": (
                sojourn_mean if sojourn_mean is not None else 0.0
            ),
        }
        if attack_rate >= cfg.min_attack_rate_per_s:
            resync_frac = self._total_rate(
                tsdb, "amf_auth_resync_requests_total", window_ns, at_ns
            ) / attack_rate
            fuzz_frac = self._total_rate(
                tsdb, "amf_nas_protocol_errors_total", window_ns, at_ns
            ) / attack_rate
            accept_frac = self._cell_rate(
                tsdb, "amf_nas_registration_accepted_total", window_ns, at_ns,
                hostile=True,
            ) / attack_rate
            evidence.update(
                resync_fraction=resync_frac,
                fuzz_error_fraction=fuzz_frac,
                hostile_accept_fraction=accept_frac,
            )
            if resync_frac >= cfg.signature_fraction:
                verdict = "auts_resync"
            elif fuzz_frac >= cfg.signature_fraction:
                verdict = "nas_fuzz"
            elif accept_frac >= cfg.signature_fraction:
                verdict = "botnet_ddos"
            else:
                # Hostile volume with no credential, resync or protocol
                # signature: replayed captures failing authentication.
                verdict = "suci_replay"
        elif sojourn_mean is not None and sojourn_mean >= cfg.deadline_ms:
            verdict = "queueing_collapse"
        else:
            verdict = "none"
        exemplar_ids: Tuple[str, ...] = ()
        if verdict != "none":
            # Cite victim-side traces: sojourn exemplars the legitimate
            # cells recorded inside the verdict window (hostile cells'
            # own traffic is the weapon, not the evidence).
            prefix = cfg.attack_cell_prefix
            cited = set()
            for labels_items, _timeline in tsdb.exemplars_named(
                "gnb_registration_sojourn_ms"
            ):
                labels = dict(labels_items)
                if labels.get("gnb", "").startswith(prefix):
                    continue
                cited.update(
                    tsdb.exemplars_in_window(
                        "gnb_registration_sojourn_ms", window_ns, at_ns,
                        **labels,
                    )
                )
            exemplar_ids = tuple(sorted(cited))
        return Classification(
            at_ns=at_ns, verdict=verdict, evidence=evidence,
            exemplar_trace_ids=exemplar_ids,
        )


@dataclass(frozen=True)
class GovernorConfig:
    """Hysteresis and response shape for the closed loop.

    The response rates are the survivability-calibrated ones from
    ``repro.experiments.survivability._defense_configs`` — matched to the
    campaign's legitimate offered load so an armed response sheds the
    storm, not the subscribers.
    """

    #: Consecutive hot scrapes before arming.  1 by design: a verdict is
    #: already smoothed over the detector's multi-second window, and at
    #: storm rates every scrape of delay costs legitimate deadlines.
    arm_after: int = 1
    disarm_after: int = 8    # consecutive quiet scrapes before stand-down
    #: Consecutive *burning* scrapes while armed before adding the
    #: breaker.  Burn must persist — the long burn window keeps reading
    #: collapse-era sojourns for a while after recovery, and escalating
    #: then would shed legitimate initial attaches for nothing.
    escalate_after: int = 4
    # Ingress response (attack verdicts): per-source + per-gNB + global.
    source_rate_per_s: float = 0.25
    source_burst: float = 2.0
    gnb_rate_per_s: float = 6.0
    gnb_burst: float = 6.0
    bucket_rate_per_s: float = 50.0
    bucket_burst: float = 50.0
    # Overload response (queueing collapse / unattributed sojourn burn).
    breaker_max_per_s: float = 30.0
    breaker_window_s: float = 1.0
    breaker_cooldown_s: float = 2.0
    max_pending: int = 512


class AdmissionGovernor:
    """Scraper observer that arms/tunes AMF admission from verdicts.

    Subscribe via ``scraper.subscribe(governor)``; each scrape it
    classifies the fresh window and checks the sojourn SLOs' burn.  The
    loop is tighten-only while hot: attack verdicts arm the ingress
    defenses (per-source buckets + per-gNB guards + a global cap —
    shedding at the cell serving the storm), sojourn burn without an
    attack signature arms the overload breaker (TS 24.501 congestion
    control: shed fresh attaches, keep returning subscribers), and burn
    that persists after ingress arming escalates to the breaker too.
    ``disarm_after`` quiet scrapes restore the pre-governor baseline.

    Quiescent-path contract: a governor over a healthy testbed performs
    only Tsdb reads and integer bookkeeping — no clock advance, no RNG
    draw, no admission change — so golden clocks stay byte-identical.
    """

    def __init__(
        self,
        amf: Any,
        classifier: Optional[AttackClassifier] = None,
        slos: Sequence[Any] = (),
        config: Optional[GovernorConfig] = None,
    ) -> None:
        self.amf = amf
        self.classifier = classifier or AttackClassifier()
        #: Burn-rate objectives (typically the SojournSlo subset) whose
        #: firing counts as "hot" even without an attack signature.
        self.slos = list(slos)
        self.config = config or GovernorConfig()
        self._baseline_admission = amf.admission
        self._baseline_max_pending = amf.max_pending_sessions
        self.armed: Tuple[str, ...] = ()
        self.hot_streak = 0
        self.quiet_streak = 0
        self._burn_streak_armed = 0
        self.scrapes_seen = 0
        self.actions: List[Dict[str, Any]] = []

    # ------------------------------------------------------------- burn

    def _burning(self, tsdb: Tsdb, at_ns: int) -> bool:
        for slo in self.slos:
            for window in slo.windows:
                if (
                    slo.burn_rate(tsdb, window.long_ns, at_ns) >= window.factor
                    and slo.burn_rate(tsdb, window.short_ns, at_ns)
                    >= window.factor
                ):
                    return True
        return False

    # ---------------------------------------------------------- response

    def _admission_config(self, defenses: Tuple[str, ...]) -> AdmissionConfig:
        cfg = self.config
        kwargs: Dict[str, Any] = {}
        if "source" in defenses:
            kwargs.update(
                per_source_rate_per_s=cfg.source_rate_per_s,
                per_source_burst=cfg.source_burst,
                bucket_rate_per_s=cfg.bucket_rate_per_s,
                bucket_burst=cfg.bucket_burst,
            )
        if "gnb" in defenses:
            kwargs.update(
                gnb_rate_per_s=cfg.gnb_rate_per_s, gnb_burst=cfg.gnb_burst
            )
        if "breaker" in defenses:
            kwargs.update(
                breaker_max_per_s=cfg.breaker_max_per_s,
                breaker_window_s=cfg.breaker_window_s,
                breaker_cooldown_s=cfg.breaker_cooldown_s,
            )
        return AdmissionConfig(**kwargs)

    def _apply(self, action: str, verdict: str, defenses: Tuple[str, ...],
               at_ns: int) -> None:
        self.armed = defenses
        if defenses:
            self.amf.admission = AdmissionController(
                self._admission_config(defenses)
            )
            if "breaker" in defenses:
                self.amf.max_pending_sessions = self.config.max_pending
        else:
            self.amf.admission = self._baseline_admission
            self.amf.max_pending_sessions = self._baseline_max_pending
        self.actions.append(
            {
                "at_ns": at_ns,
                "action": action,
                "verdict": verdict,
                "defenses": list(defenses),
            }
        )

    # ---------------------------------------------------------- observer

    def on_scrape(self, tsdb: Tsdb, now_ns: int) -> None:
        self.scrapes_seen += 1
        verdict = self.classifier.classify_at(tsdb, now_ns).verdict
        burning = self._burning(tsdb, now_ns)
        hot = verdict != "none" or burning
        if hot:
            self.hot_streak += 1
            self.quiet_streak = 0
        else:
            self.quiet_streak += 1
            self.hot_streak = 0
        if self.armed and burning:
            self._burn_streak_armed += 1
        elif not burning:
            self._burn_streak_armed = 0

        cfg = self.config
        if hot and not self.armed and self.hot_streak >= cfg.arm_after:
            if verdict in ATTACK_VERDICTS:
                self._apply("arm", verdict, ("source", "gnb"), now_ns)
            else:
                # queueing_collapse, or sojourn burn with a healthy
                # verdict (divergence): shed load, keep returning UEs.
                self._apply("arm", verdict, ("breaker",), now_ns)
            self._burn_streak_armed = 0
        elif (
            self.armed
            and "breaker" not in self.armed
            and self._burn_streak_armed >= cfg.escalate_after
        ):
            # Ingress defenses did not stop a *sustained* burn: escalate.
            self._apply(
                "escalate", verdict, tuple(self.armed) + ("breaker",), now_ns
            )
            self._burn_streak_armed = 0
        elif self.armed and self.quiet_streak >= cfg.disarm_after:
            self._apply("stand_down", verdict, (), now_ns)
            self._burn_streak_armed = 0

    # ------------------------------------------------------------ export

    def to_dict(self, base_ns: int = 0) -> Dict[str, Any]:
        return {
            "armed": list(self.armed),
            "scrapes_seen": self.scrapes_seen,
            "actions": [
                {
                    "at_s": round((a["at_ns"] - base_ns) / NS_PER_S, 6),
                    "action": a["action"],
                    "verdict": a["verdict"],
                    "defenses": a["defenses"],
                }
                for a in self.actions
            ],
        }


# --------------------------------------------------------------- evaluation
