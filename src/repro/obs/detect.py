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
from repro.obs.slo import REGISTRATION_SOJOURN_DEADLINE_MS
from repro.obs.tsdb import NS_PER_S, Tsdb
from repro.security.attacks import ATTACK_CELL_PREFIX

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


#: Lookback per verdict (seconds of scraped history).
_WINDOW_NS = int(4.0 * NS_PER_S)
#: Hostile-cell arrival rate below this is noise, not a storm.
_MIN_ATTACK_RATE_PER_S = 4.0
#: A signature (resync / fuzz-error / accept) rate at least this fraction
#: of the hostile arrival rate names the storm kind.
_SIGNATURE_FRACTION = 0.3


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

    # ------------------------------------------------------------ queries

    def _cell_rate(self, tsdb: Tsdb, name: str, at_ns: int,
                   hostile: bool) -> float:
        """Summed per-second rate of ``name`` over (non-)hostile cells."""
        total = 0.0
        for series in tsdb.series_named(name):
            labels = dict(series.labels)
            if labels.get("gnb", "").startswith(ATTACK_CELL_PREFIX) is hostile:
                total += tsdb.rate(name, _WINDOW_NS, at_ns, **labels)
        return total

    def _total_rate(self, tsdb: Tsdb, name: str, at_ns: int) -> float:
        return sum(
            tsdb.rate(name, _WINDOW_NS, at_ns, **dict(series.labels))
            for series in tsdb.series_named(name)
        )

    def _legit_sojourn_mean(self, tsdb: Tsdb, at_ns: int) -> Optional[float]:
        """Attempt-weighted mean sojourn across every legitimate cell."""
        count = total = 0.0
        for series in tsdb.series_named("gnb_registration_sojourn_ms_count"):
            labels = dict(series.labels)
            if labels.get("gnb", "").startswith(ATTACK_CELL_PREFIX):
                continue
            count += tsdb.increase(series.name, _WINDOW_NS, at_ns, **labels)
            total += tsdb.increase(
                "gnb_registration_sojourn_ms_sum", _WINDOW_NS, at_ns, **labels
            )
        return total / count if count > 0 else None

    # ------------------------------------------------------------ verdict

    def classify_at(self, tsdb: Tsdb, at_ns: int) -> Classification:
        attack_rate = self._cell_rate(
            tsdb, "amf_nas_registration_arrivals_total", at_ns, hostile=True
        )
        sojourn_mean = self._legit_sojourn_mean(tsdb, at_ns)
        evidence: Dict[str, float] = {
            "attack_arrival_rate_per_s": attack_rate,
            "legit_sojourn_mean_ms": (
                sojourn_mean if sojourn_mean is not None else 0.0
            ),
        }
        if attack_rate >= _MIN_ATTACK_RATE_PER_S:
            resync_frac = self._total_rate(
                tsdb, "amf_auth_resync_requests_total", at_ns
            ) / attack_rate
            fuzz_frac = self._total_rate(
                tsdb, "amf_nas_protocol_errors_total", at_ns
            ) / attack_rate
            accept_frac = self._cell_rate(
                tsdb, "amf_nas_registration_accepted_total", at_ns, hostile=True
            ) / attack_rate
            evidence.update(
                resync_fraction=resync_frac,
                fuzz_error_fraction=fuzz_frac,
                hostile_accept_fraction=accept_frac,
            )
            if resync_frac >= _SIGNATURE_FRACTION:
                verdict = "auts_resync"
            elif fuzz_frac >= _SIGNATURE_FRACTION:
                verdict = "nas_fuzz"
            elif accept_frac >= _SIGNATURE_FRACTION:
                verdict = "botnet_ddos"
            else:
                # Hostile volume with no credential, resync or protocol
                # signature: replayed captures failing authentication.
                verdict = "suci_replay"
        elif (
            sojourn_mean is not None
            and sojourn_mean >= REGISTRATION_SOJOURN_DEADLINE_MS
        ):
            verdict = "queueing_collapse"
        else:
            verdict = "none"
        exemplar_ids: Tuple[str, ...] = ()
        if verdict != "none":
            # Cite victim-side traces: sojourn exemplars the legitimate
            # cells recorded inside the verdict window (hostile cells'
            # own traffic is the weapon, not the evidence).
            cited = set()
            for labels_items, _timeline in tsdb.exemplars_named(
                "gnb_registration_sojourn_ms"
            ):
                labels = dict(labels_items)
                if labels.get("gnb", "").startswith(ATTACK_CELL_PREFIX):
                    continue
                cited.update(
                    tsdb.exemplars_in_window(
                        "gnb_registration_sojourn_ms", _WINDOW_NS, at_ns,
                        **labels,
                    )
                )
            exemplar_ids = tuple(sorted(cited))
        return Classification(
            at_ns=at_ns, verdict=verdict, evidence=evidence,
            exemplar_trace_ids=exemplar_ids,
        )


#: What each defense the governor arms sets on the AMF's
#: :class:`AdmissionConfig`.  The rates are matched to the survivability
#: campaign's legitimate offered load (≈2.5 registrations/s through one
#: gNB), so an armed response sheds the storm, not the subscribers;
#: :mod:`repro.experiments.survivability` sweeps the same numbers as its
#: static arms.
DEFENSE_FIELDS: Dict[str, Dict[str, float]] = {
    # Ingress (attack verdicts): per-source buckets plus a global cap...
    "source": {
        "per_source_rate_per_s": 0.25, "per_source_burst": 2.0,
        "bucket_rate_per_s": 50.0, "bucket_burst": 50.0,
    },
    # ...and per-gNB guards, shedding at the cell serving the storm.
    "gnb": {"gnb_rate_per_s": 6.0, "gnb_burst": 6.0},
    # Overload (queueing collapse / unattributed sojourn burn).
    "breaker": {
        "breaker_max_per_s": 30.0, "breaker_window_s": 1.0,
        "breaker_cooldown_s": 2.0,
    },
}
#: The AMF's pending-session cap while the breaker is armed.
BREAKER_MAX_PENDING = 512

# Hysteresis.  A hot scrape arms at once: a verdict is already smoothed
# over the detector's multi-second window, and at storm rates every
# scrape of delay costs legitimate deadlines.
_DISARM_AFTER = 8  # consecutive quiet scrapes before stand-down
#: Consecutive *burning* scrapes while armed before adding the breaker.
#: Burn must persist — the long burn window keeps reading collapse-era
#: sojourns for a while after recovery, and escalating then would shed
#: legitimate initial attaches for nothing.
_ESCALATE_AFTER = 4


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
    Eight quiet scrapes in a row restore the pre-governor baseline.

    Quiescent-path contract: a governor over a healthy testbed performs
    only Tsdb reads and integer bookkeeping — no clock advance, no RNG
    draw, no admission change — so golden clocks stay byte-identical.
    """

    def __init__(
        self,
        amf: Any,
        classifier: Optional[AttackClassifier] = None,
        slos: Sequence[Any] = (),
    ) -> None:
        self.amf = amf
        self.classifier = classifier or AttackClassifier()
        #: Burn-rate objectives (typically the SojournSlo subset) whose
        #: firing counts as "hot" even without an attack signature.
        self.slos = list(slos)
        self._baseline_admission = amf.admission
        self._baseline_max_pending = amf.max_pending_sessions
        self.armed: Tuple[str, ...] = ()
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

    def _apply(self, action: str, verdict: str, defenses: Tuple[str, ...],
               at_ns: int) -> None:
        self.armed = defenses
        if defenses:
            fields: Dict[str, float] = {}
            for defense in defenses:
                fields.update(DEFENSE_FIELDS[defense])
            self.amf.admission = AdmissionController(AdmissionConfig(**fields))
            if "breaker" in defenses:
                self.amf.max_pending_sessions = BREAKER_MAX_PENDING
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
        self.quiet_streak = 0 if hot else self.quiet_streak + 1
        if self.armed and burning:
            self._burn_streak_armed += 1
        elif not burning:
            self._burn_streak_armed = 0

        if hot and not self.armed:
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
            and self._burn_streak_armed >= _ESCALATE_AFTER
        ):
            # Ingress defenses did not stop a *sustained* burn: escalate.
            self._apply(
                "escalate", verdict, tuple(self.armed) + ("breaker",), now_ns
            )
            self._burn_streak_armed = 0
        elif self.armed and self.quiet_streak >= _DISARM_AFTER:
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
