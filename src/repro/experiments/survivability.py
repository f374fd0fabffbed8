"""E-ATTACK: control-plane survivability under adversarial signaling.

The P-AKA enclaves shield AKA *secrets*; this campaign measures what
shields AKA *capacity*.  Each arm replays the same seeded signaling
storm (SUCI replay, forged-AUTS resync, NAS fuzz, botnet registration —
:func:`repro.security.attacks.generate_storm`) against a warmed SGX
slice while a paced population of legitimate UEs registers through the
tracking area's own gNB, and sweeps attack rate × AMF admission-control
configuration.  The survivability curve per arm: legitimate success
rate against a sojourn deadline, tail latency, EENTER burn in the
enclave modules, admission shed counters, and how many paper-derived
SLO alerts fired.

Determinism: the storm schedule is a pure value of ``(seed, horizon,
rate)`` drawn from a private ``random.Random``; the attack plane's UE
population lives on reserved MSIN prefixes with disjoint RNG streams;
admission control is clockless arithmetic.  A fixed ``(seed, config)``
therefore reproduces the report byte-for-byte, and the rate-0 disarmed
arm spends exactly the nanoseconds of an attack-free run (golden clocks
hold).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import BandCheck, ExperimentReport, warmed_testbed
from repro.experiments.stats import percentiles, summarize
from repro.fivegc.admission import AdmissionConfig, AdmissionController
from repro.obs.detect import (
    BREAKER_MAX_PENDING,
    DEFENSE_FIELDS,
    AdmissionGovernor,
    AttackClassifier,
)
from repro.obs.scrape import Scraper
from repro.obs.slo import (
    REGISTRATION_SOJOURN_DEADLINE_MS,
    SloEngine,
    SojournSlo,
    default_slos,
)
from repro.obs.trace import Tracer, TraceStore
from repro.paka.deploy import IsolationMode
from repro.security.attacks import AttackPlane, generate_storm

NS_PER_S = 1_000_000_000

#: Attack arrival rates for the default sweep.  Calibration (blended
#: storm cost ≈3.3 ms of serialized control-plane work per event against
#: ≈52 ms per legitimate registration): 240/s puts the undefended AMF
#: near saturation, 400/s pushes utilization past 1 and collapses it.
DEFAULT_ATTACK_RATES = (0.0, 240.0, 400.0)

#: Legitimate traffic mix: 3 of 4 arrivals are returning subscribers
#: re-registering with a held 5G-GUTI (the TS 24.501 population the
#: overload breaker keeps serving); every 4th is a fresh SUCI attach.
_INITIAL_EVERY = 4

#: Bound on a traced arm's store (the oldest head samples go first).
_TRACE_STORE_CAP = 2048


def _defense_configs() -> Dict[str, Tuple[Optional[AdmissionConfig], Optional[int]]]:
    """Sweep arms: name → (admission config or None, pending-session cap).

    Each static arm is one of the governor's responses
    (:data:`repro.obs.detect.DEFENSE_FIELDS`), whose rates are matched to
    the campaign's legitimate offered load so no defense sheds the
    legitimate population by accident — except the breaker, whose whole
    mechanism is shedding *initial* attaches while open.
    """
    bucket = DEFENSE_FIELDS["source"]
    guard = DEFENSE_FIELDS["gnb"]
    breaker = DEFENSE_FIELDS["breaker"]
    return {
        "none": (None, None),
        "bucket": (AdmissionConfig(**bucket), None),
        "guard": (AdmissionConfig(**guard), None),
        "breaker": (AdmissionConfig(**breaker), None),
        "all": (
            AdmissionConfig(**bucket, **guard, **breaker), BREAKER_MAX_PENDING
        ),
        # Closed loop: starts with *nothing* armed; the AdmissionGovernor
        # (repro.obs.detect) arms and tunes defenses at runtime from the
        # classifier's verdicts and the sojourn SLO's burn.
        "governed": (None, None),
    }


DEFENSES = tuple(_defense_configs())


def _module_lt_baseline(testbed) -> Dict[str, int]:
    """Per-module count of already-recorded trusted-path samples."""
    client_of = {"eudm": testbed.udm, "eausf": testbed.ausf, "eamf": testbed.amf}
    return {
        name: len(
            client_of[name].client.response_times_by_server.get(
                testbed.paka.modules[name].server.name, []
            )
        )
        for name in testbed.paka.modules
    }


def _module_lt_new_samples(testbed, baseline: Dict[str, int]) -> List[float]:
    """Trusted-path latencies recorded since ``baseline``, all modules."""
    client_of = {"eudm": testbed.udm, "eausf": testbed.ausf, "eamf": testbed.amf}
    samples: List[float] = []
    for name, skip in baseline.items():
        series = client_of[name].client.response_times_by_server.get(
            testbed.paka.modules[name].server.name, []
        )
        samples.extend(series[skip:])
    return samples


def _eenters(testbed) -> int:
    return sum(
        module.runtime.sgx_stats.eenters
        for module in testbed.paka.modules.values()
        if module.runtime.sgx_stats is not None
    )


def run_storm_arm(
    defense: str,
    attack_rate_per_s: float,
    legit: int,
    horizon_s: float,
    seed: int,
    trace_sample: Optional[int] = None,
) -> Dict[str, object]:
    """One sweep arm: seeded storm × admission config on a fresh slice.

    ``trace_sample`` arms distributed tracing for the arm: every
    legitimate registration runs under a deterministic trace context,
    failed/deadline-violating traces are all kept (plus 1/N healthy
    head samples) in a bounded store, and the row gains ``"_trace_*"``
    keys — alert payloads then cite exemplar trace ids.  Tracing never
    advances the simulated clock, so a traced arm's ``final_clock_ns``
    is byte-identical to an untraced one.
    """
    config, max_pending = _defense_configs()[defense]
    testbed = warmed_testbed(IsolationMode.SGX, seed=seed)

    # Legitimate population.  Returning subscribers register once ahead
    # of the window so they hold a 5G-GUTI; every 4th arrival is a fresh
    # SUCI attach provisioned up front (subscriber provisioning draws
    # only its own namespaced streams, so timing doesn't matter).
    ues = [testbed.add_subscriber() for _ in range(legit)]
    initial = [index % _INITIAL_EVERY == _INITIAL_EVERY - 1 for index in range(legit)]
    for ue, fresh in zip(ues, initial):
        if not fresh:
            outcome = testbed.register(ue, establish_session=False)
            if not outcome.success:
                raise RuntimeError(
                    f"returning-UE warmup failed: {outcome.failure_cause}"
                )

    # Arm the defenses only after the population is provisioned: the
    # burst of back-to-back warmup registrations is instantaneous on the
    # simulated clock and would trip any rate-shaped defense; operators
    # deploy admission control against the *storm*, not the inventory.
    if config is not None:
        testbed.amf.admission = AdmissionController(config)
    if max_pending is not None:
        testbed.amf.max_pending_sessions = max_pending

    storm = generate_storm(seed, horizon_s, attack_rate_per_s)
    plane = AttackPlane(testbed) if storm else None

    # Merged timeline: the paced legitimate grid interleaved with the
    # storm's Poisson arrivals; ties break legit-first (stable and
    # deterministic — grid vs. expovariate times essentially never tie).
    gap_ns = int(horizon_s / legit * NS_PER_S)
    timeline: List[Tuple[int, int, object]] = [
        (index * gap_ns, 0, index) for index in range(legit)
    ]
    timeline.extend((event.at_ns, 1, event) for event in storm)
    timeline.sort(key=lambda entry: (entry[0], entry[1]))

    scraper = Scraper.for_testbed(
        testbed, cadence_s=1.0, attack_plane=plane
    ).install(testbed.host)
    governor: Optional[AdmissionGovernor] = None
    if defense == "governed":
        # The closed loop: classifier verdicts + sojourn burn arm the
        # admission config at runtime.  Subscribed after the baseline
        # scrape, so the governor sees exactly the cadence-grid samples.
        governor = AdmissionGovernor(
            testbed.amf,
            AttackClassifier(),
            slos=[
                slo for slo in default_slos(testbed)
                if isinstance(slo, SojournSlo)
            ],
        )
        scraper.subscribe(governor)
    tracer = None
    if trace_sample is not None:
        tracer = Tracer(
            testbed.host.clock,
            trace_seed=seed,
            store=TraceStore(cap=_TRACE_STORE_CAP, sample_every=trace_sample),
        )
        testbed.host.tracer = tracer
    clock = testbed.host.clock
    start_ns = clock.now_ns
    lt_baseline = _module_lt_baseline(testbed)
    eenters_before = _eenters(testbed)

    legit_ok = 0
    legit_registered = 0
    # Sojourns are read back from the gNB's own histogram series — the
    # same numbers the scraper ingests and the SojournSlo alerts on, so
    # the campaign's deadline accounting and the alerting path are
    # provably identical (the PR 8 blind spot: a private list here that
    # never reached the Tsdb).
    sojourn_base = len(testbed.gnb.sojourn_ms)
    deadline_ns = int(REGISTRATION_SOJOURN_DEADLINE_MS * 1e6)
    for at_ns, _, payload in timeline:
        target_ns = start_ns + at_ns
        remaining_ns = target_ns - clock.now_ns
        if remaining_ns > 0:
            testbed.idle(remaining_ns / NS_PER_S)
        if isinstance(payload, int):
            ue = ues[payload]
            outcome = testbed.gnb.register(
                ue, establish_session=False, initial=initial[payload],
                arrival_ns=target_ns,
            )
            sojourn_ns = clock.now_ns - target_ns
            legit_registered += 1 if outcome.success else 0
            legit_ok += 1 if outcome.success and sojourn_ns <= deadline_ns else 0
        else:
            plane.execute(payload)

    scraper.uninstall(testbed.host)
    if tracer is not None:
        testbed.host.tracer = None
    sojourns_ms = list(testbed.gnb.sojourn_ms[sojourn_base:])
    alerts = SloEngine(
        default_slos(
            testbed, expected_registration_rate_per_s=legit / horizon_s
        )
    ).evaluate(scraper.tsdb)
    sojourn_alerts = [
        alert for alert in alerts if alert.slo.startswith("registration-sojourn")
    ]

    p50, p95, p99 = percentiles(sojourns_ms, (50, 95, 99))
    lt_samples = _module_lt_new_samples(testbed, lt_baseline)
    lt_p99 = percentiles(lt_samples, (99,))[0]
    admission = testbed.amf.admission
    row: Dict[str, object] = {
        "defense": defense,
        "attack_rate_per_s": attack_rate_per_s,
        "attack_events": len(storm),
        "attack_outcomes": plane.summary() if plane is not None else {},
        "legit_attempts": legit,
        "legit_registered": legit_registered,
        "legit_ok": legit_ok,
        "legit_success_rate": round(legit_ok / legit, 4) if legit else 0.0,
        "deadline_ms": REGISTRATION_SOJOURN_DEADLINE_MS,
        "sojourn_p50_ms": None if p50 is None else round(p50, 3),
        "sojourn_p95_ms": None if p95 is None else round(p95, 3),
        "sojourn_p99_ms": None if p99 is None else round(p99, 3),
        "lt_p99_us": None if lt_p99 is None else round(lt_p99, 3),
        "eenter_burn": _eenters(testbed) - eenters_before,
        "admitted": admission.admitted if admission is not None else None,
        "shed_total": admission.shed_total if admission is not None else 0,
        "shed_breaker": admission.shed_breaker if admission is not None else 0,
        "shed_gnb": admission.shed_gnb if admission is not None else 0,
        "shed_source": admission.shed_source if admission is not None else 0,
        "shed_bucket": admission.shed_bucket if admission is not None else 0,
        "breaker_opens": (
            admission.breaker.times_opened
            if admission is not None and admission.breaker is not None
            else 0
        ),
        "pending_evictions": testbed.amf.pending_evictions,
        "pending_sessions": testbed.amf.pending_count(),
        "alerts_fired": len(alerts),
        "sojourn_alerts_fired": len(sojourn_alerts),
        "first_sojourn_alert_s": (
            round((sojourn_alerts[0].fired_at_ns - start_ns) / NS_PER_S, 6)
            if sojourn_alerts
            else None
        ),
        "final_clock_ns": clock.now_ns,
    }
    if governor is not None:
        detail = governor.to_dict(base_ns=start_ns)
        arms = [a for a in detail["actions"] if a["action"] == "arm"]
        row["governor"] = detail
        # Detection latency: storm start (t=0 on this timeline) to the
        # first arming action; None when the governor never armed.
        row["detect_latency_s"] = arms[0]["at_s"] if arms else None
    row["_sojourns_ms"] = sojourns_ms  # stripped before the report
    if tracer is not None:
        # Traced-arm extras (only present when tracing was requested, so
        # untraced reports stay byte-identical): the trace store dump,
        # full alert payloads with their exemplar citations, and the
        # module maps the analytics layer needs to decompose trees.
        row["_trace_store"] = tracer.store.to_dict()
        row["_alerts"] = [a.to_dict(base_ns=start_ns) for a in alerts]
        row["_module_servers"] = {
            name: module.server.name
            for name, module in sorted(testbed.paka.modules.items())
        }
        row["_module_runtimes"] = {
            name: module.runtime.name
            for name, module in sorted(testbed.paka.modules.items())
        }
    return row


def survivability_experiment(
    legit: int = 30,
    horizon_s: float = 12.0,
    seed: int = 29,
    attack_rates: Sequence[float] = DEFAULT_ATTACK_RATES,
    defenses: Sequence[str] = DEFENSES,
) -> ExperimentReport:
    """Sweep attack rate × defense config; report survivability curves."""
    report = ExperimentReport(
        experiment_id="survivability",
        title=(
            f"legitimate-UE survivability under signaling storms "
            f"({legit} UEs over {horizon_s:.0f}s per arm)"
        ),
    )

    rows: Dict[Tuple[str, float], Dict[str, object]] = {}
    for defense in defenses:
        for rate in attack_rates:
            rows[(defense, rate)] = run_storm_arm(
                defense, rate, legit, horizon_s, seed
            )

    for (defense, rate), row in rows.items():
        label = f"{defense}_r{rate:g}"
        sojourns = row.pop("_sojourns_ms")
        if sojourns and rate == max(attack_rates):
            report.series[f"sojourn_ms_{label}"] = summarize(
                f"legit sojourn {label}", sojourns, "ms"
            )
        report.derived[f"success_{label}"] = float(row["legit_success_rate"])
        report.rows.append(row)

    peak = max(attack_rates)
    baseline = rows[("none", min(attack_rates))]
    undefended = rows[("none", peak)]
    report.checks.append(
        BandCheck(
            name="attack-free control success (disarmed plane)",
            measured=float(baseline["legit_success_rate"]),
            low=1.0, high=1.0,
        )
    )
    report.checks.append(
        BandCheck(
            name="undefended AMF collapses at peak storm",
            measured=float(undefended["legit_success_rate"]),
            low=0.0, high=0.6,
        )
    )
    # The PR 8 blind spot, closed: the pure-queueing collapse that fired
    # zero alerts must now page on the sojourn SLO inside the window.
    report.checks.append(
        BandCheck(
            name="sojourn SLO pages on the undefended collapse",
            measured=float(undefended["sojourn_alerts_fired"]),
            low=1.0, high=1e9,
        )
    )
    if "governed" in defenses:
        report.checks.append(
            BandCheck(
                name="governed arm recovers legit success at peak storm",
                measured=float(rows[("governed", peak)]["legit_success_rate"]),
                low=0.75, high=1.0,
            )
        )
    for defense in defenses:
        if defense == "none":
            continue
        defended = rows[(defense, peak)]
        report.checks.append(
            BandCheck(
                name=f"defense '{defense}' improves legit success at peak storm",
                measured=float(defended["legit_success_rate"])
                - float(undefended["legit_success_rate"]),
                low=0.01, high=1.0,
            )
        )
        report.checks.append(
            BandCheck(
                name=f"defense '{defense}' keeps legit success at no attack",
                measured=float(rows[(defense, min(attack_rates))]["legit_success_rate"]),
                low=1.0, high=1.0,
            )
        )
    if "all" in defenses and undefended["eenter_burn"]:
        report.checks.append(
            BandCheck(
                name="defenses shed before the enclave (EENTER burn ratio)",
                measured=float(rows[("all", peak)]["eenter_burn"])
                / float(undefended["eenter_burn"]),
                low=0.0, high=0.8,
            )
        )
    report.notes = (
        f"seed={seed}; deadline={REGISTRATION_SOJOURN_DEADLINE_MS:g}ms "
        "sojourn from the scheduled slot (read back from the "
        "gnb_registration_sojourn_ms histogram the SLO engine alerts on); "
        "legit mix 3:1 GUTI "
        "re-registration vs SUCI attach; storm mix suci-replay/auts-resync/"
        "nas-fuzz/botnet-register; the breaker arms cap at the "
        "returning-subscriber share by design (initial attaches are shed "
        "while open, per TS 24.501 congestion control); the governed arm "
        "starts disarmed and lets the AdmissionGovernor arm/tune defenses "
        "from classifier verdicts + sojourn burn"
    )
    return report
