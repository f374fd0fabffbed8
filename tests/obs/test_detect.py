"""Attack classification verdicts and the alert-armed admission loop."""

import pytest

from repro.fivegc.admission import AdmissionConfig, AdmissionController
from repro.obs.detect import (
    ATTACK_VERDICTS,
    BREAKER_MAX_PENDING,
    DEFENSE_FIELDS,
    VERDICTS,
    AdmissionGovernor,
    AttackClassifier,
)
from repro.obs.slo import BurnRateWindow
from repro.obs.tsdb import NS_PER_S, Tsdb

AT = 10 * NS_PER_S  # classify at t=10s over the default 4s window


def _feed_counter(tsdb, name, per_s, seconds=11, **labels):
    series = tsdb.series(name, kind="counter", **labels)
    for second in range(seconds):
        series.append(second * NS_PER_S, per_s * second)


def _feed_sojourn(tsdb, mean_ms, per_s=5, seconds=11, gnb="gnb"):
    for suffix, step in (("_count", per_s), ("_sum", per_s * mean_ms)):
        series = tsdb.series(
            "gnb_registration_sojourn_ms" + suffix, kind="counter", gnb=gnb
        )
        for second in range(seconds):
            series.append(second * NS_PER_S, step * second)


def _storm_tsdb(arrivals_per_s=40.0, resyncs=0.0, errors=0.0, accepts=0.0):
    tsdb = Tsdb()
    _feed_counter(
        tsdb, "amf_nas_registration_arrivals_total", arrivals_per_s,
        nf="amf", gnb="gnb-atk-0",
    )
    _feed_counter(
        tsdb, "amf_auth_resync_requests_total", resyncs, nf="amf"
    )
    _feed_counter(
        tsdb, "amf_nas_protocol_errors_total", errors, nf="amf"
    )
    _feed_counter(
        tsdb, "amf_nas_registration_accepted_total", accepts,
        nf="amf", gnb="gnb-atk-0",
    )
    _feed_sojourn(tsdb, mean_ms=60.0)
    return tsdb


def test_classifier_names_each_storm_signature():
    cases = [
        (dict(), "suci_replay"),
        (dict(resyncs=38.0), "auts_resync"),
        (dict(errors=20.0), "nas_fuzz"),
        (dict(accepts=38.0), "botnet_ddos"),
    ]
    classifier = AttackClassifier()
    for kwargs, expected in cases:
        verdict = classifier.classify_at(_storm_tsdb(**kwargs), AT)
        assert verdict.verdict == expected, kwargs
        assert verdict.evidence["attack_arrival_rate_per_s"] == pytest.approx(
            40.0
        )


def test_classifier_sees_queueing_collapse_without_attack_cells():
    # The PR 8 blind spot: every registration succeeds, only the sojourn
    # deadline dies — and there is no hostile cell anywhere.
    tsdb = Tsdb()
    _feed_sojourn(tsdb, mean_ms=900.0)
    verdict = AttackClassifier().classify_at(tsdb, AT)
    assert verdict.verdict == "queueing_collapse"
    assert verdict.evidence["legit_sojourn_mean_ms"] == pytest.approx(900.0)


def test_classifier_healthy_and_noise_floor():
    tsdb = Tsdb()
    _feed_sojourn(tsdb, mean_ms=55.0)
    assert AttackClassifier().classify_at(tsdb, AT).verdict == "none"
    # Hostile arrivals under the noise floor do not make a storm.
    quiet = _storm_tsdb(arrivals_per_s=2.0)
    assert AttackClassifier().classify_at(quiet, AT).verdict == "none"
    # An empty Tsdb (pre-traffic) is healthy, not an error.
    assert AttackClassifier().classify_at(Tsdb(), 0).verdict == "none"


def test_classify_replays_the_scrape_timeline():
    tsdb = _storm_tsdb(resyncs=38.0)
    tsdb.scrape_times = [5 * NS_PER_S, 10 * NS_PER_S]
    classifier = AttackClassifier()
    verdicts = [classifier.classify_at(tsdb, at_ns) for at_ns in tsdb.scrape_times]
    assert [v.verdict for v in verdicts] == ["auts_resync", "auts_resync"]
    assert verdicts[0].at_ns == 5 * NS_PER_S
    assert set(ATTACK_VERDICTS) < set(VERDICTS)


# ------------------------------------------------------------- governor


class _StubAmf:
    def __init__(self):
        self.admission = None
        self.max_pending_sessions = None


class _Burning:
    """A stand-in SLO that always fires its burn windows."""

    windows = (BurnRateWindow("fast", long_s=1.0, short_s=1.0, factor=1.0),)

    def burn_rate(self, tsdb, window_ns, at_ns):
        return 2.0


def _governor(amf, slos=()):
    return AdmissionGovernor(amf, AttackClassifier(), slos=slos)


def test_governor_arms_ingress_on_attack_verdict():
    amf = _StubAmf()
    governor = _governor(amf)
    governor.on_scrape(_storm_tsdb(accepts=38.0), AT)
    assert governor.armed == ("source", "gnb")
    assert isinstance(amf.admission, AdmissionController)
    # The breaker is not an ingress arm.
    assert amf.admission.config == AdmissionConfig(
        **DEFENSE_FIELDS["source"], **DEFENSE_FIELDS["gnb"]
    )
    assert amf.max_pending_sessions is None
    assert [a["action"] for a in governor.actions] == ["arm"]
    assert governor.actions[0]["verdict"] == "botnet_ddos"


def test_governor_arms_breaker_on_unattributed_burn():
    amf = _StubAmf()
    governor = _governor(amf, slos=[_Burning()])
    governor.on_scrape(Tsdb(), AT)  # verdict none, but the SLO burns
    assert governor.armed == ("breaker",)
    assert amf.admission.config == AdmissionConfig(**DEFENSE_FIELDS["breaker"])
    assert amf.max_pending_sessions == BREAKER_MAX_PENDING


def test_governor_escalates_only_on_sustained_burn():
    amf = _StubAmf()
    governor = _governor(amf, slos=[_Burning()])
    tsdb = _storm_tsdb()  # attack verdict + burning
    governor.on_scrape(tsdb, AT)
    assert governor.armed == ("source", "gnb")
    for step in range(1, 4):
        governor.on_scrape(tsdb, AT + step)
        assert governor.armed == ("source", "gnb")  # not yet sustained
    governor.on_scrape(tsdb, AT + 4)
    assert governor.armed == ("source", "gnb", "breaker")
    assert [a["action"] for a in governor.actions] == ["arm", "escalate"]


def test_governor_hysteresis_and_stand_down_restores_baseline():
    amf = _StubAmf()
    baseline = object()
    amf.admission = baseline
    amf.max_pending_sessions = 99
    governor = _governor(amf)
    governor.on_scrape(_storm_tsdb(), AT)
    assert governor.armed and amf.admission is not baseline
    quiet = Tsdb()
    for step in range(1, 8):
        governor.on_scrape(quiet, AT + step)
        assert governor.armed  # hysteresis: not enough quiet yet
    governor.on_scrape(quiet, AT + 8)
    assert governor.armed == ()
    assert amf.admission is baseline
    assert amf.max_pending_sessions == 99
    assert [a["action"] for a in governor.actions] == ["arm", "stand_down"]
    payload = governor.to_dict()
    assert payload["armed"] == []
    assert [a["action"] for a in payload["actions"]] == ["arm", "stand_down"]


def test_quiescent_governor_touches_nothing():
    amf = _StubAmf()
    governor = _governor(amf)
    tsdb = Tsdb()
    _feed_sojourn(tsdb, mean_ms=55.0)
    for step in range(20):
        governor.on_scrape(tsdb, AT + step)
    assert governor.armed == () and governor.actions == []
    assert amf.admission is None and amf.max_pending_sessions is None
    assert governor.scrapes_seen == 20
