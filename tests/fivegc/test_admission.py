"""AMF admission control: buckets, guards, overload breaker, NAS wiring."""

from repro.fivegc.admission import (
    AdmissionConfig,
    AdmissionController,
    KIND_INITIAL,
    KIND_RETURNING,
    OverloadBreaker,
    TokenBucket,
)
from repro.fivegc.messages import AuthenticationReject, AuthenticationRequest

NS = 1_000_000_000


def test_token_bucket_refills_on_the_simulated_clock():
    bucket = TokenBucket(rate_per_s=2.0, burst=2.0)
    assert bucket.try_take(0)
    assert bucket.try_take(0)
    assert not bucket.try_take(0)  # burst exhausted
    assert not bucket.try_take(NS // 4)  # 0.5 tokens accrued
    assert bucket.try_take(NS // 2)  # 1 token accrued at +0.5 s
    assert bucket.taken == 3 and bucket.denied == 2


def test_token_bucket_caps_at_burst():
    bucket = TokenBucket(rate_per_s=100.0, burst=3.0)
    for _ in range(3):
        assert bucket.try_take(10 * NS)
    assert not bucket.try_take(10 * NS)


def test_overload_breaker_trips_and_cools_down():
    breaker = OverloadBreaker(window_s=1.0, max_arrivals=3, cooldown_s=2.0)
    for tick in range(3):
        assert not breaker.observe(tick)
    assert breaker.observe(3)  # 4th arrival inside the window trips it
    assert breaker.open and breaker.times_opened == 1
    assert breaker.observe(NS)  # still cooling down
    # Past the cooldown it closes and measures afresh.
    assert not breaker.observe(2 * NS + 4)
    assert not breaker.open
    # A sustained storm re-trips (counted).
    for tick in range(4):
        breaker.observe(2 * NS + 5 + tick)
    assert breaker.open and breaker.times_opened == 2


def test_breaker_sheds_initial_but_not_returning():
    controller = AdmissionController(
        AdmissionConfig(breaker_max_per_s=3.0, breaker_cooldown_s=2.0)
    )
    for tick in range(4):
        controller.check(tick, source=f"ue-{tick}")
    assert controller.check(5, source="atk", kind=KIND_INITIAL) is not None
    assert controller.check(6, source="sub", kind=KIND_RETURNING) is None
    # Two initial sheds: the arrival that tripped the breaker and "atk".
    assert controller.shed_breaker == 2


def test_per_gnb_guard_clamps_hostile_cells_only():
    controller = AdmissionController(
        AdmissionConfig(gnb_rate_per_s=1.0, gnb_burst=2.0)
    )
    for index in range(4):
        controller.check(0, source=f"a{index}", gnb="gnb-atk-0")
    assert controller.shed_gnb == 2  # burst of 2, then clamped
    # A different cell has its own bucket.
    assert controller.check(0, source="legit", gnb="gnb-0") is None


def test_per_source_bucket_and_bounded_tracking_state():
    controller = AdmissionController(
        AdmissionConfig(
            per_source_rate_per_s=0.5, per_source_burst=1.0, per_source_cap=2
        )
    )
    assert controller.check(0, source="spoof-0") is None
    assert controller.check(0, source="spoof-0") is not None  # clamped
    controller.check(0, source="spoof-1")
    controller.check(0, source="spoof-2")  # evicts spoof-0 (FIFO, cap 2)
    assert set(controller.per_source) == {"spoof-1", "spoof-2"}
    # The evicted identity starts a fresh bucket (full burst again).
    assert controller.check(0, source="spoof-0") is None


def test_global_bucket_caps_total_admissions():
    controller = AdmissionController(
        AdmissionConfig(bucket_rate_per_s=1.0, bucket_burst=2.0)
    )
    outcomes = [controller.check(0, source=f"u{i}") for i in range(4)]
    assert outcomes[:2] == [None, None]
    assert all(denial is not None for denial in outcomes[2:])
    assert controller.admitted == 2 and controller.shed_bucket == 2


def test_armed_amf_sheds_before_any_session_state(container_testbed):
    """A denied registration costs one cheap reject: no _UeSession, no
    SBI call, no enclave work."""
    testbed = container_testbed
    testbed.amf.admission = AdmissionController(
        AdmissionConfig(bucket_rate_per_s=1.0, bucket_burst=1.0)
    )
    first = testbed.add_subscriber()
    second = testbed.add_subscriber()
    accepted = testbed.amf.handle_nas(
        first.name, first.build_registration_request(), via="gnb-0"
    )
    assert isinstance(accepted, AuthenticationRequest)
    shed = testbed.amf.handle_nas(
        second.name, second.build_registration_request(), via="gnb-0"
    )
    assert isinstance(shed, AuthenticationReject)
    assert shed.cause.startswith("congestion:")
    assert testbed.amf.session_state(second.name) == "none"
    assert testbed.amf.admission.shed_total == 1


def test_returning_guti_arrival_classified_as_returning(container_testbed):
    """GUTI re-registrations pass an open breaker (TS 24.501 shape)."""
    testbed = container_testbed
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success

    controller = AdmissionController(
        AdmissionConfig(breaker_max_per_s=1.0, breaker_window_s=1.0)
    )
    testbed.amf.admission = controller
    # Trip the breaker with a burst of fresh attaches.
    storm = [testbed.add_subscriber() for _ in range(3)]
    for attacker in storm:
        testbed.amf.handle_nas(
            attacker.name, attacker.build_registration_request(), via="gnb-0"
        )
    assert controller.breaker.open
    downlink = testbed.amf.handle_nas(
        ue.name, ue.build_guti_registration_request(), via="gnb-0"
    )
    assert isinstance(downlink, AuthenticationRequest)  # admitted
    assert controller.shed_breaker >= 1  # the storm was shed


def test_pending_session_cap_evicts_oldest(container_testbed):
    testbed = container_testbed
    testbed.amf.max_pending_sessions = 2
    ues = [testbed.add_subscriber() for _ in range(3)]
    for ue in ues:
        testbed.amf.handle_nas(ue.name, ue.build_registration_request())
    assert testbed.amf.pending_count() == 2
    assert testbed.amf.pending_evictions == 1
    assert testbed.amf.session_state(ues[0].name) == "none"  # oldest dropped
