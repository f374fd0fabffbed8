"""Seeded signaling storms: schedule purity and attack-plane determinism."""

from repro.security.attacks import (
    ATTACK_GNBS,
    BOTNET_POPULATION,
    SPOOF_POOL,
    AttackEvent,
    AttackPlane,
    StormKind,
    generate_storm,
)
from repro.testbed import Testbed, TestbedConfig
from repro.paka.deploy import IsolationMode


def _sgx_testbed(seed=12):
    return Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=seed))


def test_storm_schedule_is_a_pure_value():
    first = generate_storm(7, 5.0, 40.0)
    second = generate_storm(7, 5.0, 40.0)
    assert first == second
    assert first != generate_storm(8, 5.0, 40.0)
    assert generate_storm(7, 5.0, 0.0) == ()


def test_storm_schedule_shape():
    events = generate_storm(3, 20.0, 50.0)
    assert len(events) > 500  # ~1000 expected at 50/s over 20 s
    horizon_ns = int(20.0 * 1_000_000_000)
    assert all(0 <= event.at_ns < horizon_ns for event in events)
    assert list(events) == sorted(events, key=lambda event: event.at_ns)
    # Every workload kind appears, and sources stay in their pools.
    assert {event.kind for event in events} == set(StormKind)
    for event in events:
        assert event.gnb in {f"gnb-atk-{k}" for k in range(ATTACK_GNBS)}
        if event.kind is StormKind.BOTNET_REGISTER:
            assert int(event.source.split("-")[1]) < BOTNET_POPULATION
        else:
            assert int(event.source.split("-")[1]) < SPOOF_POOL


def test_schedule_generation_draws_no_testbed_randomness():
    """Generating a schedule must not perturb any testbed RNG stream."""
    baseline = _sgx_testbed()
    reference = baseline.register(
        baseline.add_subscriber(), establish_session=False
    )

    testbed = _sgx_testbed()
    generate_storm(99, 30.0, 200.0)
    outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert outcome.session_setup_ms == reference.session_setup_ms
    assert testbed.host.clock.now_ns == baseline.host.clock.now_ns


def test_attack_plane_provisioning_leaves_legit_traffic_untouched():
    """The plane's UE population lives on reserved MSIN prefixes with
    disjoint RNG streams: beyond the ordinary per-subscriber UDR
    provisioning cost, attaching a plane changes nothing for a
    legitimate registration that follows (same draws, same duration)."""
    baseline = _sgx_testbed()
    reference = baseline.register(
        baseline.add_subscriber(), establish_session=False
    )

    testbed = _sgx_testbed()
    AttackPlane(testbed)
    outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert outcome.session_setup_ms == reference.session_setup_ms
    assert outcome.nas_exchanges == reference.nas_exchanges


def test_attack_plane_replays_deterministically():
    events = generate_storm(5, 2.0, 60.0)
    assert events

    def run():
        testbed = _sgx_testbed()
        plane = AttackPlane(testbed)
        for event in events:
            plane.execute(event)
        return plane.summary(), testbed.host.clock.now_ns

    first_summary, first_clock = run()
    second_summary, second_clock = run()
    assert first_summary == second_summary
    assert first_clock == second_clock
    assert sum(
        count for outcomes in first_summary.values() for count in outcomes.values()
    ) == len(events)


def test_suci_replay_burns_enclave_work():
    """Every accepted replay of the captured SUCI costs the home network
    a full authentication-vector generation in the eUDM."""
    testbed = _sgx_testbed()
    plane = AttackPlane(testbed)
    eudm = testbed.paka.modules["eudm"].runtime.sgx_stats
    before = eudm.eenters
    for index in range(5):
        outcome = plane.execute(
            AttackEvent(
                at_ns=0, kind=StormKind.SUCI_REPLAY, gnb="gnb-atk-0",
                source=f"spoof-{index}", salt=index,
            )
        )
        assert outcome == "pending"  # challenge issued, then ignored
    assert eudm.eenters > before


def test_botnet_registration_completes_against_open_amf():
    """Botnet traffic is protocol-valid: with no admission control the
    AMF serves it like any subscriber (volume, not content, is the
    weapon)."""
    testbed = _sgx_testbed()
    plane = AttackPlane(testbed)
    outcome = plane.execute(
        AttackEvent(
            at_ns=0, kind=StormKind.BOTNET_REGISTER, gnb="gnb-atk-1",
            source="bot-0", salt=1,
        )
    )
    assert outcome == "completed"
    assert testbed.amf.registered_count() == 1


def test_nas_fuzz_never_crashes_the_amf():
    """Every fuzz variant terminates as a rejection or a refused message
    — no uncaught exception escapes the AMF's NAS dispatch."""
    testbed = _sgx_testbed()
    plane = AttackPlane(testbed)
    for salt in range(24):
        outcome = plane.execute(
            AttackEvent(
                at_ns=0, kind=StormKind.NAS_FUZZ, gnb="gnb-atk-2",
                source=f"spoof-{salt % 8}", salt=salt,
            )
        )
        assert outcome in ("rejected", "errored")
    # The fuzz salts cover several variants; the testbed still serves.
    assert testbed.register(
        testbed.add_subscriber(), establish_session=False
    ).success
