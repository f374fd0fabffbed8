"""gNB: registration loop, air-link model, failure propagation."""

from repro.ran.gnb import AirLinkModel


def test_airlink_latency_scales_with_size():
    model = AirLinkModel()
    assert model.message_ms(4096) > model.message_ms(64)


def test_registration_succeeds_and_times(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    outcome = testbed.gnb.register(ue)
    assert outcome.success
    assert outcome.guti == ue.guti
    assert outcome.supi == str(ue.usim.supi)
    assert 30 < outcome.session_setup_ms < 90
    assert outcome.nas_exchanges >= 5


def test_registration_without_session_is_faster(monolithic_testbed):
    testbed = monolithic_testbed
    with_session = testbed.gnb.register(testbed.add_subscriber(), establish_session=True)
    without = testbed.gnb.register(testbed.add_subscriber(), establish_session=False)
    assert without.session_setup_ms < with_session.session_setup_ms
    assert without.nas_exchanges < with_session.nas_exchanges


def test_wrong_key_ue_is_rejected(monolithic_testbed):
    """A UE whose USIM holds the wrong K never registers (MAC failure)."""
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    ue.usim._k = bytes(16)  # corrupt the SIM's key
    ue.usim._milenage = type(ue.usim._milenage)(bytes(16), ue.usim._opc)
    outcome = testbed.gnb.register(ue)
    assert not outcome.success
    assert "MAC_FAILURE" in (outcome.failure_cause or "")


def test_gnb_counters(monolithic_testbed):
    testbed = monolithic_testbed
    testbed.gnb.register(testbed.add_subscriber())
    ue = testbed.add_subscriber()
    ue.usim._k = bytes(16)
    ue.usim._milenage = type(ue.usim._milenage)(bytes(16), ue.usim._opc)
    testbed.gnb.register(ue)
    assert testbed.gnb.registrations_attempted == 2
    assert testbed.gnb.registrations_succeeded == 1


def test_sgx_slice_registration_slower_than_monolithic():
    from repro.testbed import Testbed, TestbedConfig
    from repro.paka.deploy import IsolationMode

    def stable_setup(isolation):
        testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=44))
        for _ in range(2):  # warm up
            testbed.register(testbed.add_subscriber(), establish_session=False)
        samples = [
            testbed.register(testbed.add_subscriber()).session_setup_ms
            for _ in range(4)
        ]
        return sum(samples) / len(samples)

    assert stable_setup(IsolationMode.SGX) > stable_setup(None)
