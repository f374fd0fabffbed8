"""Resynchronisation and GUTI re-registration, end to end."""

import pytest

from repro.paka.deploy import IsolationMode
from repro.testbed import Testbed, TestbedConfig

ALL_MODES = [None, IsolationMode.CONTAINER, IsolationMode.SGX]


@pytest.mark.parametrize("isolation", ALL_MODES, ids=["monolithic", "container", "sgx"])
def test_resync_recovers_in_every_mode(isolation):
    testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=101))
    ue = testbed.add_subscriber()
    ue.usim.sqn_ms = 123_456_789_000  # UE far ahead (e.g. restored SIM)
    outcome = testbed.register(ue, establish_session=False)
    assert outcome.success, outcome.failure_cause
    # The UDR counter landed just past the UE's SQN_MS.
    record = testbed.udr.subscriber(str(ue.usim.supi))
    assert record.sqn == 123_456_789_001


def test_resync_auts_verified_inside_enclave(sgx_testbed):
    """In the SGX deployment the AUTS check runs in the eUDM module (it
    needs K), visible through the module's request counter."""
    from repro.net.sbi import EUDM_VERIFY_AUTS

    ue = sgx_testbed.add_subscriber()
    ue.usim.sqn_ms = 1 << 35
    eudm_server = sgx_testbed.paka.module("eudm").server
    assert sgx_testbed.register(ue, establish_session=False).success
    assert len(eudm_server.lt_us_by_path.get(EUDM_VERIFY_AUTS, [])) == 1


def test_forged_auts_rejected(container_testbed):
    """An attacker cannot use a bogus AUTS to reset a victim's SQN."""
    from repro.net.sbi import UDM_UE_AUTH_GET

    testbed = container_testbed
    ue = testbed.add_subscriber()
    from repro.net.rest import JsonApiError

    with pytest.raises(JsonApiError) as caught:
        testbed.ausf.call(
            testbed.udm, UDM_UE_AUTH_GET,
            {
                "servingNetworkName": testbed.snn,
                "supi": str(ue.usim.supi),
                "resynchronizationInfo": {"rand": "00" * 16, "auts": "00" * 14},
            },
        )
    assert caught.value.status == 403
    assert testbed.udr.subscriber(str(ue.usim.supi)).sqn == 0  # untouched


@pytest.mark.parametrize("isolation", ALL_MODES, ids=["monolithic", "container", "sgx"])
def test_guti_reregistration(isolation):
    testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=102))
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    first_guti = ue.guti

    # Re-register with the GUTI: full re-authentication, no SUCI round.
    uplink = ue.build_guti_registration_request()
    assert uplink.guti == first_guti and uplink.suci is None
    while uplink is not None:
        uplink = ue.handle_nas(testbed.amf.handle_nas(ue.name, uplink))
    assert ue.registered
    assert ue.guti != first_guti  # a fresh GUTI is issued


def test_guti_reregistration_derives_fresh_keys(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    old_kamf = ue.kamf

    uplink = ue.build_guti_registration_request()
    while uplink is not None:
        uplink = ue.handle_nas(testbed.amf.handle_nas(ue.name, uplink))
    assert ue.registered
    assert ue.kamf != old_kamf  # fresh RAND → fresh hierarchy


def test_unknown_guti_rejected(monolithic_testbed):
    from repro.fivegc.messages import AuthenticationReject, RegistrationRequest

    reply = monolithic_testbed.amf.handle_nas(
        "stranger", RegistrationRequest(guti="5g-guti-00101-9999-deadbeef")
    )
    assert isinstance(reply, AuthenticationReject)


def test_pdu_session_payload_is_ciphered_on_n1(monolithic_testbed):
    """The PDU session exchange after SMC is a ProtectedNasPdu whose
    ciphertext hides the DNN."""
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    pdu = ue.build_pdu_session_request()
    from repro.fivegc.nas_security import ProtectedNasPdu

    assert isinstance(pdu, ProtectedNasPdu)
    assert b"internet" not in pdu.ciphertext
    accept = testbed.amf.handle_nas(ue.name, pdu)
    assert isinstance(accept, ProtectedNasPdu)
    ue.handle_nas(accept)
    assert ue.ue_address is not None
