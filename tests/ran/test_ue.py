"""UE NAS behaviour and the commercial-device profile."""

import pytest

from repro.fivegc.messages import (
    AuthenticationFailure,
    AuthenticationRequest,
    AuthenticationResponse,
    SecurityModeCommand,
)
from repro.ran.ue import CommercialUE, ONEPLUS_8_PROFILE, UeError


def test_registration_request_conceals_supi(container_testbed):
    ue = container_testbed.add_subscriber()
    request = ue.build_registration_request()
    assert request.suci.get("mcc") == "001"
    assert request.suci.get("scheme") == 1
    assert ue.usim.supi.msin not in str(request.suci.get("schemeOutput"))


def test_fresh_ephemeral_key_per_attempt(container_testbed):
    ue = container_testbed.add_subscriber()
    one = ue.build_registration_request()
    two = ue.build_registration_request()
    assert one.suci.get("schemeOutput") != two.suci.get("schemeOutput")


def test_ue_answers_valid_challenge(container_testbed):
    testbed = container_testbed
    ue = testbed.add_subscriber()
    challenge = testbed.amf.handle_nas(ue.name, ue.build_registration_request())
    response = ue.handle_nas(challenge)
    assert isinstance(response, AuthenticationResponse)
    assert len(response.res_star) == 16


def test_ue_rejects_forged_challenge(container_testbed):
    ue = container_testbed.add_subscriber()
    forged = AuthenticationRequest(rand=bytes(16), autn=bytes(16))
    response = ue.handle_nas(forged)
    assert isinstance(response, AuthenticationFailure)
    assert response.cause == "MAC_FAILURE"
    assert ue.failure_cause == "MAC_FAILURE"


def test_smc_before_authentication_raises(container_testbed):
    ue = container_testbed.add_subscriber()
    with pytest.raises(UeError, match="SMC before authentication"):
        ue.handle_nas(SecurityModeCommand(mac=bytes(4)))


def test_smc_with_bad_mac_rejected(container_testbed):
    testbed = container_testbed
    ue = testbed.add_subscriber()
    challenge = testbed.amf.handle_nas(ue.name, ue.build_registration_request())
    ue.handle_nas(challenge)
    response = ue.handle_nas(SecurityModeCommand(mac=bytes(4)))
    assert isinstance(response, AuthenticationFailure)


def test_pdu_request_requires_registration(container_testbed):
    ue = container_testbed.add_subscriber()
    with pytest.raises(UeError):
        ue.build_pdu_session_request()


def test_ue_and_amf_agree_on_kamf(container_testbed):
    testbed = container_testbed
    ue = testbed.add_subscriber()
    outcome = testbed.register(ue, establish_session=False)
    assert outcome.success
    session = testbed.amf._sessions[ue.name]
    assert ue.kamf == session.kamf
    assert ue.k_nas_int == session.k_nas_int


class TestCommercialProfile:
    def test_oneplus8_profile(self):
        assert ONEPLUS_8_PROFILE.model == "OnePlus 8"
        assert ONEPLUS_8_PROFILE.required_os_version == "11.0.11.11.IN21DA"
        assert ONEPLUS_8_PROFILE.detectable_plmns == ("00101",)

    def test_detects_test_plmn(self, sgx_testbed):
        ue = sgx_testbed.add_subscriber(commercial=True)
        assert isinstance(ue, CommercialUE)
        assert ue.can_detect_plmn("00101")
        assert not ue.can_detect_plmn("90170")

    def test_os_compatibility(self, sgx_testbed):
        good = sgx_testbed.add_subscriber(commercial=True)
        assert good.os_compatible
        bad = sgx_testbed.add_subscriber(
            commercial=True, os_version="11.0.4.4.IN21DA"
        )
        assert not bad.os_compatible
