"""Deregistration: context release and GUTI retirement."""

import pytest

from repro.fivegc.messages import AuthenticationReject, DeregistrationAccept


def deregister(testbed, ue):
    return testbed.amf.handle_nas(ue.name, ue.build_deregistration_request())


def test_deregistration_releases_context(container_testbed):
    testbed = container_testbed
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    accept = deregister(testbed, ue)
    assert isinstance(accept, DeregistrationAccept)
    ue.handle_nas(accept)
    assert not ue.registered
    assert ue.guti is None
    assert testbed.amf.session_state(ue.name) == "none"


def test_guti_retired_after_deregistration(container_testbed):
    testbed = container_testbed
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    old_guti = ue.guti
    ue.handle_nas(deregister(testbed, ue))

    # Re-registration with the retired GUTI is refused...
    from repro.fivegc.messages import RegistrationRequest

    reply = testbed.amf.handle_nas(ue.name, RegistrationRequest(guti=old_guti))
    assert isinstance(reply, AuthenticationReject)
    # ... but a fresh SUCI registration works fine.
    assert testbed.register(ue, establish_session=False).success


def test_deregistration_requires_registration(container_testbed):
    ue = container_testbed.add_subscriber()
    with pytest.raises(Exception):
        ue.build_deregistration_request()


def test_forged_deregistration_rejected(container_testbed):
    """An attacker cannot knock a UE off the network without K_NAS_int."""
    from repro.fivegc.messages import DeregistrationRequest

    testbed = container_testbed
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    reply = testbed.amf.handle_nas(ue.name, DeregistrationRequest(mac=bytes(4)))
    assert isinstance(reply, AuthenticationReject)
    # The session survives the forgery attempt.
    assert testbed.amf.session_state(ue.name) == "registered"


def test_full_lifecycle_register_deregister_reregister(sgx_testbed):
    testbed = sgx_testbed
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    ue.handle_nas(deregister(testbed, ue))
    assert not ue.registered
    outcome = testbed.register(ue, establish_session=False)
    assert outcome.success
    assert testbed.amf.registered_count() >= 1
