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
