"""AMF NAS state machine: ordering, MAC enforcement, GUTI allocation.

The edge tests are generated from ``amf.PROCEDURE``: every row's success
edge (with its SBI exchanges, on SGX) and reject edge, and every
(state, uplink) pair no row allows."""

import pytest

from repro.fivegc.amf import (
    PROCEDURE, REGISTERED, RELEASED, WAIT_AUTH_RESPONSE, WAIT_REG_COMPLETE, WAIT_SMC_COMPLETE,
    AmfError,
)
from repro.fivegc.messages import (
    AuthenticationFailure, AuthenticationReject, AuthenticationRequest, AuthenticationResponse,
    DeregistrationRequest, RegistrationComplete, RegistrationRequest, SecurityModeComplete,
)
from repro.fivegc.nas_security import ProtectedNasPdu
from repro.paka.deploy import IsolationMode
from repro.paka.flow import _role_of
from repro.testbed import Testbed, TestbedConfig

# Per uplink type, a message of it that no honest UE sends: each takes
# its row's reject edge from the row's required state.
_FORGED = {
    RegistrationRequest: RegistrationRequest(guti="5g-guti-00101-9999-deadbeef"),
    AuthenticationFailure: AuthenticationFailure(cause="MAC_FAILURE"),
    AuthenticationResponse: AuthenticationResponse(res_star=bytes(16)),
    SecurityModeComplete: SecurityModeComplete(mac=bytes(4)),
    RegistrationComplete: RegistrationComplete(mac=bytes(4)),
    ProtectedNasPdu: ProtectedNasPdu(count=0, direction=0, ciphertext=b"x", mac=bytes(4)),
    DeregistrationRequest: DeregistrationRequest(mac=bytes(4)),
}
_UNDECLARED = [
    pytest.param(kind, state, id=f"{kind.__name__}-{state}")
    for state in dict.fromkeys([RELEASED] + [step.success for step in PROCEDURE.values()])
    for kind, step in PROCEDURE.items()
    if step.requires not in (None, state)
]


@pytest.fixture(scope="module")
def testbed():
    return Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=183))


def _drive(testbed, state, kind=None):
    """A fresh UE whose session is in ``state``, and its honest uplink
    of type ``kind`` there (a desynchronised USIM answers its challenge
    with SYNCH_FAILURE + AUTS)."""
    ue = testbed.add_subscriber()
    if kind is AuthenticationFailure:
        ue.usim.sqn_ms = 1 << 35
    uplink = ue.build_registration_request()
    while testbed.amf.session_state(ue.name) != state:
        uplink = ue.handle_nas(testbed.amf.handle_nas(ue.name, uplink))
    if kind is ProtectedNasPdu:
        uplink = ue.build_pdu_session_request()
    elif kind is DeregistrationRequest:
        uplink = ue.build_deregistration_request()
    return ue, uplink


def test_registration_request_yields_challenge(testbed):
    ue = testbed.add_subscriber()
    downlink = testbed.amf.handle_nas(ue.name, ue.build_registration_request())
    assert isinstance(downlink, AuthenticationRequest)
    assert len(downlink.rand) == 16 and len(downlink.autn) == 16
    assert testbed.amf.session_state(ue.name) == "wait-auth-response"


def test_full_nas_exchange_registers_ue(monolithic_testbed):
    ue, uplink = _drive(monolithic_testbed, REGISTERED)
    assert ue.registered and uplink is None
    assert ue.guti and ue.guti.startswith("5g-guti-00101-")
    assert monolithic_testbed.amf.registered_count() == 1


def test_wrong_res_star_rejected(monolithic_testbed):
    ue, _ = _drive(monolithic_testbed, WAIT_AUTH_RESPONSE)
    downlink = monolithic_testbed.amf.handle_nas(ue.name, _FORGED[AuthenticationResponse])
    assert "HRES*" in downlink.cause
    # Failed sessions release their context immediately (no _UeSession
    # leak); a retry starts from a clean RegistrationRequest.
    assert monolithic_testbed.amf.session_state(ue.name) == "none"


def test_bad_smc_complete_mac_rejected(monolithic_testbed):
    ue, _ = _drive(monolithic_testbed, WAIT_SMC_COMPLETE)
    downlink = monolithic_testbed.amf.handle_nas(ue.name, _FORGED[SecurityModeComplete])
    assert downlink.cause == "SMC Complete MAC invalid"


def test_bad_registration_complete_mac_rejected(monolithic_testbed):
    ue, _ = _drive(monolithic_testbed, WAIT_REG_COMPLETE)
    reject = monolithic_testbed.amf.handle_nas(ue.name, _FORGED[RegistrationComplete])
    assert reject.cause == "Registration Complete MAC invalid"


def test_gutis_are_unique(testbed):
    gutis = set()
    for _ in range(3):
        ue = testbed.add_subscriber()
        outcome = testbed.register(ue, establish_session=False)
        assert outcome.success
        gutis.add(ue.guti)
    assert len(gutis) == 3


def test_reregistrations_hold_one_guti_and_retire_the_rest(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    first = ue.guti
    for initial in (False, False, True, True):  # GUTI, then SUCI, re-registrations
        assert testbed.gnb.register(ue, establish_session=False, initial=initial).success
    assert testbed.amf._guti_to_supi == {ue.guti: str(ue.usim.supi)}
    stale = testbed.amf.handle_nas(ue.name, RegistrationRequest(guti=first))
    assert stale.cause == f"unknown GUTI {first!r}"


def test_evicting_a_session_retires_its_guti(monolithic_testbed):
    amf = monolithic_testbed.amf
    amf.max_pending_sessions = 1
    ue, _ = _drive(monolithic_testbed, WAIT_REG_COMPLETE)
    assert len(amf._guti_to_supi) == 1
    _drive(monolithic_testbed, WAIT_AUTH_RESPONSE)
    assert amf.session_state(ue.name) == RELEASED and amf._guti_to_supi == {}


@pytest.mark.parametrize("edge", ["success", "reject"])
@pytest.mark.parametrize("kind", list(PROCEDURE), ids=lambda kind: kind.__name__)
def test_every_edge_lands_in_its_declared_state(testbed, kind, edge):
    """A success edge also makes exactly its row's SBI exchanges."""
    step = PROCEDURE[kind]
    ue, uplink = _drive(testbed, step.requires or RELEASED, kind)
    before = len(testbed.host.events.select("sbi.request"))
    downlink = testbed.amf.handle_nas(ue.name, uplink if edge == "success" else _FORGED[kind])
    assert isinstance(downlink, AuthenticationReject) == (edge == "reject")
    assert testbed.amf.session_state(ue.name) == getattr(step, edge)
    made = [(_role_of(e.detail["src"], testbed), e.detail["path"])
            for e in testbed.host.events.select("sbi.request")[before:]]
    assert edge == "reject" or tuple(made) == step.exchanges


@pytest.mark.parametrize("kind,state", _UNDECLARED)
def test_every_undeclared_pair_raises_and_leaves_the_session(testbed, kind, state):
    ue, _ = _drive(testbed, state)
    session = testbed.amf._sessions.get(ue.name)
    before = dict(vars(session)) if session else None
    with pytest.raises(AmfError, match="out of order" if session else "no NAS session"):
        testbed.amf.handle_nas(ue.name, _FORGED[kind])
    assert testbed.amf._sessions.get(ue.name) is session
    assert (dict(vars(session)) if session else None) == before
