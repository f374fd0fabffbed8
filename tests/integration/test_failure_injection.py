"""Failure injection across the slice: wrong keys, desync, dead modules."""

import pytest

from repro.crypto.milenage import Milenage
from repro.paka.deploy import IsolationMode
from repro.testbed import Testbed, TestbedConfig


@pytest.fixture
def testbed():
    return Testbed.build(TestbedConfig(isolation=IsolationMode.CONTAINER, seed=71))


def corrupt_sim_key(ue):
    ue.usim._k = bytes(16)
    ue.usim._milenage = Milenage(bytes(16), ue.usim._opc)


def test_wrong_sim_key_rejected_cleanly(testbed):
    ue = testbed.add_subscriber()
    corrupt_sim_key(ue)
    outcome = testbed.register(ue)
    assert not outcome.success
    assert "MAC_FAILURE" in (outcome.failure_cause or "")
    # The slice survives: a good UE still registers afterwards.
    good = testbed.add_subscriber()
    assert testbed.register(good).success


def test_desynchronized_usim_recovers_via_resync(testbed):
    """A UE far ahead of the network reports SYNCH_FAILURE with an AUTS
    token; the home network verifies it, resets the SQN and the retried
    challenge succeeds (TS 33.102 §6.3.5)."""
    ue = testbed.add_subscriber()
    ue.usim.sqn_ms = 1 << 40  # UE far ahead of the network
    outcome = testbed.register(ue, establish_session=False)
    assert outcome.success
    record = testbed.udr.subscriber(str(ue.usim.supi))
    assert record.sqn == (1 << 40) + 1  # resynced then advanced


def test_resync_is_attempted_only_once(testbed):
    """If resync cannot fix the problem (UE's SQN_MS keeps moving), the
    AMF gives up after one attempt instead of looping."""
    ue = testbed.add_subscriber()
    ue.usim.sqn_ms = 1 << 40

    original_authenticate = ue.usim.authenticate

    def always_desynced(rand, autn, snn):
        ue.usim.sqn_ms += 1 << 30  # jump ahead again before every check
        return original_authenticate(rand, autn, snn)

    ue.usim.authenticate = always_desynced
    outcome = testbed.register(ue, establish_session=False)
    assert not outcome.success
    assert "SYNCH_FAILURE" in (outcome.failure_cause or "")


def test_module_crash_fails_registration_not_core(testbed):
    """Killing the eUDM module makes registrations *fail* upstream — a
    clean AuthenticationReject, not an exception unwinding the NAS stack
    — while the core stays up; restoring service is a redeploy."""
    eudm = testbed.paka.module("eudm")
    eudm.server.stop()
    ue = testbed.add_subscriber()
    outcome = testbed.register(ue, establish_session=False)
    assert not outcome.success
    # The module outage surfaced as a 503 travelling up the SBI chain.
    assert "503" in (outcome.failure_cause or "")
    # Core NFs are still serving (NRF answers discovery).
    from repro.net.sbi import NRF_DISCOVER

    answer = testbed.udm.call(testbed.nrf, NRF_DISCOVER, {"targetNfType": "UDR"})
    assert [profile.nf_type.value for profile in answer["nfInstances"]] == ["UDR"]


def test_unprovisioned_ue_rejected(testbed):
    """A SUCI that deconceals to an unknown SUPI is refused by the UDR."""
    from repro.crypto.suci import Supi
    from repro.ran.usim import Usim
    from repro.ran.ue import UserEquipment

    ghost_supi = Supi("001", "01", "9999999999")
    usim = Usim(supi=ghost_supi, k=bytes(range(16)), opc=bytes(range(16, 32)))
    ue = UserEquipment("ghost", usim, testbed.hn_public_key, testbed.host.rng, testbed.snn)
    outcome = testbed.register(ue, establish_session=False)
    assert not outcome.success


def test_attacker_cannot_register_with_stolen_xres(testbed):
    """Even an attacker that somehow learned HXRES* cannot finish AKA:
    the AUSF confirmation checks the full RES*, which needs K."""
    from repro.fivegc.messages import AuthenticationResponse
    from repro.fivegc.messages import AuthenticationReject

    ue = testbed.add_subscriber()
    testbed.amf.handle_nas(ue.name, ue.build_registration_request())
    session = testbed.amf._sessions[ue.name]
    # The attacker knows HXRES* (it crossed the SBI) but not RES*.
    reply = testbed.amf.handle_nas(
        ue.name, AuthenticationResponse(res_star=session.hxres_star)
    )
    assert isinstance(reply, AuthenticationReject)


def test_registration_storm_with_mixed_outcomes(testbed):
    successes = 0
    for index in range(6):
        ue = testbed.add_subscriber()
        if index % 3 == 0:
            corrupt_sim_key(ue)
        outcome = testbed.register(ue, establish_session=False)
        successes += outcome.success
    assert successes == 4
    assert testbed.gnb.registrations_attempted == 6
    assert testbed.gnb.registrations_succeeded == 4
