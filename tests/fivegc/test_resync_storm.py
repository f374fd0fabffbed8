"""AMF resync path under forged-AUTS storms: retry cap, no session leaks."""

from random import Random

from repro.fivegc.messages import (
    AuthenticationFailure,
    AuthenticationReject,
    AuthenticationRequest,
)
from repro.sim import invariants


def _challenge(testbed, ue):
    downlink = testbed.amf.handle_nas(ue.name, ue.build_registration_request())
    assert isinstance(downlink, AuthenticationRequest)
    return downlink


def test_resync_attempted_caps_retries_at_one_per_session(container_testbed):
    """A genuine resync may run once; a second SYNCH_FAILURE on the same
    session fails it instead of looping through the home network again."""
    testbed = container_testbed
    ue = testbed.add_subscriber()
    ue.usim.sqn_ms = 1 << 35  # force a genuine SQN desynchronisation
    challenge = _challenge(testbed, ue)

    failure = ue.handle_nas(challenge)
    assert isinstance(failure, AuthenticationFailure)
    assert failure.cause == "SYNCH_FAILURE"
    fresh = testbed.amf.handle_nas(ue.name, failure)
    assert isinstance(fresh, AuthenticationRequest)  # one resync granted

    replay = testbed.amf.handle_nas(
        ue.name, AuthenticationFailure(cause="SYNCH_FAILURE", auts=failure.auts)
    )
    assert isinstance(replay, AuthenticationReject)
    assert testbed.amf.session_state(ue.name) == "none"  # context released


def test_forged_auts_rejected_and_session_released(sgx_testbed):
    """A forged AUTS fails MAC-S verification in the eUDM and the AMF
    tears the session down — the attacker cannot hold state open."""
    testbed = sgx_testbed
    ue = testbed.add_subscriber()
    _challenge(testbed, ue)
    reject = testbed.amf.handle_nas(
        ue.name,
        AuthenticationFailure(cause="SYNCH_FAILURE", auts=Random(1).randbytes(14)),
    )
    assert isinstance(reject, AuthenticationReject)
    assert testbed.amf.session_state(ue.name) == "none"
    # The victim's stored SQN was not reset by the forgery.
    assert testbed.udr.subscriber(str(ue.usim.supi)).sqn == 1


def test_forged_auts_storm_cannot_wedge_or_leak_sessions(sgx_testbed):
    """A sustained sync-failure flood from a finite spoof pool leaves no
    dangling _UeSession state and the AMF keeps serving."""
    testbed = sgx_testbed
    victim_request = testbed.add_subscriber().build_registration_request()
    rng = Random("auts-storm")

    for wave in range(3):
        for spoof in range(8):
            source = f"spoof-{spoof}"
            challenge = testbed.amf.handle_nas(source, victim_request)
            assert isinstance(challenge, AuthenticationRequest)
            reject = testbed.amf.handle_nas(
                source,
                AuthenticationFailure(
                    cause="SYNCH_FAILURE", auts=rng.randbytes(14)
                ),
            )
            assert isinstance(reject, AuthenticationReject)
    # Every storm session was torn down at the rejection.
    assert invariants.check(testbed) == []
    assert all(
        testbed.amf.session_state(f"spoof-{spoof}") == "none"
        for spoof in range(8)
    )
    # And a legitimate subscriber still registers end to end.
    outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert outcome.success
