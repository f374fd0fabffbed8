"""End-to-end registration across all three isolation modes.

These are the headline integration tests: a UE with real credentials
registers through the full stack (SUCI → SIDF → UDR → MILENAGE → key
hierarchy → NAS security → GUTI → PDU session).  There is one deployment
shape, the AKA functions in their P-AKA modules; only what isolates the
modules varies: a container, an SGX enclave or a secure VM.
"""

import pytest

from repro.paka.deploy import IsolationMode
from repro.testbed import Testbed, TestbedConfig

ALL_MODES = [IsolationMode.CONTAINER, IsolationMode.SGX, IsolationMode.SECURE_VM]


@pytest.mark.parametrize("isolation", ALL_MODES, ids=["container", "sgx", "secure-vm"])
def test_full_registration_succeeds(isolation):
    testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=61))
    ue = testbed.add_subscriber()
    outcome = testbed.register(ue)
    assert outcome.success, outcome.failure_cause
    assert ue.registered
    assert ue.guti is not None
    assert ue.ue_address is not None
    assert outcome.session_setup_ms > 0


@pytest.mark.parametrize("isolation", ALL_MODES, ids=["container", "sgx", "secure-vm"])
def test_key_hierarchy_agrees_across_stack(isolation):
    """UE, AMF session and module memory must hold identical keys."""
    testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=62))
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    session = testbed.amf._sessions[ue.name]
    assert ue.kamf == session.kamf
    assert ue.k_nas_int == session.k_nas_int
    assert ue.k_nas_enc == session.k_nas_enc
    eamf = testbed.paka.module("eamf")
    assert eamf.runtime.load_secret("last_kamf") == ue.kamf


def test_all_modes_produce_identical_crypto():
    """Isolation changes performance and security, never the protocol
    bytes: with identical seeds all three modes derive the same keys."""
    kamfs = []
    for isolation in ALL_MODES:
        testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=63))
        ue = testbed.add_subscriber()
        assert testbed.register(ue, establish_session=False).success
        kamfs.append(ue.kamf)
    assert kamfs[0] == kamfs[1] == kamfs[2]


def test_sequential_registrations_share_slice(sgx_testbed):
    gutis = set()
    for _ in range(4):
        ue = sgx_testbed.add_subscriber()
        outcome = sgx_testbed.register(ue, establish_session=False)
        assert outcome.success
        gutis.add(ue.guti)
    assert len(gutis) == 4


def test_sqn_advances_across_registrations(sgx_testbed):
    """Each authentication consumes a fresh SQN in the UDR."""
    ue = sgx_testbed.add_subscriber()
    record = sgx_testbed.udr.subscriber(str(ue.usim.supi))
    assert record.sqn == 0
    assert sgx_testbed.register(ue, establish_session=False).success
    assert record.sqn == 1


def test_udm_never_receives_plaintext_supi_on_the_wire(sgx_testbed):
    """Capture the SBI bridge during registration: the MSIN appears in no
    frame (SUCI conceals it, TLS wraps everything anyway)."""
    bridge = sgx_testbed.sbi
    ue = sgx_testbed.add_subscriber()
    bridge.start_capture()
    assert sgx_testbed.register(ue, establish_session=False).success
    frames = bridge.stop_capture()
    assert frames
    msin = ue.usim.supi.msin.encode()
    for frame in frames:
        assert msin not in frame.payload


def test_subscriber_keys_never_on_the_wire(sgx_testbed):
    bridge = sgx_testbed.sbi
    ue = sgx_testbed.add_subscriber()
    bridge.start_capture()
    assert sgx_testbed.register(ue, establish_session=False).success
    for frame in bridge.stop_capture():
        assert ue.usim._k not in frame.payload
        assert ue.usim._k.hex().encode() not in frame.payload


def test_teardown_releases_resources():
    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=64))
    testbed.teardown()
    assert testbed.engine.ps() == []
    assert testbed.deployment.epc_manager.resident_pages == 0
