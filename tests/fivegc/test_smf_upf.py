"""SMF/UPF: PDU session anchoring and the N4 interface."""

import pytest

from repro.net.rest import JsonApiError
from repro.net.sbi import SMF_PDU_SESSION


def _session(testbed, supi="imsi-001010000000001"):
    return testbed.amf.call(
        testbed.smf, SMF_PDU_SESSION, {"supi": supi, "sessionId": 1, "dnn": "internet"}
    )


def test_pdu_session_allocates_address(container_testbed):
    testbed = container_testbed
    body = _session(testbed)
    assert body["ueAddress"].startswith("10.0.")
    assert body["qosFlow"] == "5qi-9"
    assert testbed.smf.session_count() == 1


def test_n4_programs_upf_forwarding(container_testbed):
    testbed = container_testbed
    body = _session(testbed)
    assert testbed.upf.session_count() == 1
    assert testbed.upf.forward_packet(body["ueAddress"], 1200)
    assert testbed.upf.packets_forwarded == 1


def test_upf_drops_unknown_address(container_testbed):
    assert not container_testbed.upf.forward_packet("10.9.9.9", 100)


def test_addresses_are_unique(container_testbed):
    testbed = container_testbed
    addresses = {
        _session(testbed, f"imsi-00101000000000{index}")["ueAddress"] for index in range(3)
    }
    assert len(addresses) == 3


def test_missing_fields_rejected(container_testbed):
    testbed = container_testbed
    with pytest.raises(JsonApiError) as caught:
        testbed.amf.call(testbed.smf, SMF_PDU_SESSION, {"supi": "x"})
    assert caught.value.status == 400


def test_end_to_end_data_session_after_registration(container_testbed):
    testbed = container_testbed
    ue = testbed.add_subscriber()
    outcome = testbed.register(ue, establish_session=True)
    assert outcome.success
    assert ue.ue_address is not None
    assert testbed.upf.forward_packet(ue.ue_address, 800)
