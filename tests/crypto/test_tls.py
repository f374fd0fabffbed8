"""TLS session model: record protection, sequencing, cost model."""

import pytest

from repro.crypto import tls
from repro.crypto.tls import (
    RECORD_FIXED_CYCLES,
    TlsError,
    establish_session,
    record_cycles,
)


@pytest.fixture
def sessions():
    return establish_session("udm-client", "eudm-server", b"handshake-secret")


@pytest.fixture
def keystreams(monkeypatch):
    """The length of every record keystream derived while the test runs."""
    derived = []
    real = tls._keystream_xor
    monkeypatch.setattr(
        tls,
        "_keystream_xor",
        lambda key, seq, data: derived.append(len(data)) or real(key, seq, data),
    )
    return derived


def test_protect_unprotect_roundtrip(sessions):
    client, server = sessions
    record = client.protect(b'{"rand": "00"}')
    assert server.unprotect(record) == b'{"rand": "00"}'


def test_ciphertext_hides_plaintext(sessions):
    client, _ = sessions
    payload = b"kausf=deadbeef" * 4
    assert payload not in client.protect(payload)


def test_bidirectional_streams_are_independent(sessions):
    client, server = sessions
    up = client.protect(b"request")
    assert server.unprotect(up) == b"request"
    down = server.protect(b"response")
    assert client.unprotect(down) == b"response"


def test_sequence_numbers_rotate_keys(sessions):
    client, _ = sessions
    first = client.protect(b"same payload")
    second = client.protect(b"same payload")
    assert first != second


def test_out_of_order_record_rejected(sessions, keystreams):
    client, server = sessions
    client.protect(b"first")  # consumed sequence 0, never delivered
    second = client.protect(b"second")
    del keystreams[:]
    with pytest.raises(TlsError):
        server.unprotect(second)  # server still expects sequence 0
    assert server._recv_seq == 0
    assert keystreams == []


def test_tampered_record_rejected(sessions):
    client, server = sessions
    record = bytearray(client.protect(b"payload"))
    record[0] ^= 0xFF
    with pytest.raises(TlsError):
        server.unprotect(bytes(record))


def test_truncated_record_rejected(sessions):
    _, server = sessions
    with pytest.raises(TlsError):
        server.unprotect(b"short")


def test_cross_session_records_rejected(keystreams):
    client_a, _ = establish_session("a", "s", b"secret-one")
    _, server_b = establish_session("a", "s", b"secret-two")
    record = client_a.protect(b"supi=imsi-001010000000001")
    del keystreams[:]
    with pytest.raises(TlsError):
        server_b.unprotect(record)  # wrong MAC key: fails before any keystream
    assert server_b._recv_seq == 0
    assert keystreams == []


def test_cost_model_scales_with_bytes():
    assert record_cycles(2048) > record_cycles(64)
    assert record_cycles(0) == RECORD_FIXED_CYCLES


# --- the receiver authenticates before it derives a keystream ----------


def test_tampered_record_is_rejected_before_any_keystream(sessions, keystreams):
    client, server = sessions
    payload = b"kausf=deadbeef" * 4
    record = client.protect(payload)
    assert keystreams == [len(payload)]  # the sender's
    del keystreams[:]
    for position in (0, len(payload) - 1, len(record) - 1):  # body and tag
        forged = bytearray(record)
        forged[position] ^= 0x01
        with pytest.raises(TlsError):
            server.unprotect(bytes(forged))
        assert server._recv_seq == 0
    assert keystreams == []  # rejected before any keystream is derived
    assert server.unprotect(record) == payload
    assert server._recv_seq == 1
    assert keystreams == [len(payload)]


def test_replayed_record_fails_the_mac(sessions, keystreams):
    client, server = sessions
    record = client.protect(b"request")
    assert server.unprotect(record) == b"request"
    del keystreams[:]
    with pytest.raises(TlsError):
        server.unprotect(record)  # sequence 1 expected: MAC covers seq
    assert server._recv_seq == 1
    assert keystreams == []


def test_directions_and_records_have_distinct_keystreams(sessions):
    client, server = sessions
    zeros = bytes(64)
    up = [client.protect(zeros)[:64] for _ in range(2)]
    down = server.protect(zeros)[:64]
    # Over zeros the ciphertext is the keystream itself.
    assert len({up[0], up[1], down}) == 3
