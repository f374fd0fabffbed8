"""TLS session model: record protection, sequencing, cost model."""

import pytest

from repro.crypto.aes import AES128
from repro.crypto.tls import (
    RECORD_FIXED_CYCLES,
    TlsError,
    establish_session,
    record_cycles,
)


@pytest.fixture
def sessions():
    return establish_session("udm-client", "eudm-server", b"handshake-secret")


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


def test_out_of_order_record_rejected(sessions):
    client, server = sessions
    client.protect(b"first")  # consumed sequence 0, never delivered
    second = client.protect(b"second")
    with pytest.raises(TlsError):
        server.unprotect(second)  # server still expects sequence 0


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


def test_cross_session_records_rejected():
    client_a, _ = establish_session("a", "s", b"secret-one")
    _, server_b = establish_session("a", "s", b"secret-two")
    with pytest.raises(TlsError):
        server_b.unprotect(client_a.protect(b"hello"))


def test_cost_model_scales_with_bytes():
    assert record_cycles(2048) > record_cycles(64)
    assert record_cycles(0) == RECORD_FIXED_CYCLES


# --- the keystream memo must not weaken the receive path ---------------
#
# Sender and receiver of a direction share one AES128 object (same key via
# aes128_cipher), and that object remembers the last CTR keystream it
# produced.  The receiver may reuse it only after the MAC has verified.


def test_receiver_reuses_the_senders_keystream(sessions):
    client, server = sessions
    assert server._recv_cipher is client._send_cipher
    record = client.protect(b"x" * 100)
    memo = client._send_cipher._memo
    assert server.unprotect(record) == b"x" * 100
    assert server._recv_cipher._memo is memo  # a hit, nothing recomputed


def test_tampered_record_rejected_with_warm_keystream(sessions, monkeypatch):
    client, server = sessions
    payload = b"kausf=deadbeef" * 4
    record = client.protect(payload)
    assert client._send_cipher._memo is not None  # `record`'s stream is cached
    stream_requests = []
    real = AES128._stream_int
    monkeypatch.setattr(
        AES128,
        "_stream_int",
        lambda self, nonce, n: stream_requests.append(n) or real(self, nonce, n),
    )
    for position in (0, len(payload) - 1, len(record) - 1):  # body and tag
        forged = bytearray(record)
        forged[position] ^= 0x01
        with pytest.raises(TlsError):
            server.unprotect(bytes(forged))
        assert server._recv_seq == 0
    assert stream_requests == []  # rejected before any keystream is asked for
    assert server.unprotect(record) == payload
    assert server._recv_seq == 1
    assert stream_requests == [len(payload)]


def test_replayed_record_fails_the_mac(sessions):
    client, server = sessions
    record = client.protect(b"request")
    assert server.unprotect(record) == b"request"
    with pytest.raises(TlsError):
        server.unprotect(record)  # sequence 1 expected: MAC covers seq
    assert server._recv_seq == 1


def test_wrong_key_receiver_never_sees_the_senders_stream():
    client_a, _ = establish_session("a", "s", b"secret-one")
    _, server_b = establish_session("a", "s", b"secret-two")
    assert server_b._recv_cipher is not client_a._send_cipher
    payload = b"supi=imsi-001010000000001"
    record = client_a.protect(payload)
    with pytest.raises(TlsError):
        server_b.unprotect(record)
    assert server_b._recv_seq == 0
    assert server_b._recv_cipher._memo is None
    # Even fed the same counter block and length, B's cipher derives its
    # own stream: the memo lives on the object, and the object is per key.
    nonce, nblocks, stream = client_a._send_cipher._memo
    n = len(payload)
    theirs = int.from_bytes(server_b._recv_cipher.ctr(nonce, bytes(n)), "big")
    assert theirs != stream >> ((nblocks * 16 - n) * 8)
