"""TLS session model for the simulated network.

3GPP mandates TLS with mutual authentication between VNFs on the
service-based interfaces (TS 33.210), and the paper's P-AKA modules are
HTTPS (Pistache + OpenSSL) servers.  This module provides:

* real record protection — a SHAKE-128 keystream XORed over the payload
  and an HMAC-SHA-256 tag, both under per-session direction keys, so
  tests can assert that an on-path observer of the simulated bridge
  cannot read AKA parameters or alter a record unnoticed, and
* a cycle cost model — handshake and per-byte record costs that the
  network substrate charges to the endpoint CPUs (encryption is one of
  the paper's explanations for the amplified `L_N` inside SGX).

What a record costs in simulated time is :func:`record_cycles` of its
length alone, so the host cipher only has to hide and authenticate the
bytes: it is not the suite a deployment would negotiate, and it is not
the 5G-AKA crypto (MILENAGE, the KDFs, ECIES, NIA2/NEA2), which stays
exact.  A record is ``TAG_LENGTH`` bytes longer than its payload, as
with the modelled suite, so frame sizes do not depend on the cipher.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass


class TlsError(Exception):
    """Record authentication or handshake failure."""


_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def _hmac_pads(key: bytes) -> tuple:
    """HMAC-SHA-256 keyed once (RFC 2104): the inner and outer hash
    contexts with their 64-byte pad block already absorbed.  ``key`` is a
    32-byte digest here, so it never needs the longer-than-a-block
    pre-hash."""
    block = key.ljust(64, b"\0")
    return hashlib.sha256(block.translate(_IPAD)), hashlib.sha256(block.translate(_OPAD))


def _keystream_xor(key: bytes, seq: int, data: bytes) -> bytes:
    """``data`` XOR the keystream of record ``seq`` under direction key
    ``key``: ``SHAKE-128(key ‖ seq8)`` squeezed to ``len(data)`` bytes, one
    hash call per record.  Its own inverse."""
    n = len(data)
    stream = hashlib.shake_128(key + seq.to_bytes(8, "big")).digest(n)
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(n, "big")


# Cycle costs of the TLS operations, charged to the endpoint CPUs by
# :mod:`repro.net.http`.
HANDSHAKE_CYCLES = 1_200_000  # ECDHE + cert verification, amortised
RECORD_FIXED_CYCLES = 2_400  # per-record framing + MAC setup
RECORD_PER_BYTE_CYCLES = 6.0  # cipher + HMAC per payload byte


def record_cycles(nbytes: int) -> float:
    """Cycles to protect (or verify and decrypt) one ``nbytes`` record."""
    return RECORD_FIXED_CYCLES + RECORD_PER_BYTE_CYCLES * nbytes


@dataclass
class TlsSession:
    """An established mutual-TLS session between two endpoints.

    Key material is derived **once** per session and direction: each
    direction gets its own keystream key and MAC key (the latter held as
    the two HMAC pad blocks already hashed, :func:`_hmac_pads`).  A record
    therefore pays only per-record work — its keystream
    (:func:`_keystream_xor` of the sequence number) and its HMAC over
    ``seq ‖ ciphertext`` — never a key derivation or an HMAC re-keying,
    and the two directions have distinct keystreams.  The receiver
    recomputes the tag and compares it before it derives any keystream.
    """

    client_name: str
    server_name: str
    master_secret: bytes
    is_client: bool = True
    _send_seq: int = 0
    _recv_seq: int = 0

    TAG_LENGTH = 16

    def __post_init__(self) -> None:
        c2s = hashlib.sha256(self.master_secret + b"c2s").digest()
        s2c = hashlib.sha256(self.master_secret + b"s2c").digest()
        c2s_mac = hashlib.sha256(b"mac" + c2s).digest()
        s2c_mac = hashlib.sha256(b"mac" + s2c).digest()
        if self.is_client:
            send, send_mac, recv, recv_mac = c2s, c2s_mac, s2c, s2c_mac
        else:
            send, send_mac, recv, recv_mac = s2c, s2c_mac, c2s, c2s_mac
        self._send_key = send
        self._send_mac = _hmac_pads(send_mac)
        self._recv_key = recv
        self._recv_mac = _hmac_pads(recv_mac)

    def _tag(self, pads: tuple, seq: int, ciphertext: bytes) -> bytes:
        """``HMAC(key, seq8 ‖ ciphertext)[:TAG_LENGTH]`` from ``key``'s
        pre-hashed pads."""
        inner, outer = pads[0].copy(), pads[1].copy()
        inner.update(seq.to_bytes(8, "big"))
        inner.update(ciphertext)
        outer.update(inner.digest())
        return outer.digest()[: self.TAG_LENGTH]

    def protect(self, plaintext: bytes) -> bytes:
        """Encrypt-and-MAC one record; advances the send sequence."""
        seq = self._send_seq
        self._send_seq = seq + 1
        ciphertext = _keystream_xor(self._send_key, seq, plaintext)
        return ciphertext + self._tag(self._send_mac, seq, ciphertext)

    def unprotect(self, record: bytes) -> bytes:
        """Verify and decrypt one record; advances the receive sequence."""
        if len(record) < self.TAG_LENGTH:
            raise TlsError("record shorter than authentication tag")
        seq = self._recv_seq
        ciphertext, tag = record[: -self.TAG_LENGTH], record[-self.TAG_LENGTH :]
        if not hmac.compare_digest(tag, self._tag(self._recv_mac, seq, ciphertext)):
            raise TlsError("record authentication failed")
        self._recv_seq = seq + 1
        return _keystream_xor(self._recv_key, seq, ciphertext)


def establish_session(
    client_name: str,
    server_name: str,
    handshake_secret: bytes,
) -> "tuple[TlsSession, TlsSession]":
    """Create the paired client/server session objects.

    The handshake itself (certificate exchange, ECDHE) is modelled by the
    cost hooks; the resulting symmetric state is what matters for record
    protection.  Returns ``(client_session, server_session)`` sharing a
    master secret derived from ``handshake_secret``.
    """
    master = hashlib.sha256(
        b"tls-master" + client_name.encode() + server_name.encode() + handshake_secret
    ).digest()
    client = TlsSession(client_name=client_name, server_name=server_name,
                        master_secret=master, is_client=True)
    server = TlsSession(client_name=client_name, server_name=server_name,
                        master_secret=master, is_client=False)
    return client, server
