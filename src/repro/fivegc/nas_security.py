"""Secure NAS channel: 128-NEA2 ciphering + 128-NIA2 integrity.

After the Security Mode procedure both sides hold K_NAS_enc / K_NAS_int;
subsequent NAS PDUs travel ciphered and integrity-protected with
monotonically increasing COUNTs per direction (replay protection).  The
PDU-session exchanges of this reproduction use this channel, so the
user's session parameters are confidential on the N1 path just as the
AKA parameters are on the SBI path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Type

from repro.net.codec import dumps_flat, loads_object
from repro.crypto.cmac import nia2_mac
from repro.crypto.nea import nea2_encrypt
from repro.fivegc.messages import (
    AuthenticationReject,
    NasMessage,
    PduSessionEstablishmentAccept,
    PduSessionEstablishmentRequest,
)

UPLINK = 0
DOWNLINK = 1


class NasSecurityError(Exception):
    """Integrity failure, replay, or undecodable inner message."""


@dataclass(frozen=True)
class ProtectedNasPdu(NasMessage):
    """A ciphered + integrity-protected NAS PDU."""

    count: int
    direction: int
    ciphertext: bytes
    mac: bytes

    def approx_bytes(self) -> int:
        return 12 + len(self.ciphertext) + len(self.mac)


# Inner-message codec: only messages that travel post-SMC need entries
# (a refused PDU session is answered with a ciphered reject).
_CODEC: Dict[str, Type[NasMessage]] = {
    "AuthenticationReject": AuthenticationReject,
    "PduSessionEstablishmentRequest": PduSessionEstablishmentRequest,
    "PduSessionEstablishmentAccept": PduSessionEstablishmentAccept,
}


def encode_inner(message: NasMessage) -> bytes:
    if message.kind not in _CODEC:
        raise NasSecurityError(f"no NAS codec for {message.kind}")
    payload = {"kind": message.kind}
    payload.update(message.__dict__)
    return dumps_flat(payload)


def decode_inner(raw: bytes) -> NasMessage:
    try:
        payload = loads_object(raw)
        kind = payload.pop("kind")
        return _CODEC[kind](**payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise NasSecurityError(f"undecodable inner NAS message: {exc}")


class SecureNasChannel:
    """One side's view of the established NAS security context."""

    def __init__(
        self,
        k_nas_enc: bytes,
        k_nas_int: bytes,
        bearer: int = 1,
        send_direction: int = UPLINK,
    ) -> None:
        if len(k_nas_enc) != 16 or len(k_nas_int) != 16:
            raise ValueError("NAS keys must be 16 bytes")
        if send_direction not in (UPLINK, DOWNLINK):
            raise ValueError(f"bad direction {send_direction}")
        self.k_nas_enc = k_nas_enc
        self.k_nas_int = k_nas_int
        self.bearer = bearer
        self.send_direction = send_direction
        self._send_count = 0
        self._highest_received = -1

    def protect(self, message: NasMessage) -> ProtectedNasPdu:
        """Cipher + MAC one NAS message for transmission."""
        plaintext = encode_inner(message)
        count = self._send_count
        self._send_count += 1
        ciphertext = nea2_encrypt(
            self.k_nas_enc, count, self.bearer, self.send_direction, plaintext
        )
        mac = nia2_mac(self.k_nas_int, count, self.bearer, self.send_direction, ciphertext)
        return ProtectedNasPdu(
            count=count, direction=self.send_direction, ciphertext=ciphertext, mac=mac
        )

    def unprotect(self, pdu: ProtectedNasPdu) -> NasMessage:
        """Verify, replay-check and decipher a received PDU."""
        expected_direction = 1 - self.send_direction
        if pdu.direction != expected_direction:
            raise NasSecurityError(
                f"direction reflection: got {pdu.direction}, "
                f"expected {expected_direction}"
            )
        if pdu.count <= self._highest_received:
            raise NasSecurityError(f"replayed NAS COUNT {pdu.count}")
        expected_mac = nia2_mac(
            self.k_nas_int, pdu.count, self.bearer, pdu.direction, pdu.ciphertext
        )
        if expected_mac != pdu.mac:
            raise NasSecurityError("NAS MAC verification failed")
        self._highest_received = pdu.count
        plaintext = nea2_encrypt(
            self.k_nas_enc, pdu.count, self.bearer, pdu.direction, pdu.ciphertext
        )
        return decode_inner(plaintext)
