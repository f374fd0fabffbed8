"""Enclave measurement (MRENCLAVE) and signing (SIGSTRUCT / MRSIGNER).

MRENCLAVE is a SHA-256 over the ordered log of page-add and
measure-extend operations performed while building the enclave; any change
to the measured contents, their placement or their order changes the
measurement.  SIGSTRUCT binds the measurement to the vendor's signing key;
MRSIGNER is the hash of that key.  The simulator reproduces these
relationships (hash-chain over build operations, key-hash identity) so
attestation and sealing behave faithfully.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Optional

EEXTEND_CHUNK = 256


class MeasurementBuilder:
    """Accumulates the MRENCLAVE hash chain during enclave build."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256(b"ECREATE")
        self._finalized: Optional[bytes] = None

    def ecreate(self, size_bytes: int, attributes: bytes = b"") -> None:
        self._hash.update(b"SIZE" + size_bytes.to_bytes(8, "big") + attributes)

    def eadd(self, offset: int, flags: str) -> None:
        if self._finalized is not None:
            raise RuntimeError("measurement already finalized")
        self._hash.update(b"EADD" + offset.to_bytes(8, "big") + flags.encode())

    def eextend(self, offset: int, chunk: bytes) -> None:
        if self._finalized is not None:
            raise RuntimeError("measurement already finalized")
        self._hash.update(b"EEXTEND" + offset.to_bytes(8, "big") + chunk)

    def finalize(self) -> "EnclaveMeasurement":
        if self._finalized is None:
            self._finalized = self._hash.digest()
        return EnclaveMeasurement(mrenclave=self._finalized)


@dataclass(frozen=True)
class EnclaveMeasurement:
    """The MRENCLAVE identity of a built enclave."""

    mrenclave: bytes

    def __post_init__(self) -> None:
        if len(self.mrenclave) != 32:
            raise ValueError("MRENCLAVE must be 32 bytes")

    def hex(self) -> str:
        return self.mrenclave.hex()


@dataclass(frozen=True)
class SigStruct:
    """The enclave signature structure checked at EINIT.

    ``mrsigner`` is the SHA-256 of the signing key; ``signature`` is an
    HMAC stand-in for the RSA-3072 signature over the measurement (the
    security property tests need unforgeability relative to key knowledge,
    not a specific signature algorithm).
    """

    mrenclave: bytes
    mrsigner: bytes
    isv_prod_id: int
    isv_svn: int
    signature: bytes

    def verify(self, signing_key: bytes) -> bool:
        expected = _sigstruct_signature(
            signing_key, self.mrenclave, self.isv_prod_id, self.isv_svn
        )
        return hmac.compare_digest(self.signature, expected) and hmac.compare_digest(
            self.mrsigner, hashlib.sha256(signing_key).digest()
        )


def _sigstruct_signature(
    signing_key: bytes, mrenclave: bytes, isv_prod_id: int, isv_svn: int
) -> bytes:
    payload = mrenclave + isv_prod_id.to_bytes(2, "big") + isv_svn.to_bytes(2, "big")
    return hmac.new(signing_key, b"SIGSTRUCT" + payload, hashlib.sha256).digest()


def sign_enclave(
    measurement: EnclaveMeasurement,
    signing_key: bytes,
    isv_prod_id: int = 0,
    isv_svn: int = 1,
) -> SigStruct:
    """Produce the SIGSTRUCT for a measured enclave (the GSC sign step)."""
    return SigStruct(
        mrenclave=measurement.mrenclave,
        mrsigner=hashlib.sha256(signing_key).digest(),
        isv_prod_id=isv_prod_id,
        isv_svn=isv_svn,
        signature=_sigstruct_signature(
            signing_key, measurement.mrenclave, isv_prod_id, isv_svn
        ),
    )
