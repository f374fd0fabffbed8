"""3GPP key derivation functions.

Implements the generic KDF of TS 33.220 Annex B (HMAC-SHA-256 over an
FC-tagged parameter string) and the 5G-specific derivations of TS 33.501
Annex A that the paper's P-AKA modules execute:

================  ====  =============================  ======================
Derivation        FC    Key                            Executed in (paper)
================  ====  =============================  ======================
K_AUSF            0x6A  CK ‖ IK                        eUDM P-AKA enclave
(X)RES*           0x6B  CK ‖ IK                        eUDM P-AKA enclave / UE
HXRES*            —     SHA-256(RAND ‖ XRES*)          eAUSF P-AKA enclave / SEAF
K_SEAF            0x6C  K_AUSF                         eAUSF P-AKA enclave
K_AMF             0x6D  K_SEAF                         eAMF P-AKA enclave
NAS int/enc keys  0x69  K_AMF                          AMF (NAS security)
K_gNB             0x6E  K_AMF                          AMF → gNB
================  ====  =============================  ======================
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Sequence


def ts33220_kdf(key: bytes, fc: int, params: Sequence[bytes]) -> bytes:
    """Generic 3GPP KDF (TS 33.220 Annex B.2).

    ``S = FC || P0 || L0 || P1 || L1 || ...`` where each ``Li`` is the
    2-byte big-endian length of ``Pi``; the derived key is
    ``HMAC-SHA-256(key, S)`` (32 bytes).
    """
    if not 0 <= fc <= 0xFF:
        raise ValueError(f"FC must fit one byte, got {fc:#x}")
    parts = [bytes([fc])]
    for p in params:
        if len(p) > 0xFFFF:
            raise ValueError(f"parameter too long for 16-bit length: {len(p)}")
        parts.append(p)
        parts.append(len(p).to_bytes(2, "big"))
    # hmac.digest is the one-shot C fast path: no HMAC object, no copied
    # hash contexts — the KDF chain runs seven times per registration.
    return hmac.digest(key, b"".join(parts), "sha256")


def serving_network_name(mcc: str, mnc: str) -> bytes:
    """The Serving Network Name per TS 24.501 §9.12.1 / TS 33.501 §6.1.1.4.

    Format ``5G:mnc<MNC>.mcc<MCC>.3gppnetwork.org`` with the MNC padded to
    three digits.
    """
    if not (mcc.isdigit() and len(mcc) == 3):
        raise ValueError(f"MCC must be 3 digits, got {mcc!r}")
    if not (mnc.isdigit() and len(mnc) in (2, 3)):
        raise ValueError(f"MNC must be 2 or 3 digits, got {mnc!r}")
    return f"5G:mnc{mnc.zfill(3)}.mcc{mcc}.3gppnetwork.org".encode()


def derive_kausf(ck: bytes, ik: bytes, snn: bytes, sqn_xor_ak: bytes) -> bytes:
    """K_AUSF per TS 33.501 A.2 (FC=0x6A, key CK‖IK)."""
    if len(sqn_xor_ak) != 6:
        raise ValueError(f"SQN xor AK must be 6 bytes, got {len(sqn_xor_ak)}")
    return ts33220_kdf(ck + ik, 0x6A, [snn, sqn_xor_ak])


def derive_res_star(ck: bytes, ik: bytes, snn: bytes, rand: bytes, res: bytes) -> bytes:
    """(X)RES* per TS 33.501 A.4 — the 128 *least* significant bits."""
    full = ts33220_kdf(ck + ik, 0x6B, [snn, rand, res])
    return full[16:]


def derive_hxres_star(rand: bytes, xres_star: bytes) -> bytes:
    """HXRES* per TS 33.501 A.5 — 128 *most* significant bits of SHA-256.

    Note: the paper's Table I lists HXRES* as 8 bytes; TS 33.501 defines 16.
    We implement the spec (see DESIGN.md §2).
    """
    digest = hashlib.sha256(rand + xres_star).digest()
    return digest[:16]


def derive_kseaf(kausf: bytes, snn: bytes) -> bytes:
    """K_SEAF per TS 33.501 A.6 (FC=0x6C, key K_AUSF)."""
    return ts33220_kdf(kausf, 0x6C, [snn])


def derive_kamf(kseaf: bytes, supi: str, abba: bytes = b"\x00\x00") -> bytes:
    """K_AMF per TS 33.501 A.7 (FC=0x6D, key K_SEAF, P0=SUPI, P1=ABBA)."""
    return ts33220_kdf(kseaf, 0x6D, [supi.encode(), abba])


# TS 33.501 A.8 algorithm type distinguishers.
N_NAS_ENC_ALG = 0x01
N_NAS_INT_ALG = 0x02


def derive_nas_keys(kamf: bytes, enc_alg_id: int = 1, int_alg_id: int = 2) -> "tuple[bytes, bytes]":
    """NAS encryption/integrity keys per TS 33.501 A.8 (FC=0x69).

    Returns ``(k_nas_enc, k_nas_int)``; each is the 128 least significant
    bits of the 256-bit KDF output, per §6.2.3.1.
    """
    k_enc = ts33220_kdf(kamf, 0x69, [bytes([N_NAS_ENC_ALG]), bytes([enc_alg_id])])[16:]
    k_int = ts33220_kdf(kamf, 0x69, [bytes([N_NAS_INT_ALG]), bytes([int_alg_id])])[16:]
    return k_enc, k_int
