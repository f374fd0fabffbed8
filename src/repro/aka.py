"""5G-AKA authentication-vector generation (home network side).

This is the cryptographic heart the paper isolates: given the subscriber
key material and a fresh RAND/SQN, produce the Home Environment
Authentication Vector (RAND, AUTN, XRES*, K_AUSF) and, downstream, the
Serving Environment vector (RAND, AUTN, HXRES*) plus K_SEAF.  These
functions run in one place, the eUDM / eAUSF P-AKA modules, whatever
isolates them (container, SGX enclave or secure VM).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import (
    derive_hxres_star,
    derive_kausf,
    derive_kseaf,
    derive_res_star,
)
from repro.crypto.milenage import milenage_for

# Authentication Management Field with the "separation bit" set, mandatory
# for 5G-AKA (TS 33.102 Annex H / TS 33.501 §6.1.3.2).
AMF_FIELD_5G = bytes.fromhex("8000")


@dataclass(frozen=True)
class HomeAuthVector:
    """HE AV produced by the UDM: RAND ‖ AUTN ‖ XRES* ‖ K_AUSF."""

    rand: bytes
    autn: bytes
    xres_star: bytes
    kausf: bytes

    def __post_init__(self) -> None:
        if len(self.rand) != 16:
            raise ValueError("RAND must be 16 bytes")
        if len(self.autn) != 16:
            raise ValueError("AUTN must be 16 bytes")
        if len(self.xres_star) != 16:
            raise ValueError("XRES* must be 16 bytes")
        if len(self.kausf) != 32:
            raise ValueError("K_AUSF must be 32 bytes")


@dataclass(frozen=True)
class ServingAuthVector:
    """SE AV forwarded to the SEAF/AMF: RAND ‖ AUTN ‖ HXRES*."""

    rand: bytes
    autn: bytes
    hxres_star: bytes


def build_autn(sqn: bytes, ak: bytes, amf_field: bytes, mac_a: bytes) -> bytes:
    """AUTN = (SQN ⊕ AK) ‖ AMF ‖ MAC-A (TS 33.102 §6.3.2)."""
    if len(sqn) != 6 or len(ak) != 6:
        raise ValueError("SQN and AK must be 6 bytes")
    sqn_xor_ak = bytes(s ^ a for s, a in zip(sqn, ak))
    return sqn_xor_ak + amf_field + mac_a


def generate_he_av(
    k: bytes,
    opc: bytes,
    rand: bytes,
    sqn: bytes,
    snn: bytes,
    amf_field: bytes = AMF_FIELD_5G,
) -> HomeAuthVector:
    """Generate the HE AV (the eUDM P-AKA function, Table I row 1).

    Executes MILENAGE f1–f5, assembles AUTN, derives RES → XRES* and
    K_AUSF per TS 33.501 Annex A.
    """
    milenage = milenage_for(k, opc)
    vector = milenage.generate(rand, sqn, amf_field)
    autn = build_autn(sqn, vector.ak, amf_field, vector.mac_a)
    sqn_xor_ak = autn[:6]
    xres_star = derive_res_star(vector.ck, vector.ik, snn, rand, vector.res)
    kausf = derive_kausf(vector.ck, vector.ik, snn, sqn_xor_ak)
    return HomeAuthVector(rand=rand, autn=autn, xres_star=xres_star, kausf=kausf)


def derive_se_av(he_av: HomeAuthVector, snn: bytes) -> "tuple[ServingAuthVector, bytes]":
    """Derive the SE AV + K_SEAF from an HE AV (the eAUSF P-AKA function).

    Returns ``(se_av, kseaf)``; the AUSF keeps XRES* and K_SEAF to itself
    and forwards only the SE AV until the UE's response verifies.
    """
    hxres_star = derive_hxres_star(he_av.rand, he_av.xres_star)
    kseaf = derive_kseaf(he_av.kausf, snn)
    se_av = ServingAuthVector(
        rand=he_av.rand, autn=he_av.autn, hxres_star=hxres_star
    )
    return se_av, kseaf


from typing import Optional


def verify_auts(
    k: bytes, opc: bytes, rand: bytes, auts: bytes
) -> Optional[int]:
    """Home-network side of resynchronisation (TS 33.102 §6.3.5):
    validate the UE's AUTS token and recover its SQN_MS, or ``None``."""
    if len(auts) != 14:
        return None
    milenage = milenage_for(k, opc)
    vector = milenage.f2345(rand)
    sqn_ms = bytes(c ^ a for c, a in zip(auts[:6], vector.ak_star))
    _, expected_mac_s = milenage.f1(rand, sqn_ms, bytes(2))
    if expected_mac_s != auts[6:]:
        return None
    return int.from_bytes(sqn_ms, "big")
