"""MILENAGE algorithm set (3GPP TS 35.205 / TS 35.206).

MILENAGE instantiates the authentication functions f1, f1*, f2, f3, f4,
f5 and f5* used by 5G-AKA (and by UMTS/LTE AKA before it) on top of a
128-bit block cipher — AES-128 here, exactly as 3GPP specifies:

* **f1 / f1*** — network / resynchronisation message authentication codes,
* **f2** — the response RES to the authentication challenge,
* **f3 / f4** — cipher key CK and integrity key IK,
* **f5 / f5*** — anonymity keys AK used to conceal the sequence number.

Both the UDM (home network side, inside the eUDM P-AKA enclave in the
paper) and the USIM (UE side) execute the same functions; mutual
authentication works because both sides hold the subscriber key K and the
operator constant OPc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.aes import aes128_cipher

# TS 35.206 §4.1 default constants: rotation amounts (bits) and additive
# constants c1..c5 (only the low bits differ between them).
_R1, _R2, _R3, _R4, _R5 = 64, 0, 32, 64, 96
_C1 = bytes(16)
_C2 = bytes(15) + b"\x01"
_C3 = bytes(15) + b"\x02"
_C4 = bytes(15) + b"\x04"
_C5 = bytes(15) + b"\x08"


_MASK128 = (1 << 128) - 1


@dataclass(frozen=True)
class MilenageVector:
    """The full output of one MILENAGE evaluation for a given RAND."""

    rand: bytes
    mac_a: bytes  # f1,  8 bytes
    mac_s: bytes  # f1*, 8 bytes
    res: bytes  # f2,  8 bytes
    ck: bytes  # f3, 16 bytes
    ik: bytes  # f4, 16 bytes
    ak: bytes  # f5,  6 bytes
    ak_star: bytes  # f5*, 6 bytes


class Milenage:
    """MILENAGE evaluated for one subscriber (fixed K and OPc).

    >>> m = Milenage(k=bytes(16), opc=bytes(16))
    >>> out = m.f2345(rand=bytes(16))
    >>> len(out.res), len(out.ck), len(out.ak)
    (8, 16, 6)
    """

    __slots__ = ("k", "opc", "_cipher", "_opc_int", "_last_rand", "_last_temp")

    def __init__(self, k: bytes, opc: bytes) -> None:
        if len(k) != 16:
            raise ValueError(f"K must be 16 bytes, got {len(k)}")
        if len(opc) != 16:
            raise ValueError(f"OPc must be 16 bytes, got {len(opc)}")
        self.k = k
        self.opc = opc
        # One key schedule per subscriber key, shared process-wide: every
        # f-function evaluation is 2-6 block encryptions under the same K.
        self._cipher = aes128_cipher(k)
        self._opc_int = int.from_bytes(opc, "big")
        # TEMP = E_K(RAND ⊕ OPc) memo: f1 and f2345 are almost always
        # evaluated back to back for the same RAND (USIM challenge check,
        # AUTS verification), so the shared intermediate is kept per RAND.
        self._last_rand: "bytes | None" = None
        self._last_temp = 0

    def _temp_int(self, rand: bytes) -> int:
        """TEMP = E_K(RAND ⊕ OPc) as a 128-bit integer, memoised per RAND."""
        if rand == self._last_rand:
            return self._last_temp
        if len(rand) != 16:
            raise ValueError(f"RAND must be 16 bytes, got {len(rand)}")
        temp = int.from_bytes(
            self._cipher.encrypt_block(
                (int.from_bytes(rand, "big") ^ self._opc_int).to_bytes(16, "big")
            ),
            "big",
        )
        self._last_rand = rand
        self._last_temp = temp
        return temp

    def _f1_block(self, temp: int, sqn: bytes, amf: bytes) -> int:
        """The cipher input block of f1/f1* (TEMP ⊕ rot(IN1 ⊕ OPc, r1) ⊕ c1)."""
        if len(sqn) != 6:
            raise ValueError(f"SQN must be 6 bytes, got {len(sqn)}")
        if len(amf) != 2:
            raise ValueError(f"AMF field must be 2 bytes, got {len(amf)}")
        in1 = int.from_bytes(sqn + amf + sqn + amf, "big") ^ self._opc_int
        # r1 = 64 bits, c1 = 0.
        return temp ^ (((in1 << 64) | (in1 >> 64)) & _MASK128)

    def _f2345_blocks(self, temp: int) -> "tuple[int, int, int, int]":
        """The four independent cipher inputs of f2–f5* given TEMP."""
        base = temp ^ self._opc_int
        mask = _MASK128
        # (rotate by r2..r5 = 0, 32, 64, 96 bits) ⊕ c2..c5 = 1, 2, 4, 8.
        b2 = base ^ 1
        b3 = (((base << 32) | (base >> 96)) & mask) ^ 2
        b4 = (((base << 64) | (base >> 64)) & mask) ^ 4
        b5 = (((base << 96) | (base >> 32)) & mask) ^ 8
        return b2, b3, b4, b5

    def f1(self, rand: bytes, sqn: bytes, amf: bytes) -> "tuple[bytes, bytes]":
        """f1 / f1*: returns (MAC-A, MAC-S) for the given SQN and AMF field.

        ``amf`` here is the 2-byte Authentication Management Field of
        TS 33.102, not the Access and Mobility Management Function.
        """
        block = self._f1_block(self._temp_int(rand), sqn, amf)
        out1 = (
            int.from_bytes(
                self._cipher.encrypt_block(block.to_bytes(16, "big")), "big"
            )
            ^ self._opc_int
        ).to_bytes(16, "big")
        return out1[:8], out1[8:]

    def _vector_from_outs(
        self, rand: bytes, out2: int, out3: int, out4: int, out5: int,
        mac_a: bytes = b"", mac_s: bytes = b"",
    ) -> MilenageVector:
        opc = self._opc_int
        out2_b = (out2 ^ opc).to_bytes(16, "big")
        return MilenageVector(
            rand=rand,
            mac_a=mac_a,
            mac_s=mac_s,
            res=out2_b[8:16],
            ck=(out3 ^ opc).to_bytes(16, "big"),
            ik=(out4 ^ opc).to_bytes(16, "big"),
            ak=out2_b[:6],
            ak_star=(out5 ^ opc).to_bytes(16, "big")[:6],
        )

    def f2345(self, rand: bytes) -> MilenageVector:
        """Evaluate f2–f5* (everything except the MACs) for ``rand``.

        The four independent block encryptions run as one ECB batch, so
        the whole evaluation is a single multi-block cipher pass.
        """
        b2, b3, b4, b5 = self._f2345_blocks(self._temp_int(rand))
        data = ((b2 << 384) | (b3 << 256) | (b4 << 128) | b5).to_bytes(64, "big")
        out = int.from_bytes(self._cipher.encrypt_blocks(data), "big")
        mask = _MASK128
        return self._vector_from_outs(
            rand, (out >> 384) & mask, (out >> 256) & mask,
            (out >> 128) & mask, out & mask,
        )

    def generate(self, rand: bytes, sqn: bytes, amf: bytes) -> MilenageVector:
        """Full evaluation: f1 and f2–f5* together.

        TEMP is computed once and all five post-TEMP encryptions (the f1
        MAC block plus the four f2–f5* blocks) run as one ECB batch.
        """
        temp = self._temp_int(rand)
        b1 = self._f1_block(temp, sqn, amf)
        b2, b3, b4, b5 = self._f2345_blocks(temp)
        data = (
            (b1 << 512) | (b2 << 384) | (b3 << 256) | (b4 << 128) | b5
        ).to_bytes(80, "big")
        out = int.from_bytes(self._cipher.encrypt_blocks(data), "big")
        mask = _MASK128
        out1 = (((out >> 512) & mask) ^ self._opc_int).to_bytes(16, "big")
        return self._vector_from_outs(
            rand, (out >> 384) & mask, (out >> 256) & mask,
            (out >> 128) & mask, out & mask,
            mac_a=out1[:8], mac_s=out1[8:],
        )


@lru_cache(maxsize=256)
def milenage_for(k: bytes, opc: bytes) -> Milenage:
    """The shared :class:`Milenage` instance for ``(K, OPc)``.

    Mirrors :func:`repro.crypto.aes.aes128_cipher`: AV generation and AUTS
    verification re-instantiate MILENAGE for the same subscriber on every
    request, and the per-instance TEMP memo only pays off if the instance
    survives across calls.  (Caching on secret bytes is fine here — the
    simulator is the only user of this module.)  Bounded as
    ``aes128_cipher`` is, for the same reason: an entry holds the
    cipher of its K.
    """
    return Milenage(k, opc)
