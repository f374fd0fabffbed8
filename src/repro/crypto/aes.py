"""AES-128 block cipher, pure Python, T-table accelerated.

MILENAGE (TS 35.206) is defined over a 128-bit block cipher with a 128-bit
key, for which 3GPP uses AES-128 (Rijndael).  This module implements the
FIPS-197 cipher over four precomputed 32-bit T-tables (SubBytes, ShiftRows
and MixColumns fused into table lookups) — the simulator charges cycle
costs through the hardware model, so host speed here only determines how
fast campaigns regenerate.

One API is exposed: :class:`AES128`, a keyed cipher object that expands
the key **once**; hot callers (MILENAGE, TLS record protection, CTR modes,
and CMAC where there is no libcrypto) hold one per key and amortise the
schedule over every block.  It also remembers the last CTR keystream it
produced, so the receiving end of a record (same key, hence same object
via :func:`aes128_cipher`, the per-key memo) reuses the stream its sender
just computed.

Side-channel hardening is explicitly a non-goal: this cipher runs inside a
simulation, never against an adversary with a timer.
"""

from __future__ import annotations

import os
from functools import lru_cache
from operator import itemgetter
from typing import List, Optional, Tuple

# Optional hardware-AES backend: when the `cryptography` package (OpenSSL
# bindings) is importable, block and CTR operations route through AES-NI.
# AES is AES — the output is byte-identical to the pure-Python T-table
# path, which remains both the fallback for minimal environments and the
# reference the property tests compare against.  Set REPRO_PURE_AES=1 to
# force the pure path (e.g. to benchmark it).
try:
    if os.environ.get("REPRO_PURE_AES"):
        raise ImportError("pure-python AES forced via REPRO_PURE_AES")
    from cryptography.hazmat.primitives.ciphers import Cipher as _HwCipher
    from cryptography.hazmat.primitives.ciphers import algorithms as _hw_algorithms
    from cryptography.hazmat.primitives.ciphers import modes as _hw_modes

    # ECB carries no IV or state: one mode object serves every context.
    _HW_ECB = _hw_modes.ECB()
    HAVE_HW_AES = True
except ImportError:  # pragma: no cover - exercised via REPRO_PURE_AES runs
    _HwCipher = _hw_algorithms = _HW_ECB = None  # type: ignore[assignment]
    HAVE_HW_AES = False

# FIPS-197 S-box.
_SBOX = bytes(
    [
        0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
        0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
        0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
        0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
        0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
        0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
        0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
        0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
        0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
        0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
        0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
        0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
        0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
        0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
        0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
        0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
    ]
)

_INV_SBOX = bytes(_SBOX.index(i) for i in range(256))

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication modulo the AES polynomial (table builds only)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_tables() -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
    """Precompute the encryption (T) and decryption (Td) tables.

    ``T{j}[x]`` is the MixColumns matrix applied to the column holding
    ``SBOX[x]`` in row ``j`` (zeros elsewhere); XORing four lookups fuses
    SubBytes + ShiftRows + MixColumns into one step per output word.  The
    Td tables do the same for the equivalent inverse cipher.
    """
    enc: List[List[int]] = [[], [], [], []]
    dec: List[List[int]] = [[], [], [], []]
    # Columns of the (Inv)MixColumns matrices, top row first.
    mix = ((2, 1, 1, 3), (3, 2, 1, 1), (1, 3, 2, 1), (1, 1, 3, 2))
    inv_mix = ((14, 9, 13, 11), (11, 14, 9, 13), (13, 11, 14, 9), (9, 13, 11, 14))
    for x in range(256):
        s, si = _SBOX[x], _INV_SBOX[x]
        for j in range(4):
            enc[j].append(
                (_gmul(s, mix[j][0]) << 24)
                | (_gmul(s, mix[j][1]) << 16)
                | (_gmul(s, mix[j][2]) << 8)
                | _gmul(s, mix[j][3])
            )
            dec[j].append(
                (_gmul(si, inv_mix[j][0]) << 24)
                | (_gmul(si, inv_mix[j][1]) << 16)
                | (_gmul(si, inv_mix[j][2]) << 8)
                | _gmul(si, inv_mix[j][3])
            )
    return (
        tuple(tuple(col) for col in enc),
        tuple(tuple(col) for col in dec),
    )


(_T0, _T1, _T2, _T3), (_TD0, _TD1, _TD2, _TD3) = _build_tables()

_MASK128 = (1 << 128) - 1

# ShiftRows / InvShiftRows as byte gathers over the 16-byte state.
_SHIFT_ROWS = itemgetter(0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11)
_INV_SHIFT_ROWS = itemgetter(0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3)


def _expand_key_words(key: bytes) -> Tuple[int, ...]:
    """Expand a 16-byte key into the 44 32-bit round-key words."""
    if len(key) != 16:
        raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
    sbox = _SBOX
    words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
    for i in range(4, 44):
        t = words[i - 1]
        if i % 4 == 0:
            # SubWord(RotWord(t)) ^ Rcon.
            t = (
                (sbox[(t >> 16) & 0xFF] << 24)
                | (sbox[(t >> 8) & 0xFF] << 16)
                | (sbox[t & 0xFF] << 8)
                | sbox[(t >> 24) & 0xFF]
            ) ^ (_RCON[i // 4 - 1] << 24)
        words.append(words[i - 4] ^ t)
    return tuple(words)


def _invert_schedule(ek: Tuple[int, ...]) -> Tuple[int, ...]:
    """Round-key words for the equivalent inverse cipher (InvMixColumns
    applied to the inner round keys, order reversed)."""
    sbox = _SBOX
    dk: List[int] = list(ek[40:44])
    for r in range(9, 0, -1):
        for w in ek[4 * r : 4 * r + 4]:
            # InvMixColumns(w): Td tables invert the S-box internally, so
            # feed them S-box outputs to apply the bare matrix.
            dk.append(
                _TD0[sbox[(w >> 24) & 0xFF]]
                ^ _TD1[sbox[(w >> 16) & 0xFF]]
                ^ _TD2[sbox[(w >> 8) & 0xFF]]
                ^ _TD3[sbox[w & 0xFF]]
            )
    dk.extend(ek[0:4])
    return tuple(dk)


def _round_keys(words: Tuple[int, ...]) -> Tuple[int, ...]:
    """Pack 44 schedule words into the 11 128-bit round keys the block
    kernels XOR into the state."""
    return tuple(
        (words[i] << 96) | (words[i + 1] << 64) | (words[i + 2] << 32) | words[i + 3]
        for i in range(0, 44, 4)
    )


def _encrypt_int(ek: Tuple[int, ...], block: int) -> int:
    """One block through the T-table cipher, 128-bit integers in and out.

    The only copy of the encryption round: every pure-Python mode
    (single block, ECB batch, CBC-MAC chain, CTR keystream) calls this.
    The state travels between rounds as 16 big-endian bytes, so each
    T-table index is a constant byte subscript instead of a shift and a
    mask, and the round body is the same text for all nine inner rounds.
    """
    t0, t1, t2, t3 = _T0, _T1, _T2, _T3
    s = (block ^ ek[0]).to_bytes(16, "big")
    for rk in ek[1:10]:
        s = (
            ((t0[s[0]] ^ t1[s[5]] ^ t2[s[10]] ^ t3[s[15]]) << 96
             | (t0[s[4]] ^ t1[s[9]] ^ t2[s[14]] ^ t3[s[3]]) << 64
             | (t0[s[8]] ^ t1[s[13]] ^ t2[s[2]] ^ t3[s[7]]) << 32
             | (t0[s[12]] ^ t1[s[1]] ^ t2[s[6]] ^ t3[s[11]]))
            ^ rk
        ).to_bytes(16, "big")
    return int.from_bytes(bytes(_SHIFT_ROWS(s.translate(_SBOX))), "big") ^ ek[10]


def _decrypt_int(dk: Tuple[int, ...], block: int) -> int:
    """:func:`_encrypt_int`'s inverse over the Td tables (equivalent
    inverse cipher, ``dk`` from :func:`_invert_schedule`)."""
    t0, t1, t2, t3 = _TD0, _TD1, _TD2, _TD3
    s = (block ^ dk[0]).to_bytes(16, "big")
    for rk in dk[1:10]:
        s = (
            ((t0[s[0]] ^ t1[s[13]] ^ t2[s[10]] ^ t3[s[7]]) << 96
             | (t0[s[4]] ^ t1[s[1]] ^ t2[s[14]] ^ t3[s[11]]) << 64
             | (t0[s[8]] ^ t1[s[5]] ^ t2[s[2]] ^ t3[s[15]]) << 32
             | (t0[s[12]] ^ t1[s[9]] ^ t2[s[6]] ^ t3[s[3]]))
            ^ rk
        ).to_bytes(16, "big")
    return int.from_bytes(bytes(_INV_SHIFT_ROWS(s.translate(_INV_SBOX))), "big") ^ dk[10]


@lru_cache(maxsize=256)
def _counter_run(nblocks: int) -> Tuple[int, int]:
    """``(repunit, ramp)`` such that ``counter * repunit + ramp`` is the
    concatenation of the 128-bit blocks ``counter, counter + 1, …,
    counter + nblocks - 1`` (valid while none of them wraps)."""
    repunit = ramp = 0
    for i in range(nblocks):
        repunit = (repunit << 128) | 1
        ramp = (ramp << 128) | i
    return repunit, ramp


class AES128:
    """AES-128 with the key schedule expanded once at construction.

    >>> cipher = AES128(bytes(16))
    >>> cipher.decrypt_block(cipher.encrypt_block(bytes(16))) == bytes(16)
    True
    """

    __slots__ = (
        "_key", "_ek_lazy", "_dk", "_hw_algo", "_hw_ecb_enc", "_hw_ecb_dec", "_memo",
    )

    def __init__(self, key: bytes) -> None:
        key = bytes(key)
        if len(key) != 16:
            raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self._key = key
        # Pure-path round keys, expanded and inverted on first use.
        self._ek_lazy: "Tuple[int, ...] | None" = None
        self._dk: "Tuple[int, ...] | None" = None
        # Last CTR keystream produced: (nonce, nblocks, stream), see _stream_int.
        self._memo: "Tuple[bytes, int, int] | None" = None
        if HAVE_HW_AES:
            algo = _hw_algorithms.AES(key)
            self._hw_algo: Optional[object] = algo
            # ECB contexts are stateless per block, so one encryptor /
            # decryptor pair serves every block-API call on this key.
            # Every hot user (CTR, MILENAGE, block encrypt) needs the
            # encryptor; decryption is rare, so that context is only
            # built on first use.
            self._hw_ecb_enc = _HwCipher(algo, _HW_ECB).encryptor()
            self._hw_ecb_dec = None
        else:
            self._hw_algo = self._hw_ecb_enc = self._hw_ecb_dec = None

    @property
    def _ek(self) -> Tuple[int, ...]:
        """Round keys for the pure-Python path (expanded on demand — with
        the hardware backend active they are only needed when a caller
        explicitly exercises the T-table reference)."""
        ek = self._ek_lazy
        if ek is None:
            ek = self._ek_lazy = _round_keys(_expand_key_words(self._key))
        return ek

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        hw = self._hw_ecb_enc
        if hw is not None:
            return hw.update(block)
        return self._pure_encrypt_block(block)

    def _pure_encrypt_block(self, block: bytes) -> bytes:
        """T-table single-block encryption (backend-independent reference)."""
        return _encrypt_int(self._ek, int.from_bytes(block, "big")).to_bytes(16, "big")

    def encrypt_blocks(self, data: bytes) -> bytes:
        """ECB-encrypt ``data`` (a concatenation of independent 16-byte
        blocks) in one pass.

        Byte-identical to ``b"".join(encrypt_block(b) for b in blocks)``;
        the hardware backend handles the whole buffer in a single
        ``update`` call.  MILENAGE uses this to run all of a vector's
        post-TEMP encryptions as one multi-block pass.
        """
        n = len(data)
        if n % 16:
            raise ValueError(f"ECB batch must be a multiple of 16 bytes, got {n}")
        if n == 0:
            return b""
        hw = self._hw_ecb_enc
        if hw is not None:
            return hw.update(data)
        ek = self._ek
        return b"".join(
            _encrypt_int(ek, int.from_bytes(data[i : i + 16], "big")).to_bytes(16, "big")
            for i in range(0, n, 16)
        )

    def cbc_mac(self, data: bytes) -> bytes:
        """Last ciphertext block of zero-IV CBC over ``data``.

        This is the CBC-MAC / CMAC chaining value: byte-identical to
        folding ``x = encrypt_block(x ^ block)`` over the blocks from
        ``x = 0``.  Pure Python on either backend: it is the reference
        the native CMAC of :mod:`repro.crypto.cmac` is checked against,
        and the only MAC path without libcrypto.
        """
        n = len(data)
        if n % 16 or n == 0:
            raise ValueError(
                f"CBC-MAC input must be a non-empty multiple of 16 bytes, got {n}"
            )
        ek = self._ek
        x = 0
        for i in range(0, n, 16):
            x = _encrypt_int(ek, x ^ int.from_bytes(data[i : i + 16], "big"))
        return x.to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        hw = self._hw_ecb_dec
        if hw is None and self._hw_algo is not None:
            hw = self._hw_ecb_dec = _HwCipher(self._hw_algo, _HW_ECB).decryptor()
        if hw is not None:
            return hw.update(block)
        return self._pure_decrypt_block(block)

    def _pure_decrypt_block(self, block: bytes) -> bytes:
        """Td-table single-block decryption (backend-independent reference)."""
        if self._dk is None:
            self._dk = _round_keys(_invert_schedule(_expand_key_words(self._key)))
        return _decrypt_int(self._dk, int.from_bytes(block, "big")).to_bytes(16, "big")

    @staticmethod
    def _counter_blocks(nonce: bytes, nblocks: int) -> bytes:
        """The ``nblocks`` consecutive CTR counter blocks starting at
        ``nonce`` (big-endian increment, wrapping mod 2^128)."""
        counter = int.from_bytes(nonce, "big")
        head = (1 << 128) - counter  # blocks before the counter wraps
        if nblocks > head:
            return AES128._counter_blocks(nonce, head) + AES128._counter_blocks(
                bytes(16), nblocks - head
            )
        repunit, ramp = _counter_run(nblocks)
        return (counter * repunit + ramp).to_bytes(nblocks * 16, "big")

    def _keystream_int(self, counter: int, nblocks: int) -> int:
        """``nblocks`` consecutive pure-Python CTR keystream blocks as one
        big integer: the concatenation of ``encrypt_block(counter + i)``
        for ``i`` in ``range(nblocks)`` (counter wrapping mod 2^128)."""
        ek = self._ek
        out = 0
        for _ in range(nblocks):
            out = (out << 128) | _encrypt_int(ek, counter)
            counter = (counter + 1) & _MASK128
        return out

    def _stream_int(self, nonce: bytes, length: int) -> int:
        """The first ``length`` (> 0) bytes of CTR keystream from counter
        ``nonce``, as an integer.

        The block-aligned stream is a pure function of (key, nonce, block
        count), so the last one computed is kept on the cipher object:
        the peer that decrypts a record shares this object through
        :func:`aes128_cipher` and asks for exactly the stream its sender
        just produced.  Nothing else keys the memo, and a hit returns what
        a recomputation would — callers still authenticate before they
        decrypt.
        """
        nblocks = (length + 15) // 16
        memo = self._memo
        if memo is not None and memo[1] == nblocks and memo[0] == nonce:
            stream = memo[2]
        else:
            hw = self._hw_ecb_enc
            if hw is not None:
                # CTR keystream == ECB over the counter blocks; the
                # persistent ECB context avoids a Cipher+encryptor
                # construction per call.
                stream = int.from_bytes(
                    hw.update(self._counter_blocks(nonce, nblocks)), "big"
                )
            else:
                stream = self._keystream_int(int.from_bytes(nonce, "big"), nblocks)
            self._memo = (bytes(nonce), nblocks, stream)
        # Truncation keeps the *first* ``length`` bytes, so a non-aligned
        # tail drops the low-order bytes of the last block.
        return stream >> ((nblocks * 16 - length) * 8)

    def ctr(self, nonce: bytes, data: bytes) -> bytes:
        """Counter mode over this cipher's key.

        ``nonce`` must be 16 bytes; it is used as the initial counter block
        and incremented big-endian per block, matching common ECIES
        profiles.  CTR is its own inverse under the same parameters.
        """
        if len(nonce) != 16:
            raise ValueError(f"CTR nonce must be 16 bytes, got {len(nonce)}")
        if not data:
            return b""
        n = len(data)
        return (int.from_bytes(data, "big") ^ self._stream_int(nonce, n)).to_bytes(
            n, "big"
        )


@lru_cache(maxsize=4096)
def aes128_cipher(key: bytes) -> AES128:
    """The shared :class:`AES128` instance for ``key``.

    USIM keys, NAS keys and TLS record keys recur across a campaign; this
    cache makes asking by key as cheap as holding the cipher object
    explicitly.  (Caching on secret bytes is fine here — the
    simulator is the only user of this module.)
    """
    return AES128(key)
