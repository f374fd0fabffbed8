"""AES-CMAC (RFC 4493 / NIST SP 800-38B).

5G NAS integrity algorithm 128-NIA2 is AES-CMAC over the message with the
NAS COUNT/bearer/direction prepended (TS 33.501 Annex D); the MAC carried
in NAS messages is the 4-byte truncation.  Used by the AMF and the UE for
the Security Mode procedure after K_AMF is derived.

Key set-up is paid once per key, per-message work once per message.  On
libcrypto a keyed native CMAC context is kept per key (:func:`_hw_cmac`)
and each tag is ``copy → update → finalize``: OpenSSL derives the subkeys
and pads, and no :class:`AES128` object or Python subkey exists for
K_NASint.  Without libcrypto — and as the reference the native tags are
tested against — :func:`_aes_cmac_pure` spells RFC 4493 out over
:func:`_generate_subkeys` and :meth:`AES128.cbc_mac`.
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.aes import HAVE_HW_AES, aes128_cipher

if HAVE_HW_AES:
    from cryptography.hazmat.primitives.ciphers.algorithms import AES as _HwAES
    from cryptography.hazmat.primitives.cmac import CMAC as _HwCMAC

_BLOCK = 16
_RB = 0x87
# Per-key CMAC set-ups kept, on either backend.  K_NASint serves the 8
# MACs of its registration back to back, so any bound keeps those; 64 is
# where the misses of the storm workload's interleaved re-registrations
# stop falling (306 at 8, 279 at 64 and at 4 096), and costs ≈0.1 MB of
# native contexts.  A miss is one re-keying (3–6 µs).
_KEYS_KEPT = 64


@lru_cache(maxsize=_KEYS_KEPT)
def _hw_cmac(key: bytes):
    """Keyed native CMAC context for ``key``; callers ``copy()`` it and
    never update it."""
    return _HwCMAC(_HwAES(key))


def _left_shift_one(block: bytes) -> "tuple[bytes, bool]":
    value = int.from_bytes(block, "big") << 1
    return (value & ((1 << 128) - 1)).to_bytes(16, "big"), bool(value >> 128)


@lru_cache(maxsize=_KEYS_KEPT)
def _generate_subkeys(key: bytes) -> "tuple[bytes, bytes]":
    """RFC 4493 K1/K2, cached per key — NAS integrity reuses K_NAS_int for
    every message of a registration, so the subkeys are derived once
    (pure-python path only; libcrypto keeps them inside :func:`_hw_cmac`)."""
    l = aes128_cipher(key).encrypt_block(bytes(16))
    k1, carry = _left_shift_one(l)
    if carry:
        k1 = k1[:-1] + bytes([k1[-1] ^ _RB])
    k2, carry = _left_shift_one(k1)
    if carry:
        k2 = k2[:-1] + bytes([k2[-1] ^ _RB])
    return k1, k2


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """Full 16-byte AES-CMAC tag."""
    if len(key) != 16:
        raise ValueError(f"CMAC key must be 16 bytes, got {len(key)}")
    if HAVE_HW_AES:
        context = _hw_cmac(bytes(key)).copy()
        context.update(message)
        return context.finalize()
    return _aes_cmac_pure(key, message)


def _aes_cmac_pure(key: bytes, message: bytes) -> bytes:
    """RFC 4493 over the pure-python CBC chain (reference and fallback)."""
    k1, k2 = _generate_subkeys(bytes(key))
    n_blocks = max(1, (len(message) + _BLOCK - 1) // _BLOCK)
    complete_last = len(message) > 0 and len(message) % _BLOCK == 0

    # Whole-block XORs as 128-bit integer ops (no per-byte generator).
    if complete_last:
        last = int.from_bytes(message[-_BLOCK:], "big") ^ int.from_bytes(k1, "big")
    else:
        tail = message[(n_blocks - 1) * _BLOCK :]
        padded = tail + b"\x80" + bytes(_BLOCK - len(tail) - 1)
        last = int.from_bytes(padded, "big") ^ int.from_bytes(k2, "big")

    # The CMAC chain x_i = E(x_{i-1} ^ m_i) from x_0 = 0 is zero-IV
    # CBC over the (subkey-masked) padded message: one bulk pass instead
    # of a per-block encrypt loop.
    return aes128_cipher(bytes(key)).cbc_mac(
        message[: (n_blocks - 1) * _BLOCK] + last.to_bytes(16, "big")
    )


def nia2_mac(
    k_nas_int: bytes,
    count: int,
    bearer: int,
    direction: int,
    message: bytes,
) -> bytes:
    """128-NIA2: 4-byte NAS MAC (TS 33.501 D.3.1.3 input framing).

    ``k_nas_int`` is the 16-byte NAS integrity key; ``direction`` is 0 for
    uplink and 1 for downlink.
    """
    if direction not in (0, 1):
        raise ValueError(f"direction must be 0 or 1, got {direction}")
    if not 0 <= bearer < 32:
        raise ValueError(f"bearer must fit 5 bits, got {bearer}")
    header = (
        count.to_bytes(4, "big")
        + bytes([(bearer << 3) | (direction << 2)])
        + bytes(3)
    )
    return aes_cmac(k_nas_int, header + message)[:4]
