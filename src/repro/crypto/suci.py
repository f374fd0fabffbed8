"""SUPI concealment — SUCI via ECIES Profile A (TS 33.501 Annex C).

The UE never sends its permanent identifier (SUPI) in the clear; it
conceals the MSIN part under the home network's public key, producing a
SUCI.  Profile A uses Curve25519 key agreement, the ANSI X9.63 KDF, AES-128
in counter mode and an HMAC-SHA-256 tag truncated to 8 bytes.

Two backends, byte-identical by definition (X25519 is deterministic).
With the optional ``cryptography`` wheel (``.[fast]``) scalar
multiplications run in libcrypto, one native call per job: an exchange is
``exchange`` on a cached key object, and a public key is read off the key
object ``from_private_bytes`` already filled in — a registration costs one
``from_private_bytes`` and two ``exchange``.  Without it (or under
``REPRO_PURE_X25519=1``) the function is implemented from RFC 7748
directly (Montgomery ladder over GF(2^255 − 19)); the two call sites whose
base point recurs — public-key derivation (base 9) and the UE's exchange
against the home-network public key — go through a fixed-base window table
over the birationally equivalent Edwards curve instead
(:func:`_x25519_comb`).  The ladder stays the pure path for variable
bases and the reference for everything else, libcrypto included.

The ECIES key of a SUCI is turned into a cipher once, not once per end:
see :func:`_ecies_cipher`.

A UE's SUCI is concealed when the core first reads it, not when the UE
builds its request (:class:`DeferredSuci`): the gNB reads it to size the
uplink, the AMF once it has admitted the registration.  A registration
the AMF sheds at its front door costs no scalar multiplication.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.crypto.aes import AES128

# Optional hardware/libcrypto X25519 backend.  Same opt-out knob as the AES
# fast path: REPRO_PURE_X25519=1 forces the RFC 7748 reference ladder.  The
# outputs are identical by definition (X25519 is deterministic), and the
# pure ladder remains both the fallback and the reference the property
# tests check the backend against.
try:  # pragma: no cover - exercised indirectly via x25519()
    if os.environ.get("REPRO_PURE_X25519"):
        raise ImportError("pure-python X25519 forced via REPRO_PURE_X25519")
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PrivateKey as _HwX25519PrivateKey,
    )
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PublicKey as _HwX25519PublicKey,
    )

    _HwX25519PrivateKey.from_private_bytes(bytes(32)).public_key().public_bytes_raw()
    HAVE_HW_X25519 = True
except Exception:  # ImportError, or an API surface too old to use
    _HwX25519PrivateKey = _HwX25519PublicKey = None
    HAVE_HW_X25519 = False

_P = 2**255 - 19
_A24 = 121665


@lru_cache(maxsize=8)
def _hw_private_key(scalar: bytes):
    """libcrypto key object for ``scalar``.  Only a testbed's home-network
    private key recurs (every deconcealment); an ephemeral key is used
    twice back-to-back — public key, then exchange — and never again, so
    the bound only has to keep the recurring keys ahead of that churn.
    Caching on secret bytes is fine here for the same reason as
    ``aes128_cipher``."""
    return _HwX25519PrivateKey.from_private_bytes(scalar)


@lru_cache(maxsize=8)
def _hw_public_key(u_coordinate: bytes):
    """As :func:`_hw_private_key`: the home-network public key recurs
    (every concealment), an ephemeral public key is exchanged against once."""
    return _HwX25519PublicKey.from_public_bytes(u_coordinate)


def _decode_u_coordinate(u: bytes) -> int:
    if len(u) != 32:
        raise ValueError(f"X25519 coordinate must be 32 bytes, got {len(u)}")
    masked = bytearray(u)
    masked[31] &= 0x7F
    return int.from_bytes(masked, "little")


def _decode_scalar(k: bytes) -> int:
    if len(k) != 32:
        raise ValueError(f"X25519 scalar must be 32 bytes, got {len(k)}")
    clamped = bytearray(k)
    clamped[0] &= 248
    clamped[31] &= 127
    clamped[31] |= 64
    return int.from_bytes(clamped, "little")


def x25519(scalar: bytes, u_coordinate: bytes) -> bytes:
    """RFC 7748 §5 X25519 scalar multiplication."""
    if HAVE_HW_X25519 and len(scalar) == 32 and len(u_coordinate) == 32:
        try:
            return _hw_private_key(scalar).exchange(
                _hw_public_key(u_coordinate)
            )
        except ValueError:
            # libcrypto rejects low-order points (all-zero shared secret)
            # where the RFC ladder returns the zeros; fall through so the
            # reference semantics hold on those edge inputs too.
            pass
    return _x25519_ladder(scalar, u_coordinate)


def _x25519_ladder(scalar: bytes, u_coordinate: bytes) -> bytes:
    """The pure-python Montgomery ladder (reference and fallback path)."""
    k = _decode_scalar(scalar)
    u = _decode_u_coordinate(u_coordinate)

    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t

        a = (x2 + z2) % _P
        aa = (a * a) % _P
        b = (x2 - z2) % _P
        bb = (b * b) % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = (d * a) % _P
        cb = (c * b) % _P
        x3 = pow(da + cb, 2, _P)
        z3 = (x1 * pow(da - cb, 2, _P)) % _P
        x2 = (aa * bb) % _P
        z2 = (e * (aa + _A24 * e)) % _P

    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    if z2 == 0:
        # Low-order input: 0 has no inverse, and RFC 7748 defines the
        # result as all zeros.
        return bytes(32)
    return (x2 * pow(z2, -1, _P) % _P).to_bytes(32, "little")


# --- fixed-base scalar multiplication ---------------------------------
#
# Curve25519 is birationally equivalent to the twisted Edwards curve
# -x^2 + y^2 = 1 + d x^2 y^2 via y = (u - 1)/(u + 1), u = (1 + y)/(1 - y).
# Its unified addition law is complete, so for a base that recurs the
# multiples j * 16^i * B can be tabulated once and k * B becomes one table
# addition per non-zero nibble of k, with no doublings.

_D = -121665 * pow(121666, -1, _P) % _P
_2D = 2 * _D % _P
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)

_EdPoint = Tuple[int, int, int, int]


def _edwards_point(u: int) -> Optional[Tuple[int, int]]:
    """Affine Edwards ``(x, y)`` whose Montgomery u-coordinate is ``u``
    (reduced mod p), or ``None`` when there is none: ``u = -1`` has no
    image, and a ``u`` on the quadratic twist has no ``x`` in the field."""
    if u == _P - 1:
        return None
    y = (u - 1) * pow(u + 1, -1, _P) % _P
    yy = y * y % _P
    # d is a non-square and -1 a square, so d*y^2 + 1 is never zero.
    xx = (yy - 1) * pow(_D * yy + 1, -1, _P) % _P
    x = pow(xx, (_P + 3) // 8, _P)
    if (x * x - xx) % _P:
        x = x * _SQRT_M1 % _P
        if (x * x - xx) % _P:
            return None
    return x, y


def _ed_cached(point: _EdPoint) -> _EdPoint:
    """``(Y+X, Y-X, 2Z, 2dT)`` — the operand form :func:`_ed_add` takes."""
    x, y, z, t = point
    return (y + x) % _P, (y - x) % _P, 2 * z % _P, _2D * t % _P


def _ed_add(point: _EdPoint, cached: _EdPoint) -> _EdPoint:
    """Extended-coordinate ``(X, Y, Z, T)`` sum of ``point`` and a point
    in :func:`_ed_cached` form (Hisil–Wong–Carter–Dawson, a = -1;
    complete, so it also doubles and absorbs low-order points)."""
    x1, y1, z1, t1 = point
    ypx, ymx, z2, t2d = cached
    a = (y1 - x1) * ymx % _P
    b = (y1 + x1) * ypx % _P
    c = t1 * t2d % _P
    d = z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return e * f % _P, g * h % _P, f * g % _P, e * h % _P


@lru_cache(maxsize=8)
def _comb_table(u_coordinate: bytes) -> Optional[Tuple[Tuple[_EdPoint, ...], ...]]:
    """Window table for base ``u_coordinate``: row ``i`` holds
    ``j * 16^i * B`` for ``j = 1..15`` in cached form (64 rows × 15
    points, ≈0.25 MB, ≈5 ms to build; a process sees two — base 9 and its
    testbed's home-network key).  ``None`` when the base has no Edwards
    image and the ladder must be used."""
    point = _edwards_point(_decode_u_coordinate(u_coordinate) % _P)
    if point is None:
        return None
    x, y = point
    base: _EdPoint = (x, y, 1, x * y % _P)
    rows = []
    for _ in range(64):
        step = _ed_cached(base)
        row = [step]
        for _ in range(14):
            base = _ed_add(base, step)
            row.append(_ed_cached(base))
        rows.append(tuple(row))
        base = _ed_add(base, step)  # 15 * 16^i * B + 16^i * B
    return tuple(rows)


def _x25519_comb(scalar: bytes, u_coordinate: bytes) -> bytes:
    """:func:`_x25519_ladder` for a recurring base, in at most 64 table
    additions; byte-identical output (pure-python path)."""
    table = _comb_table(bytes(u_coordinate))
    if table is None:
        return _x25519_ladder(scalar, u_coordinate)
    k = _decode_scalar(scalar)
    acc: _EdPoint = (0, 1, 1, 0)
    for row in table:
        digit = k & 15
        if digit:
            acc = _ed_add(acc, row[digit - 1])
        k >>= 4
    _, y, z, _ = acc
    if (z - y) % _P == 0:
        # k*B is the identity (low-order base): all zeros, as the ladder.
        return bytes(32)
    return ((z + y) * pow(z - y, -1, _P) % _P).to_bytes(32, "little")


def _x25519_fixed_base(scalar: bytes, u_coordinate: bytes) -> bytes:
    """:func:`x25519` for call sites whose base point recurs."""
    if HAVE_HW_X25519:
        return x25519(scalar, u_coordinate)
    return _x25519_comb(scalar, u_coordinate)


_BASE_POINT = (9).to_bytes(32, "little")


def x25519_public_key(private_key: bytes) -> bytes:
    """Derive the public u-coordinate for a 32-byte private scalar."""
    if HAVE_HW_X25519:
        # libcrypto computed it when it built the key object.
        return _hw_private_key(private_key).public_key().public_bytes_raw()
    return _x25519_fixed_base(private_key, _BASE_POINT)


def _x963_kdf(shared_secret: bytes, shared_info: bytes, length: int) -> bytes:
    """ANSI X9.63 KDF with SHA-256 (TS 33.501 C.3.2)."""
    output = b""
    counter = 1
    while len(output) < length:
        output += hashlib.sha256(
            shared_secret + counter.to_bytes(4, "big") + shared_info
        ).digest()
        counter += 1
    return output[:length]


@dataclass(frozen=True)
class Supi:
    """Subscription Permanent Identifier in IMSI form."""

    mcc: str
    mnc: str
    msin: str

    def __post_init__(self) -> None:
        if not (self.mcc.isdigit() and len(self.mcc) == 3):
            raise ValueError(f"MCC must be 3 digits: {self.mcc!r}")
        if not (self.mnc.isdigit() and len(self.mnc) in (2, 3)):
            raise ValueError(f"MNC must be 2 or 3 digits: {self.mnc!r}")
        if not (self.msin.isdigit() and 5 <= len(self.msin) <= 10):
            raise ValueError(f"MSIN must be 5-10 digits: {self.msin!r}")

    @property
    def imsi(self) -> str:
        return self.mcc + self.mnc + self.msin

    def __str__(self) -> str:
        return f"imsi-{self.imsi}"

    @classmethod
    def parse(cls, text: str) -> "Supi":
        """Parse ``imsi-<mcc><mnc><msin>`` assuming a 2-digit MNC."""
        if not text.startswith("imsi-"):
            raise ValueError(f"not an IMSI-format SUPI: {text!r}")
        digits = text[len("imsi-") :]
        return cls(mcc=digits[:3], mnc=digits[3:5], msin=digits[5:])


@dataclass(frozen=True)
class Suci:
    """Subscription Concealed Identifier.

    Carries the routing information in the clear (the home network must
    route the SUCI to the right UDM) and the MSIN concealed under the
    protection scheme's output.
    """

    mcc: str
    mnc: str
    protection_scheme: int  # 0 = null scheme, 1 = Profile A, 2 = Profile B
    home_network_key_id: int
    scheme_output: bytes

    SCHEME_NULL = 0
    SCHEME_PROFILE_A = 1

    def __str__(self) -> str:
        return (
            f"suci-0-{self.mcc}-{self.mnc}-0-{self.protection_scheme}-"
            f"{self.home_network_key_id}-{self.scheme_output.hex()}"
        )


@lru_cache(maxsize=8)
def _ecies_cipher(aes_key: bytes) -> AES128:
    """The cipher for one SUCI's ECIES key.  UE and UDM derive the same
    key back-to-back, so they share one object: one key set-up, and each
    end computes its own keystream block.  The key never recurs after
    that, so this is a memo of its own with a bound a hostile SUCI flood
    cannot grow — not the campaign-sized ``aes128_cipher`` cache."""
    return AES128(aes_key)


class EciesProfileA:
    """ECIES Profile A encrypt/decrypt primitives (TS 33.501 C.3.2).

    The KDF output is split AES key (16 B) ‖ initial counter block (16 B)
    ‖ MAC key (32 B); the tag is HMAC-SHA-256 truncated to 8 bytes.
    """

    KDF_LENGTH = 16 + 16 + 32
    TAG_LENGTH = 8

    @staticmethod
    def encrypt(plaintext: bytes, hn_public_key: bytes, eph_private_key: bytes) -> bytes:
        eph_public = x25519_public_key(eph_private_key)
        # Every UE of a campaign conceals under the same home-network key.
        shared = _x25519_fixed_base(eph_private_key, hn_public_key)
        keys = _x963_kdf(shared, eph_public, EciesProfileA.KDF_LENGTH)
        aes_key, icb, mac_key = keys[:16], keys[16:32], keys[32:]
        ciphertext = _ecies_cipher(aes_key).ctr(icb, plaintext)
        tag = hmac.new(mac_key, ciphertext, hashlib.sha256).digest()[
            : EciesProfileA.TAG_LENGTH
        ]
        return eph_public + ciphertext + tag

    @staticmethod
    def decrypt(scheme_output: bytes, hn_private_key: bytes) -> bytes:
        if len(scheme_output) < 32 + EciesProfileA.TAG_LENGTH:
            raise ValueError("scheme output too short for Profile A")
        eph_public = scheme_output[:32]
        ciphertext = scheme_output[32 : -EciesProfileA.TAG_LENGTH]
        tag = scheme_output[-EciesProfileA.TAG_LENGTH :]
        shared = x25519(hn_private_key, eph_public)
        keys = _x963_kdf(shared, eph_public, EciesProfileA.KDF_LENGTH)
        aes_key, icb, mac_key = keys[:16], keys[16:32], keys[32:]
        expected = hmac.new(mac_key, ciphertext, hashlib.sha256).digest()[
            : EciesProfileA.TAG_LENGTH
        ]
        if not hmac.compare_digest(tag, expected):
            raise ValueError("SUCI MAC verification failed")
        return _ecies_cipher(aes_key).ctr(icb, ciphertext)


def conceal_supi(
    supi: Supi,
    hn_public_key: bytes,
    eph_private_key: bytes,
) -> Suci:
    """Conceal a SUPI into a Profile A SUCI (UE side), under home-network
    key id 1."""
    scheme_output = EciesProfileA.encrypt(
        supi.msin.encode(), hn_public_key, eph_private_key
    )
    return Suci(
        mcc=supi.mcc,
        mnc=supi.mnc,
        protection_scheme=Suci.SCHEME_PROFILE_A,
        home_network_key_id=1,
        scheme_output=scheme_output,
    )


class DeferredSuci:
    """A Profile A SUCI that is concealed when it is first read (UE side).

    The ephemeral key is drawn when the UE builds its request, so the
    UE's ECIES stream advances whether or not the SUCI is ever read; the
    wire fields (``mcc``, ``mnc``, ``scheme``, ``keyId``, hex
    ``schemeOutput``) are :func:`conceal_supi`'s output, computed on the
    first read and at most once, after which the SUPI and the ephemeral
    key are dropped.  It reads as the wire SUCI object (a dict) does:
    ``get`` reads one field, ``copy`` returns them all as a plain dict.
    """

    __slots__ = ("_supi", "_hn_public_key", "_eph_private_key", "_fields")

    def __init__(self, supi: Supi, hn_public_key: bytes, eph_private_key: bytes) -> None:
        self._supi: Optional[Supi] = supi
        self._hn_public_key: Optional[bytes] = hn_public_key
        self._eph_private_key: Optional[bytes] = eph_private_key
        self._fields: Optional[Dict[str, object]] = None

    def _wire(self) -> Dict[str, object]:
        fields = self._fields
        if fields is None:
            suci = conceal_supi(self._supi, self._hn_public_key, self._eph_private_key)
            fields = self._fields = {
                "mcc": suci.mcc,
                "mnc": suci.mnc,
                "scheme": suci.protection_scheme,
                "keyId": suci.home_network_key_id,
                "schemeOutput": suci.scheme_output.hex(),
            }
            self._supi = self._hn_public_key = self._eph_private_key = None
        return fields

    def get(self, key: str, default: object = None) -> object:
        return self._wire().get(key, default)

    def copy(self) -> Dict[str, object]:
        return dict(self._wire())


def deconceal_suci(suci: Suci, hn_private_key: bytes) -> Supi:
    """Recover the SUPI from a SUCI (UDM/SIDF side)."""
    if suci.protection_scheme == Suci.SCHEME_NULL:
        msin = suci.scheme_output.decode()
    elif suci.protection_scheme == Suci.SCHEME_PROFILE_A:
        msin = EciesProfileA.decrypt(suci.scheme_output, hn_private_key).decode()
    else:
        raise ValueError(f"unsupported protection scheme {suci.protection_scheme}")
    return Supi(mcc=suci.mcc, mnc=suci.mnc, msin=msin)
