"""X25519 (RFC 7748 vectors), ECIES Profile A and SUCI concealment."""

import pytest

from repro.crypto import suci
from repro.crypto.aes import AES128, aes128_cipher
from repro.crypto.suci import (
    EciesProfileA,
    Suci,
    Supi,
    conceal_supi,
    deconceal_suci,
    x25519,
    x25519_public_key,
)

RFC7748_VECTOR_1 = (
    "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
    "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
    "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
)
RFC7748_VECTOR_2 = (
    "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
    "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
    "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
)


@pytest.mark.parametrize("scalar,u,expected", [RFC7748_VECTOR_1, RFC7748_VECTOR_2])
def test_rfc7748_vectors(scalar, u, expected):
    out = x25519(bytes.fromhex(scalar), bytes.fromhex(u))
    assert out.hex() == expected


def test_diffie_hellman_agreement():
    alice = bytes(range(32))
    bob = bytes(range(32, 64))
    shared_a = x25519(alice, x25519_public_key(bob))
    shared_b = x25519(bob, x25519_public_key(alice))
    assert shared_a == shared_b


def test_x25519_rejects_bad_lengths():
    with pytest.raises(ValueError):
        x25519(b"short", bytes(32))
    with pytest.raises(ValueError):
        x25519(bytes(32), b"short")


class TestSupi:
    def test_string_form(self):
        supi = Supi(mcc="001", mnc="01", msin="0000000001")
        assert str(supi) == "imsi-001010000000001"

    def test_parse_roundtrip(self):
        supi = Supi(mcc="001", mnc="01", msin="0000000001")
        assert Supi.parse(str(supi)) == supi

    def test_parse_rejects_non_imsi(self):
        with pytest.raises(ValueError):
            Supi.parse("nai-user@example.org")

    @pytest.mark.parametrize(
        "mcc,mnc,msin",
        [("1", "01", "0000000001"), ("001", "1", "0000000001"), ("001", "01", "123")],
    )
    def test_field_validation(self, mcc, mnc, msin):
        with pytest.raises(ValueError):
            Supi(mcc=mcc, mnc=mnc, msin=msin)


class TestEciesProfileA:
    HN_PRIV = bytes(range(1, 33))

    @property
    def hn_pub(self):
        return x25519_public_key(self.HN_PRIV)

    def test_encrypt_decrypt_roundtrip(self):
        plaintext = b"0000000001"
        blob = EciesProfileA.encrypt(plaintext, self.hn_pub, bytes(range(64, 96)))
        assert EciesProfileA.decrypt(blob, self.HN_PRIV) == plaintext

    def test_ciphertext_hides_plaintext(self):
        plaintext = b"0000000001"
        blob = EciesProfileA.encrypt(plaintext, self.hn_pub, bytes(range(64, 96)))
        assert plaintext not in blob

    def test_fresh_ephemeral_keys_randomize_output(self):
        plaintext = b"0000000001"
        one = EciesProfileA.encrypt(plaintext, self.hn_pub, bytes(range(32)))
        two = EciesProfileA.encrypt(plaintext, self.hn_pub, bytes(range(32, 64)))
        assert one != two

    def test_tampered_ciphertext_rejected(self):
        blob = bytearray(
            EciesProfileA.encrypt(b"0000000001", self.hn_pub, bytes(range(32)))
        )
        blob[40] ^= 0x01  # flip one ciphertext bit
        with pytest.raises(ValueError):
            EciesProfileA.decrypt(bytes(blob), self.HN_PRIV)

    def test_tampered_tag_rejected(self):
        blob = bytearray(
            EciesProfileA.encrypt(b"0000000001", self.hn_pub, bytes(range(32)))
        )
        blob[-1] ^= 0x01
        with pytest.raises(ValueError):
            EciesProfileA.decrypt(bytes(blob), self.HN_PRIV)

    def test_wrong_private_key_rejected(self):
        blob = EciesProfileA.encrypt(b"0000000001", self.hn_pub, bytes(range(32)))
        with pytest.raises(ValueError):
            EciesProfileA.decrypt(blob, bytes(range(2, 34)))

    def test_short_blob_rejected(self):
        with pytest.raises(ValueError):
            EciesProfileA.decrypt(b"too-short", self.HN_PRIV)


class TestSharedEciesCipher:
    """UE and UDM derive the same ECIES key, so they share one cipher
    object (``_ecies_cipher``) and the keystream it remembers.  The share
    must not weaken the receive side: tag first, keystream after."""

    HN_PRIV = bytes(range(1, 33))
    HN_PUB = x25519_public_key(HN_PRIV)

    @pytest.fixture
    def stream_requests(self, monkeypatch):
        requests = []
        real = AES128._stream_int
        monkeypatch.setattr(
            AES128,
            "_stream_int",
            lambda self, nonce, n: requests.append((self, n)) or real(self, nonce, n),
        )
        return requests

    def test_udm_finds_the_ues_keystream_memoised(self, stream_requests):
        blob = EciesProfileA.encrypt(b"0000000001", self.HN_PUB, bytes(range(64, 96)))
        (cipher, _), = stream_requests
        memo = cipher._memo
        assert EciesProfileA.decrypt(blob, self.HN_PRIV) == b"0000000001"
        assert [c for c, _ in stream_requests] == [cipher, cipher]  # one object
        assert cipher._memo is memo  # a hit: nothing recomputed

    def test_flipped_tag_raises_before_any_keystream_is_requested(self, stream_requests):
        blob = bytearray(
            EciesProfileA.encrypt(b"0000000001", self.HN_PUB, bytes(range(64, 96)))
        )
        del stream_requests[:]  # the UE's own; its stream is now warm
        for position in (32, len(blob) - 1):  # ciphertext and tag
            forged = bytearray(blob)
            forged[position] ^= 0x01
            with pytest.raises(ValueError, match="MAC verification"):
                EciesProfileA.decrypt(bytes(forged), self.HN_PRIV)
        assert stream_requests == []

    def test_sucis_under_different_ephemeral_keys_never_share_a_stream(
        self, stream_requests
    ):
        one = EciesProfileA.encrypt(b"0000000001", self.HN_PUB, bytes(range(32)))
        two = EciesProfileA.encrypt(b"0000000002", self.HN_PUB, bytes(range(32, 64)))
        (first, _), (second, _) = stream_requests
        assert first is not second
        assert first._memo[2] != second._memo[2]
        # Deconcealed out of order, each still finds its own stream.
        assert EciesProfileA.decrypt(two, self.HN_PRIV) == b"0000000002"
        assert EciesProfileA.decrypt(one, self.HN_PRIV) == b"0000000001"

    def test_memo_stays_bounded_under_a_flood_of_valid_hostile_sucis(self, monkeypatch):
        # Anyone holding the home-network public key can mint SUCIs whose
        # tag verifies, each under a fresh ECIES key.  Plain DH mod p
        # stands in for X25519 so 10 000 of them are cheap on the pure
        # backend too; everything after the key agreement is the real code.
        p = 2**255 - 19

        def dh(scalar, u):
            exponent = int.from_bytes(scalar, "little")
            return pow(int.from_bytes(u, "little"), exponent, p).to_bytes(32, "little")

        monkeypatch.setattr(suci, "x25519", dh)
        monkeypatch.setattr(suci, "_x25519_fixed_base", dh)
        monkeypatch.setattr(suci, "x25519_public_key", lambda k: dh(k, suci._BASE_POINT))
        hn_public = suci.x25519_public_key(self.HN_PRIV)
        shared_before = aes128_cipher.cache_info().currsize
        suci._ecies_cipher.cache_clear()
        for i in range(1, 10_001):
            blob = EciesProfileA.encrypt(b"0000000001", hn_public, i.to_bytes(32, "little"))
            assert EciesProfileA.decrypt(blob, self.HN_PRIV) == b"0000000001"
        info = suci._ecies_cipher.cache_info()
        assert info.misses == 10_000 and info.hits == 10_000
        assert info.currsize == info.maxsize <= 16
        assert aes128_cipher.cache_info().currsize == shared_before


class TestSuciConcealment:
    HN_PRIV = bytes(range(7, 39))
    SUPI = Supi(mcc="001", mnc="01", msin="0000000001")

    def test_roundtrip(self):
        suci = conceal_supi(self.SUPI, x25519_public_key(self.HN_PRIV), bytes(range(32)))
        assert deconceal_suci(suci, self.HN_PRIV) == self.SUPI

    def test_routing_info_in_clear_but_msin_hidden(self):
        suci = conceal_supi(self.SUPI, x25519_public_key(self.HN_PRIV), bytes(range(32)))
        assert suci.mcc == "001" and suci.mnc == "01"
        assert self.SUPI.msin.encode() not in suci.scheme_output

    def test_null_scheme_deconcealment(self):
        suci = Suci(
            mcc="001", mnc="01", protection_scheme=Suci.SCHEME_NULL,
            home_network_key_id=0, scheme_output=b"0000000001",
        )
        assert deconceal_suci(suci, self.HN_PRIV) == self.SUPI

    def test_unknown_scheme_rejected(self):
        suci = Suci(
            mcc="001", mnc="01", protection_scheme=9,
            home_network_key_id=0, scheme_output=b"x",
        )
        with pytest.raises(ValueError):
            deconceal_suci(suci, self.HN_PRIV)

    def test_string_form(self):
        suci = conceal_supi(self.SUPI, x25519_public_key(self.HN_PRIV), bytes(range(32)))
        text = str(suci)
        assert text.startswith("suci-0-001-01-0-1-")


class TestX25519BackendEquivalence:
    """The optional libcrypto backend must be indistinguishable from the
    RFC 7748 reference ladder — including the low-order-point inputs the
    library rejects but the ladder evaluates to zeros."""

    def test_backend_matches_ladder_on_random_inputs(self):
        import random

        from repro.crypto.suci import _x25519_ladder

        rnd = random.Random(0xC0DE)
        for _ in range(12):
            scalar = bytes(rnd.getrandbits(8) for _ in range(32))
            point = bytes(rnd.getrandbits(8) for _ in range(32))
            assert x25519(scalar, point) == _x25519_ladder(scalar, point)

    def test_backend_matches_ladder_on_low_order_point(self):
        from repro.crypto.suci import _x25519_ladder

        scalar = bytes(range(32))
        zero_point = bytes(32)  # order-1 point: all-zero shared secret
        assert x25519(scalar, zero_point) == bytes(32)
        assert _x25519_ladder(scalar, zero_point) == bytes(32)

    def test_opt_out_selects_the_pure_path(self, monkeypatch):
        import os

        from repro.crypto import suci

        if os.environ.get("REPRO_PURE_X25519"):
            assert not suci.HAVE_HW_X25519
        # Without libcrypto the fixed-base entry point is the window table.
        monkeypatch.setattr(suci, "HAVE_HW_X25519", False)
        calls = []
        monkeypatch.setattr(
            suci, "_x25519_comb", lambda k, u: calls.append(u) or bytes(32)
        )
        x25519_public_key(bytes(32))
        assert calls == [suci._BASE_POINT]

    def test_public_key_derivation_agrees_with_ladder(self):
        from repro.crypto.suci import _BASE_POINT, _x25519_ladder

        private = bytes(reversed(range(32)))
        assert x25519_public_key(private) == _x25519_ladder(private, _BASE_POINT)
