"""AES-CMAC against the RFC 4493 vectors, and the 128-NIA2 framing."""

import pytest

from repro.crypto.cmac import _aes_cmac_pure, aes_cmac, nia2_mac

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
)

RFC4493_CASES = [
    (b"", "bb1d6929e95937287fa37d129b756746"),
    (MSG[:16], "070a16b46b4d4144f79bdd9dd04a287c"),
    (MSG[:40], "dfa66747de9ae63030ca32611497c827"),
    (MSG, "51f0bebf7e3b9d92fc49741779363cfe"),
]


@pytest.mark.parametrize("message,expected", RFC4493_CASES)
def test_rfc4493_vectors(message, expected):
    assert aes_cmac(KEY, message).hex() == expected


def test_every_length_matches_the_pure_reference():
    # Empty, partial last block, exact multiples: the padding and K1/K2
    # choice are OpenSSL's on libcrypto and RFC 4493 spelled out here (the
    # RFC's own four lengths are among them).  One key throughout: every
    # tag comes from a copy, the kept context never absorbs a message.
    stream = (MSG + MSG)[:80]
    for length in range(81):
        assert aes_cmac(KEY, stream[:length]) == _aes_cmac_pure(KEY, stream[:length])


def test_bytes_like_key_and_message():
    tag = aes_cmac(bytearray(KEY), bytearray(MSG[:40]))
    assert tag == aes_cmac(KEY, MSG[:40]) and isinstance(tag, bytes)


def test_cmac_rejects_bad_key():
    for key in (b"", b"short", bytes(15), bytes(17), bytes(32)):
        with pytest.raises(ValueError):
            aes_cmac(key, b"msg")


def test_nia2_mac_is_4_bytes():
    assert len(nia2_mac(KEY, count=0, bearer=1, direction=0, message=b"nas")) == 4


def test_nia2_direction_separates_uplink_downlink():
    up = nia2_mac(KEY, 0, 1, 0, b"nas")
    down = nia2_mac(KEY, 0, 1, 1, b"nas")
    assert up != down


def test_nia2_count_prevents_replay():
    first = nia2_mac(KEY, 0, 1, 0, b"nas")
    second = nia2_mac(KEY, 1, 1, 0, b"nas")
    assert first != second


def test_nia2_bearer_in_mac():
    assert nia2_mac(KEY, 0, 1, 0, b"nas") != nia2_mac(KEY, 0, 2, 0, b"nas")


def test_nia2_rejects_bad_direction():
    with pytest.raises(ValueError):
        nia2_mac(KEY, 0, 1, 2, b"nas")


def test_nia2_rejects_wide_bearer():
    with pytest.raises(ValueError):
        nia2_mac(KEY, 0, 32, 0, b"nas")
