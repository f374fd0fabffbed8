"""Property-based tests over the cryptographic core (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aka import generate_he_av
from repro.crypto.aes import aes128_cipher
from repro.crypto.cmac import aes_cmac
from repro.crypto.kdf import derive_hxres_star, derive_res_star, ts33220_kdf
from repro.crypto.milenage import Milenage
from repro.crypto.suci import (
    EciesProfileA,
    Supi,
    conceal_supi,
    deconceal_suci,
    x25519,
    x25519_public_key,
)
from repro.crypto.tls import TlsSession, establish_session
from repro.ran.usim import Usim, verify_auts

key16 = st.binary(min_size=16, max_size=16)
block16 = st.binary(min_size=16, max_size=16)
key32 = st.binary(min_size=32, max_size=32)
sqn6 = st.integers(min_value=1, max_value=(1 << 48) - 1)


@given(key=key16, block=block16)
@settings(max_examples=30, deadline=None)
def test_aes_decrypt_inverts_encrypt(key, block):
    assert aes128_cipher(key).decrypt_block(aes128_cipher(key).encrypt_block(block)) == block


@given(key=key16, nonce=block16, data=st.binary(max_size=200))
@settings(max_examples=30, deadline=None)
def test_ctr_is_an_involution(key, nonce, data):
    assert aes128_cipher(key).ctr(nonce, aes128_cipher(key).ctr(nonce, data)) == data


@given(key=key16, a=st.binary(max_size=100), b=st.binary(max_size=100))
@settings(max_examples=30, deadline=None)
def test_cmac_distinguishes_messages(key, a, b):
    if a != b:
        assert aes_cmac(key, a) != aes_cmac(key, b)


@given(key=key32, p0=st.binary(max_size=40), p1=st.binary(max_size=40))
@settings(max_examples=30, deadline=None)
def test_kdf_framing_is_unambiguous(key, p0, p1):
    """Splitting the same bytes differently must change the derivation
    (the Li length fields prevent parameter-boundary confusion)."""
    if p0 + p1 and p0 != p0 + p1:
        assert ts33220_kdf(key, 0x6A, [p0, p1]) != ts33220_kdf(key, 0x6A, [p0 + p1, b""])


@given(a=key32, b=key32)
@settings(max_examples=15, deadline=None)
def test_x25519_diffie_hellman_always_agrees(a, b):
    assert x25519(a, x25519_public_key(b)) == x25519(b, x25519_public_key(a))


@given(
    msin=st.text(alphabet="0123456789", min_size=5, max_size=10),
    hn_priv=key32,
    eph=key32,
)
@settings(max_examples=20, deadline=None)
def test_suci_roundtrip_any_subscriber(msin, hn_priv, eph):
    supi = Supi(mcc="001", mnc="01", msin=msin)
    suci = conceal_supi(supi, x25519_public_key(hn_priv), eph)
    assert deconceal_suci(suci, hn_priv) == supi
    assert msin.encode() not in suci.scheme_output


@given(plaintext=st.binary(min_size=1, max_size=64), hn_priv=key32, eph=key32,
       flip=st.integers(min_value=0, max_value=7))
@settings(max_examples=20, deadline=None)
def test_ecies_rejects_any_tag_tamper(plaintext, hn_priv, eph, flip):
    blob = bytearray(EciesProfileA.encrypt(plaintext, x25519_public_key(hn_priv), eph))
    blob[-1 - flip] ^= 0x01
    try:
        EciesProfileA.decrypt(bytes(blob), hn_priv)
        assert False, "tampered blob accepted"
    except ValueError:
        pass


@given(k=key16, opc=key16, rand=block16, sqn=sqn6)
@settings(max_examples=25, deadline=None)
def test_ue_and_network_always_agree(k, opc, rand, sqn):
    """The fundamental AKA property: for any credentials and challenge,
    the USIM accepts the network's AUTN and derives the same RES*/K_AUSF."""
    snn = b"5G:mnc001.mcc001.3gppnetwork.org"
    he_av = generate_he_av(k=k, opc=opc, rand=rand, sqn=sqn.to_bytes(6, "big"), snn=snn)
    usim = Usim(supi=Supi("001", "01", "0000000001"), k=k, opc=opc, sqn_ms=sqn - 1)
    result = usim.authenticate(he_av.rand, he_av.autn, snn)
    assert result.success
    assert result.res_star == he_av.xres_star
    assert result.kausf == he_av.kausf


@given(k=key16, opc=key16, rand=block16, sqn=sqn6,
       position=st.integers(min_value=0, max_value=15))
@settings(max_examples=25, deadline=None)
def test_any_autn_tamper_rejected(k, opc, rand, sqn, position):
    snn = b"5G:mnc001.mcc001.3gppnetwork.org"
    he_av = generate_he_av(k=k, opc=opc, rand=rand, sqn=sqn.to_bytes(6, "big"), snn=snn)
    tampered = bytearray(he_av.autn)
    tampered[position] ^= 0x01
    usim = Usim(supi=Supi("001", "01", "0000000001"), k=k, opc=opc, sqn_ms=sqn - 1)
    result = usim.authenticate(he_av.rand, bytes(tampered), snn)
    # A flip in SQN⊕AK or AMF desynchronises MAC; a flip in MAC fails
    # directly.  Success is never possible.
    assert not result.success


@given(k=key16, opc=key16, rand=block16, sqn_ms=st.integers(min_value=0, max_value=(1 << 48) - 1))
@settings(max_examples=25, deadline=None)
def test_auts_always_recovers_sqn_ms(k, opc, rand, sqn_ms):
    usim = Usim(supi=Supi("001", "01", "0000000001"), k=k, opc=opc, sqn_ms=sqn_ms)
    auts = usim._build_auts(rand)
    assert verify_auts(k, opc, rand, auts) == sqn_ms


@given(rand=block16, res=st.binary(min_size=8, max_size=8), ck=key16, ik=key16)
@settings(max_examples=25, deadline=None)
def test_hxres_star_links_res_star(rand, res, ck, ik):
    snn = b"5G:mnc001.mcc001.3gppnetwork.org"
    res_star = derive_res_star(ck, ik, snn, rand, res)
    hxres = derive_hxres_star(rand, res_star)
    assert derive_hxres_star(rand, res_star) == hxres
    assert len(hxres) == 16


@given(payloads=st.lists(st.binary(max_size=300), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_tls_stream_roundtrip(payloads):
    client, server = establish_session("c", "s", b"secret")
    for payload in payloads:
        assert server.unprotect(client.protect(payload)) == payload


@given(
    steps=st.lists(
        st.tuples(st.booleans(), st.binary(max_size=300), st.booleans()),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=25, deadline=None)
def test_tls_records_keep_their_length_across_interleaved_directions(steps):
    """A record is its payload plus the tag, whatever the bytes: frame
    sizes, and so simulated time, never depend on the host cipher.  Records
    queued in both directions and delivered in bursts still round-trip."""
    client, server = establish_session("c", "s", b"secret")
    pending = {True: [], False: []}  # by direction: True is client → server
    for upstream, payload, deliver in steps:
        sender = client if upstream else server
        record = sender.protect(payload)
        assert len(record) == len(payload) + TlsSession.TAG_LENGTH
        pending[upstream].append((record, payload))
        if deliver:
            receiver = server if upstream else client
            for queued, sent in pending[upstream]:
                assert receiver.unprotect(queued) == sent
            pending[upstream].clear()
    for upstream, queue in pending.items():
        receiver = server if upstream else client
        for queued, sent in queue:
            assert receiver.unprotect(queued) == sent
