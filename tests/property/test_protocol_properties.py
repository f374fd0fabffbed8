"""Property-based protocol invariants: SQN window, NAS MACs, flows."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.aka import generate_he_av
from repro.crypto.cmac import nia2_mac
from repro.crypto.suci import Supi
from repro.ran.usim import Usim

SNN = b"5G:mnc001.mcc001.3gppnetwork.org"
K = bytes(range(16))
OPC = bytes(range(16, 32))

key16 = st.binary(min_size=16, max_size=16)


@given(
    sqn_ms=st.integers(min_value=0, max_value=1 << 44),
    offset=st.integers(min_value=-(1 << 30), max_value=1 << 30),
)
@settings(max_examples=40, deadline=None)
def test_sqn_window_accepts_exactly_the_spec_range(sqn_ms, offset):
    """Accept iff sqn_ms < SQN <= sqn_ms + DELTA (TS 33.102 Annex C)."""
    sqn = sqn_ms + offset
    assume(0 < sqn < 1 << 48)
    usim = Usim(supi=Supi("001", "01", "0000000001"), k=K, opc=OPC, sqn_ms=sqn_ms)
    he_av = generate_he_av(
        k=K, opc=OPC, rand=bytes(16), sqn=sqn.to_bytes(6, "big"), snn=SNN
    )
    result = usim.authenticate(he_av.rand, he_av.autn, SNN)
    should_accept = sqn_ms < sqn <= sqn_ms + Usim.SQN_DELTA
    assert result.success == should_accept
    if not should_accept:
        assert result.cause == "SYNCH_FAILURE"
        assert result.auts is not None


@given(
    key=key16,
    count=st.integers(min_value=0, max_value=0xFFFF),
    message=st.binary(max_size=64),
)
@settings(max_examples=30, deadline=None)
def test_nas_mac_replay_and_reflection_resistance(key, count, message):
    """Same message at a different COUNT, or reflected in the other
    direction, never carries the same MAC."""
    mac = nia2_mac(key, count, 1, 0, message)
    assert nia2_mac(key, count + 1, 1, 0, message) != mac
    assert nia2_mac(key, count, 1, 1, message) != mac


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=8, deadline=None)
def test_registration_succeeds_for_any_seed(seed):
    """The end-to-end flow is seed-independent: randomness changes RAND,
    keys and jitter, never the outcome."""
    from repro.testbed import IsolationMode, Testbed, TestbedConfig

    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.CONTAINER, seed=seed))
    ue = testbed.add_subscriber()
    outcome = testbed.register(ue, establish_session=False)
    assert outcome.success
    assert ue.kamf is not None


@given(
    k=key16,
    opc=key16,
    sqn=st.integers(min_value=1, max_value=1 << 40),
)
@settings(max_examples=20, deadline=None)
def test_xres_star_unique_per_challenge(k, opc, sqn):
    """Two challenges with different RANDs never share XRES* (would allow
    cross-challenge replay)."""
    a = generate_he_av(k=k, opc=opc, rand=bytes(16), sqn=sqn.to_bytes(6, "big"), snn=SNN)
    b = generate_he_av(
        k=k, opc=opc, rand=bytes(15) + b"\x01", sqn=sqn.to_bytes(6, "big"), snn=SNN
    )
    assert a.xres_star != b.xres_star
    assert a.kausf != b.kausf
