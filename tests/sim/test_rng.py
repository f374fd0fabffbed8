"""Namespaced RNG service determinism, and who owns a stream.

``RngService.stream(name)`` keeps the stream for the life of the service
— right for a component that draws from it repeatedly.
``RngService.fresh_stream(name)`` hands the same seeded stream to the
caller and keeps nothing, so per-UE material costs no per-UE state in the
service: a subscriber's K/OPc are drawn from streams dropped on the spot,
a UE's ECIES ephemerals from a stream the UE object holds.  Every byte is
the one ``randbytes(name, n)`` on the kept stream gave before, with one
change of meaning: the stream's position now lives with its owner.  Two
``UserEquipment`` objects built with the same name no longer share one
ECIES stream (each starts it afresh), and provisioning the same msin
twice yields the same key twice instead of the stream's next 16 bytes.
"""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ran import ue as ue_module
from repro.sim.rng import RngService, draw_bytes
from repro.testbed import Testbed, TestbedConfig

seeds = st.integers(0, 2**63)
names = st.text(min_size=1, max_size=24)
sizes = st.integers(0, 64)


def test_same_seed_same_stream():
    a = RngService(42).stream("net").random()
    b = RngService(42).stream("net").random()
    assert a == b


def test_streams_are_independent_by_name():
    service = RngService(42)
    assert service.stream("a").random() != service.stream("b").random()


def test_stream_is_cached():
    service = RngService(0)
    assert service.stream("x") is service.stream("x")


def test_adding_a_stream_does_not_perturb_others():
    one = RngService(7)
    first_draw = one.stream("net").random()

    two = RngService(7)
    two.stream("other").random()  # extra stream created first
    assert two.stream("net").random() == first_draw


def test_randbytes_length_and_determinism():
    assert RngService(1).randbytes("k", 16) == RngService(1).randbytes("k", 16)
    assert len(RngService(1).randbytes("k", 16)) == 16


def test_jitter_is_positive_and_near_mean():
    service = RngService(3)
    samples = [service.jitter("lat", 100.0, 0.05) for _ in range(200)]
    assert all(s > 0 for s in samples)
    assert 95 < sum(samples) / len(samples) < 105


def test_jitter_clamps_pathological_draws():
    service = RngService(3)
    # Huge sigma: draws below 10% of mean must be clamped.
    samples = [service.jitter("wild", 100.0, 5.0) for _ in range(500)]
    assert min(samples) >= 10.0


# ------------------------------------------------------- stream ownership


@settings(max_examples=100, deadline=None)
@given(seeds, names, st.lists(sizes, min_size=1, max_size=6))
def test_fresh_stream_equals_the_kept_stream_draw_for_draw(seed, name, draws):
    owned = RngService(seed).fresh_stream(name)
    twin = RngService(seed)
    for n in draws:
        assert draw_bytes(owned, n) == twin.randbytes(name, n)
        assert len(draw_bytes(owned, n)) == n == len(twin.randbytes(name, n))
    assert owned.random() == twin.stream(name).random()


@settings(max_examples=100, deadline=None)
@given(seeds, names, names, sizes)
def test_fresh_stream_is_not_kept_and_moves_no_other_stream(seed, name, other, n):
    assume(name != other)
    service, twin = RngService(seed), RngService(seed)
    service.stream(other).random()
    twin.stream(other).random()
    kept = dict(service._streams)

    owned = service.fresh_stream(name)
    draw_bytes(owned, n)
    assert service._streams == kept
    # Not even the kept stream of the same name is moved by its draws.
    assert service.stream(other).random() == twin.stream(other).random()
    start = twin.randbytes(name, 8)
    assert service.randbytes(name, 8) == start
    # A second one starts over: the position belongs to the holder.
    assert draw_bytes(service.fresh_stream(name), 8) == start


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31), st.from_regex(r"[0-9]{10}", fullmatch=True))
def test_subscriber_key_is_a_pure_function_of_seed_and_msin(seed, msin):
    testbed = Testbed.build(TestbedConfig(isolation=None, seed=seed))
    streams = len(testbed.host.rng._streams)
    twin = RngService(seed)
    k, opc = twin.randbytes(f"sub.{msin}.k", 16), twin.randbytes(f"sub.{msin}.opc", 16)
    for _ in range(2):  # provisioned again: the same key, not the next 16 bytes
        usim = testbed.add_subscriber(msin).usim
        assert (usim._k, usim._opc) == (k, opc)
        subscription = testbed.udr.subscriber(str(usim.supi))
        assert (subscription.k, subscription.opc) == (k, opc)
    assert len(testbed.host.rng._streams) == streams


def test_ue_owns_its_ecies_stream_across_suci_guti_suci():
    testbed = Testbed.build(TestbedConfig(isolation=None, seed=31))
    ue, bystander = testbed.add_subscriber(), testbed.add_subscriber()
    ephemerals = []

    def conceal(supi, hn_public_key, eph):
        ephemerals.append(eph)
        return real_conceal(supi, hn_public_key, eph)

    real_conceal = ue_module.conceal_supi
    with mock.patch.object(ue_module, "conceal_supi", conceal):
        assert testbed.register(ue, establish_session=False).success
        assert testbed.register(bystander, establish_session=False).success
        streams = set(testbed.host.rng._streams)
        # The GUTI round conceals nothing and draws nothing ...
        assert testbed.gnb.register(ue, establish_session=False, initial=False).success
        assert len(ephemerals) == 2
        # ... and the next SUCI continues the UE's stream where it stopped.
        assert testbed.register(ue, establish_session=False).success

    twin = RngService(31)
    assert [ephemerals[0], ephemerals[2]] == [
        twin.randbytes(f"ue.{ue.name}.ecies", 32) for _ in range(2)
    ]
    assert ephemerals[1] == twin.randbytes(f"ue.{bystander.name}.ecies", 32)
    assert set(testbed.host.rng._streams) == streams
    assert not any(name.startswith(("ue.", "sub.")) for name in streams)
