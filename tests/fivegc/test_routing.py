"""Consistent-hash routing: determinism, balance, minimal re-homing."""

import pytest

from repro.fivegc.routing import HashRing, shard_labels, supi_ring


def _population(n=4000):
    return [f"imsi-00101{i:010d}" for i in range(n)]


def test_ring_pick_is_deterministic_per_seed():
    a = HashRing(["0", "1", "2"], seed=0)
    b = HashRing(["0", "1", "2"], seed=0)
    keys = _population(500)
    assert [a.pick(k) for k in keys] == [b.pick(k) for k in keys]


def test_ring_seed_changes_assignment():
    keys = _population(500)
    a = HashRing(["0", "1", "2"], seed=0)
    b = HashRing(["0", "1", "2"], seed=99)
    assert [a.pick(k) for k in keys] != [b.pick(k) for k in keys]


def test_ring_pick_independent_of_insertion_order():
    keys = _population(500)
    forward = HashRing(["0", "1", "2", "3"], seed=0)
    backward = HashRing(["3", "2", "1", "0"], seed=0)
    assert [forward.pick(k) for k in keys] == [backward.pick(k) for k in keys]


def test_ring_balance_within_reason():
    """64 vnodes keep the worst shard within ~2x of fair share."""
    ring = supi_ring(4)
    counts = {label: 0 for label in shard_labels(4)}
    for key in _population(4000):
        counts[ring.pick(key)] += 1
    assert all(counts.values()), counts
    assert max(counts.values()) < 2 * (4000 / 4), counts


def test_adding_a_node_moves_about_one_over_n_keys():
    """The consistent-hashing contract: scale-out re-homes ~1/(N+1)."""
    keys = _population(4000)
    before = supi_ring(4)
    grown = supi_ring(5)
    moved = sum(1 for k in keys if before.pick(k) != grown.pick(k))
    # Expected 1/5 = 20%; allow generous slack for vnode placement noise.
    assert 0.05 < moved / len(keys) < 0.40, moved
    # Every moved key must have moved TO the new node, never reshuffled
    # between survivors.
    for key in keys:
        if before.pick(key) != grown.pick(key):
            assert grown.pick(key) == "4"


def test_ring_edge_cases():
    with pytest.raises(ValueError):
        HashRing([], seed=0)
    ring = HashRing(["0"], seed=0)
    assert all(ring.pick(k) == "0" for k in _population(50))


def test_shard_labels_and_supi_ring():
    assert shard_labels(3) == ["0", "1", "2"]
    with pytest.raises(ValueError):
        shard_labels(0)
    assert {supi_ring(2).pick(k) for k in _population(50)} == {"0", "1"}
