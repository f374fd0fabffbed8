"""Transition cost band (the paper's 10k-18k cycles per pair)."""

from repro.sgx.costmodel import SGX_COSTS
from repro.sim.rng import RngService


def test_transition_pair_within_cited_band():
    model = SGX_COSTS
    rng = RngService(0)
    for _ in range(500):
        eenter, eexit = model.draw_transition_pair(rng, "t")
        total = eenter + eexit
        assert model.transition_pair_min_cycles * 0.99 <= total
        assert total <= model.transition_pair_max_cycles * 1.01


def test_entry_more_expensive_than_exit():
    model = SGX_COSTS
    rng = RngService(1)
    eenter, eexit = model.draw_transition_pair(rng, "t")
    assert eenter > eexit


def test_draws_are_deterministic_per_seed():
    model = SGX_COSTS
    a = model.draw_transition_pair(RngService(9), "t")
    b = model.draw_transition_pair(RngService(9), "t")
    assert a == b


def test_draws_vary_within_a_stream():
    model = SGX_COSTS
    rng = RngService(2)
    draws = {model.draw_transition_pair(rng, "t") for _ in range(20)}
    assert len(draws) > 1
