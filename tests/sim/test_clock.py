"""Simulated clock semantics."""

import dataclasses

import pytest

from repro.sim.clock import NS_PER_MS, SimClock, TimeSpan


def test_starts_at_zero():
    assert SimClock().now_ns == 0


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(10)
    clock.advance(5)
    assert clock.now_ns == 15


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        SimClock().advance(-1)


def test_unit_helpers():
    clock = SimClock()
    clock.advance_us(1)
    clock.advance_ms(1)
    clock.advance_s(1)
    assert clock.now_ns == 1_000 + 1_000_000 + 1_000_000_000


def test_span_unit_properties():
    span = TimeSpan(start_ns=0, end_ns=90 * NS_PER_MS)
    assert span.ns == 90 * NS_PER_MS
    assert span.seconds == 0.09
    assert span.minutes == pytest.approx(0.0015)


def test_two_reads_time_a_window_that_stays_closed():
    clock = SimClock()
    start = clock.now_ns
    clock.advance_us(7)
    span = TimeSpan(start, clock.now_ns)
    clock.advance_us(100)
    assert span.ns == 7_000  # a value: it does not grow with the clock
    with pytest.raises(dataclasses.FrozenInstanceError):
        span.end_ns = clock.now_ns
