"""Simulated clock semantics."""

import contextlib

import pytest

from repro.sim.clock import (
    NS_PER_MS,
    NS_PER_US,
    MeasurementNestingError,
    SimClock,
    TimeSpan,
)


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


def test_measure_captures_span():
    clock = SimClock()
    with clock.measure() as span:
        clock.advance_us(7)
    assert span.us == 7.0


def test_nested_measurements():
    clock = SimClock()
    with clock.measure() as outer:
        clock.advance_us(1)
        with clock.measure() as inner:
            clock.advance_us(2)
        clock.advance_us(3)
    assert inner.us == 2.0
    assert outer.us == 6.0


def test_span_unit_properties():
    span = TimeSpan(start_ns=0, end_ns=90 * NS_PER_MS)
    assert span.ms == 90.0
    assert span.seconds == 0.09
    assert span.minutes == pytest.approx(0.0015)


def test_measure_span_closed_after_exit():
    clock = SimClock()
    with clock.measure() as span:
        pass
    clock.advance_us(100)
    assert span.ns == 0  # span does not keep growing after the block


def test_deeply_nested_measurements_close_lifo():
    # The close path pops the open-measurement stack (O(1)); deep nesting
    # must unwind it exactly, leaving nothing open.
    clock = SimClock()
    spans = []
    with clock.measure() as a:
        spans.append(a)
        with clock.measure() as b:
            spans.append(b)
            with clock.measure() as c:
                spans.append(c)
                clock.advance_us(1)
            clock.advance_us(1)
        clock.advance_us(1)
    assert [span.us for span in spans] == [3.0, 2.0, 1.0]
    assert clock._open_measurements == []


def test_measure_rejects_out_of_order_close():
    # Spans are with-blocks, so they can only close LIFO; closing an
    # outer span before its inner one raises a *real* exception — an
    # assert would vanish under ``python -O`` and silently corrupt every
    # still-open measurement.
    clock = SimClock()
    outer = clock.measure()
    inner = clock.measure()
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(MeasurementNestingError, match="LIFO"):
        outer.__exit__(None, None, None)
    # Unwind the abandoned inner span too.
    with contextlib.suppress(MeasurementNestingError, IndexError):
        inner.__exit__(None, None, None)


def test_measure_misnesting_is_a_runtime_error():
    # Callers that guard broadly with ``except RuntimeError`` must catch
    # the misnesting failure too (it is corruption, not an assert).
    assert issubclass(MeasurementNestingError, RuntimeError)


def test_measure_close_on_empty_stack_raises():
    # Closing a span whose stack entry is already gone (e.g. the stack
    # was clobbered by a prior misnesting) must raise, not IndexError.
    clock = SimClock()
    span_ctx = clock.measure()
    span_ctx.__enter__()
    clock._open_measurements.clear()
    with pytest.raises(MeasurementNestingError):
        span_ctx.__exit__(None, None, None)
