"""Tracer and span-tree mechanics (simulated-clock boundaries, LIFO)."""

import pytest

from repro.obs.trace import Span, SpanNestingError, Tracer, format_span_tree
from repro.sim.clock import SimClock


def test_span_boundaries_read_the_simulated_clock():
    clock = SimClock()
    tracer = Tracer(clock)
    span = tracer.begin("work", kind="L_F")
    clock.advance_us(125.0)
    tracer.end(span)
    assert span.ns == 125_000
    assert span.us == 125.0


def test_children_attach_to_the_innermost_open_span():
    clock = SimClock()
    tracer = Tracer(clock)
    root = tracer.begin("registration", kind="registration")
    child = tracer.begin("request", kind="sbi.request")
    grandchild = tracer.begin("serve", kind="sbi.server")
    tracer.end(grandchild)
    tracer.end(child)
    tracer.end(root)
    assert tracer.roots == [root]
    assert root.children == [child]
    assert child.children == [grandchild]
    assert [s.name for s in root.walk()] == ["registration", "request", "serve"]


def test_out_of_order_close_raises():
    tracer = Tracer(SimClock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(SpanNestingError):
        tracer.end(outer)


def test_end_on_empty_stack_raises():
    tracer = Tracer(SimClock())
    span = tracer.begin("only")
    tracer.end(span)
    with pytest.raises(SpanNestingError):
        tracer.end(span)


def test_span_context_manager_closes_on_error():
    clock = SimClock()
    tracer = Tracer(clock)
    with pytest.raises(RuntimeError):
        with tracer.begin("failing", kind="L_F"):
            clock.advance_us(10.0)
            raise RuntimeError("handler blew up")
    assert tracer.depth == 0
    assert tracer.roots[0].us == 10.0


def test_find_and_child_of_kind():
    tracer = Tracer(SimClock())
    root = tracer.begin("root", kind="registration")
    lt = tracer.begin("window", kind="L_T")
    lf = tracer.begin("handler", kind="L_F")
    tracer.end(lf)
    tracer.end(lt)
    tracer.end(root)
    assert root.find("L_F") == [lf]
    assert lt.child_of_kind("L_F") is lf
    assert lt.child_of_kind("sgx.ocall") is None


def test_to_dict_round_trips_the_tree_shape():
    clock = SimClock()
    tracer = Tracer(clock)
    root = tracer.begin("root", kind="registration", ue="ue-1")
    clock.advance_us(5.0)
    tracer.end(root, success=True)
    payload = root.to_dict()
    assert payload["kind"] == "registration"
    assert payload["tags"] == {"ue": "ue-1", "success": True}
    assert payload["end_ns"] - payload["start_ns"] == 5_000


def test_format_span_tree_collapses_ocall_bursts():
    clock = SimClock()
    tracer = Tracer(clock)
    root = tracer.begin("serve", kind="sbi.server", server="eudm-paka-srv-0")
    for _ in range(5):
        span = tracer.begin("read", kind="sgx.ocall")
        clock.advance_us(1.0)
        tracer.end(span)
    tracer.end(root)
    lines = format_span_tree(root)
    assert len(lines) == 2  # root + one collapsed summary line
    assert "5 sgx.ocall spans" in lines[1]
    assert "readx5" in lines[1]


def test_span_repr_is_compact():
    span = Span("x", "L_F", 0)
    assert "L_F" in repr(span)
