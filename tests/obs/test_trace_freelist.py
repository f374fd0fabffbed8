"""Span freelist: recycled spans are fully re-initialised on reuse.

The zero-alloc tracer keeps consumed :class:`Span` objects on a shared
module-level pool; ``Tracer.begin`` must overwrite every slot so a
recycled span can never leak the previous trace's name, kind,
timestamps, tags or children into a new one.
"""

from repro.obs import trace
from repro.obs.trace import Span, Tracer
from repro.sim.clock import SimClock


def _drain_pool():
    trace._SPAN_POOL.clear()


def test_recycle_returns_whole_tree_to_pool():
    _drain_pool()
    tracer = Tracer(SimClock())
    root = tracer.begin("registration", "registration")
    tracer.begin("nas", "nas")
    tracer.begin("ocall", "sgx.ocall")
    tracer.end(tracer._stack[-1])
    tracer.end(tracer._stack[-1])
    tracer.end(root)
    tracer.recycle(root)
    assert len(trace._SPAN_POOL) == 3
    assert tracer.roots == []


def test_recycled_span_never_leaks_prior_state():
    _drain_pool()
    clock = SimClock()
    tracer = Tracer(clock)

    first = tracer.begin("old-name", "old-kind", secret="hunter2", ue="ue-1")
    clock.advance(1_234)
    tracer.end(first, status=500)
    old_end = first.end_ns
    tracer.recycle(first)

    clock.advance(5_000)
    reused = tracer.begin("new-name", "new-kind", ue="ue-2")
    assert reused is first  # the pool actually served the recycled object
    assert reused.name == "new-name"
    assert reused.kind == "new-kind"
    assert reused.start_ns == clock.now_ns
    assert reused.end_ns == clock.now_ns
    assert reused.end_ns != old_end
    assert reused.tags == {"ue": "ue-2"}
    assert "secret" not in reused.tags
    assert "status" not in reused.tags
    assert reused.children == []
    tracer.end(reused)


def test_recycled_children_lists_are_emptied():
    _drain_pool()
    tracer = Tracer(SimClock())
    root = tracer.begin("root")
    child = tracer.begin("child")
    tracer.end(child)
    tracer.end(root)
    tracer.recycle(root)

    # Both spans sit in the pool with empty children; reusing one as a
    # fresh leaf must not resurrect the old parent/child edge.
    fresh_a = tracer.begin("a")
    fresh_b = tracer.begin("b")
    assert fresh_a.children == [fresh_b]
    assert fresh_b.children == []
    tracer.end(fresh_b)
    tracer.end(fresh_a)


def test_clear_recycle_true_pools_all_roots():
    _drain_pool()
    tracer = Tracer(SimClock())
    for i in range(4):
        span = tracer.begin(f"r{i}")
        tracer.end(span)
    tracer.clear(recycle=True)
    assert len(trace._SPAN_POOL) == 4
    assert tracer.roots == []

    # Plain clear() drops roots without pooling them.
    _drain_pool()
    span = tracer.begin("kept-alive")
    tracer.end(span)
    tracer.clear()
    assert trace._SPAN_POOL == []
    assert span.name == "kept-alive"


def test_pool_is_capacity_bounded():
    _drain_pool()
    tracer = Tracer(SimClock())
    original_cap, trace._SPAN_POOL_CAP = trace._SPAN_POOL_CAP, 2
    try:
        for i in range(5):
            span = tracer.begin(f"r{i}")
            tracer.end(span)
        tracer.clear(recycle=True)
        assert len(trace._SPAN_POOL) == 2
    finally:
        trace._SPAN_POOL_CAP = original_cap
        _drain_pool()


def test_pooled_begin_matches_constructed_span():
    _drain_pool()
    clock = SimClock()
    tracer = Tracer(clock)
    recycled = tracer.begin("x", "y", a=1)
    tracer.end(recycled)
    tracer.recycle(recycled)

    clock.advance(77)
    pooled = tracer.begin("same", "kind", tag="v")
    reference = Span("same", "kind", clock.now_ns, tag="v")
    assert pooled.name == reference.name
    assert pooled.kind == reference.kind
    assert pooled.start_ns == reference.start_ns
    assert pooled.end_ns == reference.end_ns
    assert pooled.tags == reference.tags
    assert pooled.children == reference.children
    tracer.end(pooled)


# ---------------------------------------------------------------- bursts
#
# A fused OCALL replay files its ``sgx.ocall`` leaves as one unread burst
# (``Tracer.ocall_burst``); they are built when ``children`` is first
# read and dropped unbuilt when the tree is recycled before that.


def _burst_templates(n):
    return [(f"sys{i}", 10, {"runtime": "rt", "shield_ns": 10}) for i in range(n)]


def _raw_spans(span):
    """Built spans of a tree, without reading (= expanding) anything."""
    yield span
    for child in span._children:
        if isinstance(child, Span):
            yield from _raw_spans(child)


def test_recycled_unread_bursts_never_resurface():
    _drain_pool()
    clock = SimClock()
    tracer = Tracer(clock, trace_seed=1)
    tracer.start_trace("imsi-1")
    root = tracer.begin("registration", "registration")
    window = tracer.begin("window", "L_T")
    tracer.ocall_burst(_burst_templates(5), [14, 27, 41, 55, 70])
    handler = tracer.begin("handler", "L_F")
    tracer.end(handler)
    tracer.ocall_burst(_burst_templates(3))
    tracer.end(window)
    tracer.ocall_burst(_burst_templates(2), [12, 25])
    tracer.end(root)
    tracer.end_trace()
    assert root._unread and window._unread
    tracer.recycle(root)

    # Only the three spans ever built went to the pool — no burst leaf was.
    assert len(trace._SPAN_POOL) == 3
    reused = [tracer.begin(f"fresh{i}") for i in range(3)]
    assert {id(span) for span in reused} == {id(root), id(window), id(handler)}
    for depth, span in enumerate(reused):
        assert not span._unread
        assert span.children == reused[depth + 1: depth + 2]
    for span in reversed(reused):
        tracer.end(span)


def test_burst_leaves_take_the_reserved_sequence_range():
    _drain_pool()
    clock = SimClock()
    clock.advance(1_000)
    tracer = Tracer(clock, trace_seed=1)
    trace_id = tracer.start_trace("imsi-1")
    root = tracer.begin("registration", "registration")
    tracer.ocall_burst(_burst_templates(3), [14, 27, 41])
    after = tracer.begin("after", "nas")
    tracer.end(after)
    tracer.end(root)
    assert after.span_id == trace.span_context_id(trace_id, 4)
    leaves = root.children[:3]
    assert [leaf.span_id for leaf in leaves] == [
        trace.span_context_id(trace_id, seq) for seq in (1, 2, 3)
    ]
    assert [(leaf.start_ns, leaf.end_ns) for leaf in leaves] == [
        (1_000, 1_014), (1_014, 1_027), (1_027, 1_041)
    ]
    assert [leaf.tags["transition_ns"] for leaf in leaves] == [4, 3, 4]
    assert all(leaf.parent_id == root.span_id for leaf in leaves)
    assert root.children[3] is after


def _traced_registrations(count):
    """``count`` fresh SGX registrations under an armed store-less tracer:
    the roots stay on the tracer, their OCALL bursts unread."""
    from repro.experiments.harness import warmed_testbed
    from repro.testbed import IsolationMode

    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    tracer = Tracer(testbed.host.clock, trace_seed=7)
    testbed.host.tracer = tracer
    for _ in range(count):
        outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
        assert outcome.success
    return testbed, tracer.roots


def test_every_consumer_reads_a_lazy_tree_like_its_dict_copy():
    from repro.obs.analytics import registration_breakdown
    from repro.obs.profile import fold_registration
    from repro.obs.trace import format_span_tree, span_from_dict

    def flat(span):
        return (
            span.name, span.kind, span.start_ns, span.end_ns, span.tags,
            span.trace_id, span.span_id, span.parent_id,
        )

    def fold(root):
        profile = fold_registration(root, **maps)
        return profile.stacks, profile.modules

    consumers = [
        lambda root: [flat(span) for span in root.walk()],
        lambda root: [flat(span) for span in root.find("sgx.ocall")],
        lambda root: [
            flat(window.child_of_kind("sgx.ocall") or window)
            for window in root.find("L_T")
        ],
        format_span_tree,
        lambda root: registration_breakdown(root, **maps),
        fold,
    ]
    testbed, lazy_roots = _traced_registrations(len(consumers))
    _, twin_roots = _traced_registrations(len(consumers))
    modules = testbed.paka.modules
    maps = {
        "module_servers": {name: m.server.name for name, m in modules.items()},
        "module_runtimes": {name: m.runtime.name for name, m in modules.items()},
    }
    for consume, lazy, twin in zip(consumers, lazy_roots, twin_roots):
        assert any(span._unread for span in _raw_spans(lazy))
        copy = span_from_dict(twin.to_dict())
        assert len(copy.find("sgx.ocall")) == 261
        assert consume(lazy) == consume(copy)
