"""A kept trace, read, against the tree built the literal way (hypothesis).

``TraceStore`` keeps a finished tree as the tracer built it — OCALL runs
filed as unread bursts (``Tracer.ocall_burst``), span ids unhashed — and
derives the JSON-ready form on every read, building the bursts into spans
in place on the first.  By definition a burst is the
per-leaf loop ``begin(name, "sgx.ocall", **tags)`` / advance /
``end(span, transition_ns=…)``, and a stored record's root is
``Span.to_dict`` of that tree.  For any tree shape, burst placement, tag
set and either burst flavour (drawn end offsets, or ``ends=None`` as an
exitless runtime files them), with trace identity or without:

* the store's dump equals the literal tree's eager serialisation
  (``tests/obs/test_trace_freelist._eager_dict``), whose ids are hashed
  from the pre-order index — begin order — rather than read off the
  spans;
* the kept tree holds its bursts unread until that first dump, and none
  after it; a second dump is the first, byte for byte;
* ``span_from_dict`` inverts the dump exactly;
* a live reader (``walk``) of the read tree sees the literal tree's
  spans.
"""

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    Span,
    TraceStore,
    Tracer,
    _OcallBurst,
    span_from_dict,
    trace_context_id,
)
from repro.sim.clock import SimClock
from tests.obs.test_trace_freelist import _eager_dict, store_dump

names = st.sampled_from(["read", "write", "epoll_wait", "futex", "sendmsg", "nas", "L_T"])
tag_values = st.one_of(st.integers(0, 10_000), st.booleans(), names)
tags = st.dictionaries(
    st.sampled_from(["runtime", "shield_ns", "copy_ns", "host_ns", "server", "zz", "a"]),
    tag_values,
    max_size=4,
)
# One leaf: (name, fixed_ns, tags, drawn transition_ns).
leaf = st.tuples(names, st.integers(0, 5_000), tags, st.integers(0, 900))
burst = st.tuples(st.just("burst"), st.booleans(), st.lists(leaf, min_size=1, max_size=6))
node = st.recursive(
    burst,
    lambda children: st.tuples(
        st.just("span"), names, tags, st.integers(0, 3_000),
        st.lists(children, max_size=4),
    ),
    max_leaves=12,
)
program = st.tuples(tags, st.lists(node, max_size=5))


def _run(tracer, clock, nodes, lazy):
    for item in nodes:
        if item[0] == "span":
            _, name, span_tags, pause_ns, children = item
            span = tracer.begin(name, "nas", **span_tags)
            clock.advance(pause_ns)
            _run(tracer, clock, children, lazy)
            tracer.end(span)
            continue
        _, exitless, leaves = item
        if lazy:
            templates = [(name, fixed_ns, dict(t)) for name, fixed_ns, t, _ in leaves]
            ends = None
            if not exitless:
                ends = list(itertools.accumulate(
                    fixed_ns + drawn_ns for _, fixed_ns, _, drawn_ns in leaves
                ))
            tracer.ocall_burst(templates, ends)
            clock.advance(ends[-1] if ends else sum(t[1] for t in templates))
            continue
        for name, fixed_ns, leaf_tags, drawn_ns in leaves:
            span = tracer.begin(name, "sgx.ocall", **leaf_tags)
            if exitless:
                clock.advance(fixed_ns)
                tracer.end(span)
            else:
                clock.advance(fixed_ns + drawn_ns)
                tracer.end(span, transition_ns=drawn_ns)


def _build(root_tags, nodes, trace_seed, lazy):
    clock = SimClock()
    clock.advance(1_000)
    tracer = Tracer(clock, trace_seed=trace_seed)
    with tracer.trace("registration", "registration", "imsi-001", **root_tags) as root:
        _run(tracer, clock, nodes, lazy)
    return tracer, root


def _flat(span):
    return (
        span.name, span.kind, span.start_ns, span.end_ns, span.tags,
        span.trace_id, span.span_id, span.parent_id,
    )


@settings(max_examples=60, deadline=None)
@given(program=program, trace_seed=st.one_of(st.none(), st.integers(0, 2**32)))
def test_a_kept_tree_reads_as_the_literal_tree(program, trace_seed):
    root_tags, nodes = program
    _, literal = _build(root_tags, nodes, trace_seed, lazy=False)
    expected = _eager_dict(literal.span)
    if trace_seed is not None:
        assert expected["trace_id"] == trace_context_id(trace_seed, "imsi-001", 1)

    tracer, kept = _build(root_tags, nodes, trace_seed, lazy=True)
    store = TraceStore(sample_every=1)
    trace_id = kept.trace_id or "0" * 32
    tracer.roots.remove(kept.span)
    assert store.offer(
        kept.span, trace_id, supi="imsi-001", attempt=1, success=True,
        sojourn_ns=kept.span.ns,
    )

    def bursts(span):
        for child in span._children:
            if child.__class__ is _OcallBurst:
                yield child
            else:
                yield from bursts(child)

    def filed(items):
        return sum(1 if item[0] == "burst" else filed(item[4]) for item in items)

    assert len(list(bursts(kept.span))) == filed(nodes)  # unread until dumped
    first = json.dumps(store_dump(store))
    assert not list(bursts(kept.span))  # the dump built them, in place
    assert json.dumps(store_dump(store)["records"][0]["root"]) == json.dumps(expected)
    assert json.dumps(store_dump(store)) == first
    record = store.get(trace_id)
    assert span_from_dict(record["root"]).to_dict() == record["root"] == expected
    walked = [_flat(span) for span in kept.span.walk()]
    assert walked == [_flat(span) for span in literal.span.walk()]
    assert all(span.__class__ is Span for span in kept.span.walk())
