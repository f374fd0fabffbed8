"""Registration-scoped span trees over the simulated clock.

A :class:`Span` is an interval of *simulated* time with a name, a kind
from the paper's cost taxonomy, free-form tags and children.  The
:class:`Tracer` maintains the open-span stack; instrumentation points
(the gNB registration loop, the HTTP client/server, the Gramine OCALL
path) open spans — through the observation seam on
:class:`~repro.hw.host.PhysicalHost` — around the same two clock reads
that time the windows they already keep, so span boundaries are
**bit-identical** to the windows the experiment series record.

Span kinds (the taxonomy):

``registration``
    Root: one UE's full registration through the gNB.
``nas``
    One NAS uplink/downlink exchange (air + N2 + AMF handling).
``sbi.request``
    A client-observed SBI exchange — the paper's response time ``R``.
``sbi.server``
    The server's busy window around one request (L_T + reactor chatter).
``L_T``
    The request-received → response-sent window (the paper's total
    latency).  ``L_N = L_T - L_F`` is derived, never measured twice.
``L_F``
    The handler invocation (the paper's functional latency).
``sgx.ocall``
    One shielded syscall: EEXIT + host work + EENTER.  Tagged with the
    rounded cost components ``shield_ns`` / ``copy_ns`` / ``host_ns`` /
    ``transition_ns`` (``rpc_ns`` in exitless mode).  261 of the 294
    spans of an SGX registration (3 modules x 87); a fused replay files
    a whole run of them as one unread burst (:meth:`Tracer.ocall_burst`)
    that becomes ordinary spans the first time ``children`` is read.

Distributed-trace identity rides on top of the span tree: a tracer armed
with a ``trace_seed`` stamps every span with a deterministic
``trace_id`` / ``span_id`` / ``parent_id`` derived clocklessly from
``(seed, SUPI, attempt)`` — no wall clock, no ``random`` — so the same
run always mints the same ids.  The HTTP client materialises the W3C
``traceparent`` header from the open ``sbi.request`` span, and finished
trees land in a bounded :class:`TraceStore` under deterministic
tail-based sampling (every failed or deadline-violating trace is kept;
healthy ones are head-sampled 1/N by trace-id hash).

Tracing never advances the clock — a traced run spends exactly the same
simulated nanoseconds as an untraced one.  What a finished tree *means*
in the paper's terms (L_F / L_T / L_N / R, Table III) is decided in one
place, :func:`repro.obs.analytics.registration_breakdown_ns`.
"""

from __future__ import annotations

import re
from hashlib import blake2b
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.obs.slo import REGISTRATION_SOJOURN_DEADLINE_MS
from repro.sim.clock import NS_PER_US, SimClock


class SpanNestingError(RuntimeError):
    """A span was closed out of LIFO order.

    A real exception, not an ``assert``: under ``python -O`` a
    misnested close would otherwise corrupt every still-open span."""


class Span:
    """One interval of simulated time in a registration's span tree.

    A span begun by a :class:`Tracer` is its own context manager:
    leaving the ``with`` block ends it (LIFO-checked) on every path.
    """

    __slots__ = (
        "name", "kind", "start_ns", "end_ns", "tags", "_children", "_unread",
        "trace_id", "_span_id", "_parent_id", "tracer",
    )

    def __init__(self, name: str, kind: str, start_ns: int, **tags: Any) -> None:
        self.name = name
        self.kind = kind
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.tags: Dict[str, Any] = tags
        # Child spans in begin order.  While ``_unread`` is set the list
        # also holds :class:`_OcallBurst` placeholders, which the
        # ``children`` property expands in place on first read.
        self._children: List[Any] = []
        self._unread = False
        self.trace_id: Optional[str] = None
        # What ``span_id`` / ``parent_id`` are read from: the begin-order
        # sequence numbers a tracer left (hashed on access, see
        # :func:`_id_on_read`) or the strings ``span_from_dict`` found.
        self._span_id: Any = None
        self._parent_id: Any = None
        self.tracer: Optional["Tracer"] = None

    @property
    def span_id(self) -> Optional[str]:
        return _id_on_read(self.trace_id, self._span_id)

    @property
    def parent_id(self) -> Optional[str]:
        return _id_on_read(self.trace_id, self._parent_id)

    @property
    def children(self) -> List["Span"]:
        """Child spans in start order (builds any unread OCALL burst)."""
        if self._unread:
            self._unread = False
            expanded: List["Span"] = []
            for child in self._children:
                if child.__class__ is _OcallBurst:
                    child.expand_under(self, expanded)
                else:
                    expanded.append(child)
            self._children[:] = expanded
        return self._children

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.end(self)

    def tag(self, **tags: Any) -> None:
        self.tags.update(tags)

    @property
    def traceparent(self) -> Optional[str]:
        """W3C header naming this span as the parent, or None when the
        tracer mints no distributed identity."""
        if self.trace_id is None:
            return None
        return traceparent_of(self.trace_id, self.span_id)

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def us(self) -> float:
        return self.ns / NS_PER_US

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, in start order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str) -> List["Span"]:
        """All descendants (including self) of the given kind."""
        return [span for span in self.walk() if span.kind == kind]

    def walk_unread(self) -> Iterator[Any]:
        """:meth:`walk` for a fold that only sums what the leaves carry:
        an unread OCALL burst is yielded as itself (its ``templates`` and
        :meth:`_OcallBurst.transition_ns`), not built into spans."""
        yield self
        for child in self._children:
            if child.__class__ is _OcallBurst:
                yield child
            else:
                yield from child.walk_unread()

    def child_of_kind(self, kind: str) -> Optional["Span"]:
        # Only ``sgx.ocall`` leaves can be in an unread burst.
        for child in self.children if kind == "sgx.ocall" else self._children:
            if child.kind == kind:
                return child
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready tree form.

        Tags are emitted key-sorted so the serialized tree is byte-stable
        regardless of the tag order at the instrumentation site.  When the
        span carries trace identity (tracer armed with a ``trace_seed``)
        the ``trace_id`` / ``span_id`` / ``parent_id`` fields are included.
        Reads ``children``, so an unread OCALL burst is built into spans.
        """
        tags = self.tags
        payload: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "tags": {key: tags[key] for key in sorted(tags)},
            "children": [child.to_dict() for child in self.children],
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            payload["parent_id"] = self.parent_id
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, kind={self.kind!r}, us={self.us:.2f}, "
            f"children={len(self.children)})"
        )


class _OcallBurst:
    """A run of back-to-back ``sgx.ocall`` leaves nobody has read yet.

    A fused OCALL replay (``GramineEnclaveRuntime.syscall_profile``)
    produces ~87 closed leaves per module per registration whose every
    field follows from the compiled profile and one integer per call;
    most trees are dropped unread (the :class:`TraceStore` keeps 1 in
    N), so the leaves are only built when ``Span.children`` is read.

    ``templates[i]`` is ``(name, fixed_ns, tags)`` — the leaf's name, the
    deterministic part of its duration and its tags; ``ends[i]`` is its
    end as an offset from ``start_ns``, and what it adds beyond
    ``fixed_ns`` is the drawn ``transition_ns``.  ``ends=None`` (the
    exitless flavour) means there is no drawn part.  Leaf ``i`` takes
    sequence number ``first_seq + i`` of trace ``trace_id``.
    """

    __slots__ = ("templates", "start_ns", "ends", "trace_id", "first_seq")
    kind = "sgx.ocall"  # every leaf's

    def __init__(self, templates, start_ns, ends, trace_id, first_seq) -> None:
        self.templates = templates
        self.start_ns = start_ns
        self.ends = ends
        self.trace_id = trace_id
        self.first_seq = first_seq

    def transition_ns(self) -> int:
        """The leaves' drawn ``transition_ns``, summed without deriving
        them: the leaves tile ``[0, ends[-1]]``, so the sum telescopes
        to ``ends[-1]`` less the fixed parts (none drawn when exitless)."""
        if not self.ends:
            return 0
        return self.ends[-1] - sum(fixed_ns for _, fixed_ns, _ in self.templates)

    def expand_under(self, parent: Span, out: List[Span]) -> None:
        """Append the leaves as spans, each as ``Tracer.begin``/``end``
        would have recorded it, with a tags dict of its own."""
        base_ns = self.start_ns
        ends = self.ends
        trace_id = self.trace_id
        offset = 0
        for index, (name, fixed_ns, tags) in enumerate(self.templates):
            span = Span(name, "sgx.ocall", base_ns + offset)
            if ends is None:
                span.tags = dict(tags)
                offset += fixed_ns
            else:
                span.tags = dict(tags, transition_ns=ends[index] - offset - fixed_ns)
                offset = ends[index]
            span.end_ns = base_ns + offset
            span.tracer = parent.tracer
            if trace_id is not None:
                span.trace_id = trace_id
                span._span_id = self.first_seq + index
                span._parent_id = parent._span_id
            out.append(span)


class Tracer:
    """Builds span trees from begin/end calls against one clock.

    Protocol code never holds a tracer: it goes through the observation
    seam on :class:`~repro.hw.host.PhysicalHost`, which opens spans
    while a tracer is installed (docs/ARCHITECTURE.md).

    With ``trace_seed`` set, :meth:`start_trace` opens a deterministic
    trace context for one registration: every span begun until
    :meth:`end_trace` is stamped with the context's ``trace_id`` and a
    sequence-derived ``span_id`` (parent = the enclosing open span).  A
    ``store`` gives finished trees somewhere to go (see
    :class:`TraceStore`); :meth:`trace` runs that whole lifecycle.
    """

    def __init__(
        self,
        clock: SimClock,
        trace_seed: Optional[int] = None,
        store: Optional["TraceStore"] = None,
    ) -> None:
        self.clock = clock
        self.trace_seed = trace_seed
        self.store = store
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._trace_id: Optional[str] = None
        self._trace_supi: Optional[str] = None
        self._trace_attempt = 0
        self._span_seq = 0
        self._attempts: Dict[str, int] = {}

    # ------------------------------------------------------------- spans

    def begin(self, name: str, kind: str = "", **tags: Any) -> Span:
        """Open a span at the current simulated instant."""
        span = Span(name, kind, self.clock.now_ns)
        span.tags = tags  # a fresh dict built for this call: no copy
        span.tracer = self
        trace_id = self._trace_id
        if trace_id is not None:
            seq = self._span_seq
            self._span_seq = seq + 1
            span.trace_id = trace_id
            span._span_id = seq
            span._parent_id = self._stack[-1]._span_id if self._stack else None
        if self._stack:
            self._stack[-1]._children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def ocall_burst(
        self,
        templates: Sequence[Tuple[str, int, Dict[str, Any]]],
        ends: Optional[Sequence[int]] = None,
    ) -> None:
        """File ``len(templates)`` closed ``sgx.ocall`` leaves, starting
        at the current simulated instant, under the innermost open span.

        Equivalent to one :meth:`begin`/:meth:`end` pair per leaf (see
        :class:`_OcallBurst` for the arguments), span sequence included,
        but nothing is built until the parent's ``children`` are read.
        """
        parent = self._stack[-1]
        seq = self._span_seq
        if self._trace_id is not None:
            self._span_seq = seq + len(templates)
        parent._children.append(
            _OcallBurst(templates, self.clock.now_ns, ends, self._trace_id, seq)
        )
        parent._unread = True

    def annotate(self, **tags: Any) -> None:
        """Tag the innermost open span (no new span, no clock read).

        NF handlers that sit *between* instrumentation points (the AMF's
        NAS entry is a direct call, not an SBI hop) use this to leave
        their identity on the span that covers them.
        """
        if self._stack:
            self._stack[-1].tags.update(tags)

    # ----------------------------------------------------- trace context

    @property
    def current_trace_id(self) -> Optional[str]:
        return self._trace_id

    def start_trace(self, supi: str) -> Optional[str]:
        """Open a deterministic trace context for one registration.

        Returns the minted ``trace_id``, or ``None`` when the tracer has
        no ``trace_seed`` (identity off — plain span trees as before).
        The id is ``blake2b("trace:{seed}:{supi}:{attempt}")`` where
        ``attempt`` counts this SUPI's registrations under this tracer —
        clockless, random-free, reproducible.
        """
        if self.trace_seed is None:
            return None
        attempt = self._attempts.get(supi, 0) + 1
        self._attempts[supi] = attempt
        trace_id = trace_context_id(self.trace_seed, supi, attempt)
        self._trace_id = trace_id
        self._trace_supi = supi
        self._trace_attempt = attempt
        self._span_seq = 0
        return trace_id

    def end_trace(self) -> Tuple[Optional[str], Optional[str], int]:
        """Close the open trace context; returns (trace_id, supi, attempt)."""
        closed = (self._trace_id, self._trace_supi, self._trace_attempt)
        self._trace_id = None
        self._trace_supi = None
        self._span_seq = 0
        return closed

    def recycle(self, span: Span) -> None:
        """Drop a finished root: detach it from ``roots`` (if it is one)
        and leave the tree to the garbage collector."""
        try:
            self.roots.remove(span)
        except ValueError:
            pass

    def end(self, span: Span, **tags: Any) -> Span:
        """Close ``span`` at the current instant; spans close LIFO."""
        popped = self._stack.pop() if self._stack else None
        if popped is not span:
            raise SpanNestingError(
                f"span {span.name!r} closed out of order; innermost open "
                f"span is {popped!r}"
            )
        span.end_ns = self.clock.now_ns
        if tags:
            span.tags.update(tags)
        return span

    def trace(
        self,
        name: str,
        kind: str,
        supi: Optional[str] = None,
        closing_tags: Callable[[], Dict[str, Any]] = dict,
        **tags: Any,
    ) -> "RootTrace":
        """``with tracer.trace(...) as trace:`` — one root span's life.

        With ``supi`` the root is a registration: a trace context is
        minted first (when armed with a ``trace_seed``) so every span,
        root included, carries the same ``trace_id``, and the finished
        tree is filed by :meth:`RootTrace.record`.  Without ``supi``
        there is nowhere to file the tree — it only contains the spans
        opened beneath it and is dropped the moment it closes.
        ``closing_tags()`` is called as the root ends, on every path.
        """
        return RootTrace(self, name, kind, supi, closing_tags, tags)

    # --------------------------------------------------------- lifecycle

    @property
    def depth(self) -> int:
        return len(self._stack)


# Exemplar bucket bounds for registration sojourn, as OpenMetrics ``le``
# label strings paired with their numeric bound (ms).  One exemplar — the
# most recent (value, trace_id, observed_at_ns) — is retained per bucket,
# which is exactly the OpenMetrics exemplar model.
SOJOURN_EXEMPLAR_BUCKETS_MS: Tuple[Tuple[float, str], ...] = (
    (50.0, "50"), (100.0, "100"), (250.0, "250"), (500.0, "500"),
    (1000.0, "1000"), (2500.0, "2500"), (float("inf"), "+Inf"),
)


class RootTrace:
    """A root span from open to hand-off (see :meth:`Tracer.trace`)."""

    __slots__ = ("tracer", "span", "trace_id", "supi", "attempt", "closing_tags")

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        kind: str,
        supi: Optional[str],
        closing_tags: Callable[[], Dict[str, Any]],
        tags: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.supi = supi
        self.attempt = 0
        self.closing_tags = closing_tags
        self.trace_id = tracer.start_trace(supi) if supi is not None else None
        self.span = tracer.begin(name, kind, **tags)

    def __enter__(self) -> "RootTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self.tracer
        tracer.end(self.span, **self.closing_tags())
        if self.trace_id is not None:
            # Closed on exception paths too, so a stale trace_id can
            # never bleed onto unrelated spans.
            self.attempt = tracer.end_trace()[2]
        if self.supi is None:
            tracer.recycle(self.span)

    def record(
        self,
        success: bool,
        sojourn_ns: int,
        exemplars: Dict[str, Tuple[float, str, int]],
    ) -> None:
        """File a finished registration once its sojourn is known.

        Leaves the per-bucket exemplar (last trace to land in each
        bucket) in ``exemplars`` and offers the tree to the tracer's
        store.  Either way the tree leaves ``tracer.roots``: a kept one is
        the store's from here on, a declined one is dropped at once —
        campaign memory stays bounded by the store cap, not the horizon.
        Without trace identity the root just stays in ``tracer.roots``.
        """
        trace_id = self.trace_id
        if trace_id is None:
            return
        tracer = self.tracer
        value_ms = sojourn_ns / 1e6
        for bound, le in SOJOURN_EXEMPLAR_BUCKETS_MS:
            if value_ms <= bound:
                exemplars[le] = (value_ms, trace_id, tracer.clock.now_ns)
                break
        store = tracer.store
        if store is not None:
            tracer.roots.remove(self.span)
            store.offer(
                self.span, trace_id, supi=self.supi, attempt=self.attempt,
                success=success, sojourn_ns=sojourn_ns,
            )


# --------------------------------------------------------------------------
# Deterministic trace identity (W3C trace-context shaped)


def trace_context_id(seed: int, supi: str, attempt: int) -> str:
    """128-bit hex trace id from (seed, SUPI, attempt) — clockless."""
    return blake2b(
        f"trace:{seed}:{supi}:{attempt}".encode(), digest_size=16
    ).hexdigest()


def span_context_id(trace_id: str, seq: int) -> str:
    """64-bit hex span id from (trace_id, begin-order sequence)."""
    return blake2b(f"{trace_id}:{seq}".encode(), digest_size=8).hexdigest()


def _id_on_read(trace_id: Optional[str], held: Any) -> Optional[str]:
    """A span's id from what the span holds: a begin-order sequence
    number is hashed now — so an id nobody asks for (26 of a
    registration's 33 begun spans when only ``traceparent``s are minted,
    every leaf of a tree nobody dumps) costs no blake2b — and a string
    (or None) is the id already."""
    return span_context_id(trace_id, held) if held.__class__ is int else held


def traceparent_of(trace_id: str, span_id: str) -> str:
    """W3C ``traceparent`` header value (version 00, sampled flag set)."""
    return f"00-{trace_id}-{span_id}-01"


_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-01$")


def parse_traceparent(header: str) -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` from a ``traceparent`` value, or None."""
    match = _TRACEPARENT_RE.match(header)
    if match is None:
        return None
    return match.group(1), match.group(2)


# ``Span.__init__``'s named parameters: no tag may carry one of them.
_SPAN_ARGS = frozenset(("self", "name", "kind", "start_ns"))


def span_from_dict(data: Mapping[str, Any]) -> Span:
    """Rebuild a live :class:`Span` tree from its ``to_dict`` form.

    Stored traces are read out as plain dicts (``to_dict``, ``get``);
    this inverts the dump so dict trees can flow back into
    Span-consuming code — :func:`format_span_tree` rendering and the
    profiler's stack fold.  Round-trip is exact:
    ``span_from_dict(span.to_dict()).to_dict() == span.to_dict()``.
    A tree no tracer could have built — an interval that ends before it
    starts or leaves its parent's, or a tag that shadows a span field —
    is a ``ValueError``: read on, it would give negative self times.
    """
    tags = data["tags"]
    if not isinstance(tags, dict) or not _SPAN_ARGS.isdisjoint(tags):
        raise ValueError(f"span tags must be a dict without {sorted(_SPAN_ARGS)}")
    span = Span(data["name"], data["kind"], int(data["start_ns"]), **tags)
    span.end_ns = int(data["end_ns"])
    if span.end_ns < span.start_ns:
        raise ValueError(f"span {span.name!r} ends before it starts")
    span.trace_id = data.get("trace_id")
    span._span_id = data.get("span_id")
    span._parent_id = data.get("parent_id")
    span._children = [span_from_dict(child) for child in data["children"]]
    for child in span.children:
        if child.start_ns < span.start_ns or child.end_ns > span.end_ns:
            raise ValueError(
                f"span {child.name!r} lies outside its parent {span.name!r}"
            )
    return span



_DEADLINE_NS = int(REGISTRATION_SOJOURN_DEADLINE_MS * 1_000_000)


class TraceStore:
    """Bounded store of finished trace trees with deterministic sampling.

    Tail-based policy: every failed registration and every registration
    whose sojourn exceeded the registration deadline
    (:data:`~repro.obs.slo.REGISTRATION_SOJOURN_DEADLINE_MS`) is kept
    (``tail_failed`` / ``tail_deadline``); healthy registrations are
    head-sampled 1/N by a pure function of the trace id (``int(trace_id[:8], 16) % N == 0``) so
    the kept set is identical run-to-run and shard-count-independent.
    When the store overflows ``cap``, the oldest head-sampled record is
    evicted first (tail records are the valuable ones); with no
    head-sampled records left, the oldest record overall goes.

    The store owns a kept tree exactly as the tracer built it — begun
    spans, OCALL bursts unread, ids unhashed (≈27 kB for a 294-span SGX
    registration) — and nothing is derived from it until it is read:
    :meth:`get` serialises one record on the way out (≈220 kB of
    JSON-ready dicts per tree, the caller's to keep or drop), building
    the tree's bursts into spans as any reader of ``children`` does.
    ``records`` is the stored form: in-process readers take the live
    roots from it (as :func:`~repro.obs.analytics.slowest_traces_digest`
    does), and a reader that wants a dict goes through :meth:`get`.  An
    evicted tree is simply dropped.
    """

    __slots__ = (
        "cap", "sample_every", "records",
        "seen", "kept_tail", "kept_head", "evicted",
    )

    def __init__(
        self,
        cap: Optional[int] = 512,
        sample_every: int = 8,
    ) -> None:
        self.cap = cap
        self.sample_every = max(1, int(sample_every))
        self.records: Dict[str, Dict[str, Any]] = {}
        self.seen = 0
        self.kept_tail = 0
        self.kept_head = 0
        self.evicted = 0

    def keep_reason(
        self, trace_id: str, success: bool, sojourn_ns: int
    ) -> Optional[str]:
        if not success:
            return "tail_failed"
        if sojourn_ns > _DEADLINE_NS:
            return "tail_deadline"
        if int(trace_id[:8], 16) % self.sample_every == 0:
            return "head_sample"
        return None

    def offer(
        self,
        root: Span,
        trace_id: str,
        supi: str,
        attempt: int,
        success: bool,
        sojourn_ns: int,
    ) -> bool:
        """Consider one finished registration tree; True if kept.

        A kept tree now belongs to the store: the caller must not rewrite
        it.
        """
        self.seen += 1
        reason = self.keep_reason(trace_id, success, sojourn_ns)
        if reason is None:
            return False
        if reason == "head_sample":
            self.kept_head += 1
        else:
            self.kept_tail += 1
        self.records[trace_id] = {
            "trace_id": trace_id,
            "supi": supi,
            "attempt": attempt,
            "success": bool(success),
            "sojourn_ns": int(sojourn_ns),
            "reason": reason,
            "start_ns": root.start_ns,
            "end_ns": root.end_ns,
            "duration_ns": root.ns,
            "root": root,
        }
        if self.cap is not None:
            while len(self.records) > self.cap:
                self._evict_one()
        return True

    def _evict_one(self) -> None:
        victim = None
        for trace_id, record in self.records.items():
            if record["reason"] == "head_sample":
                victim = trace_id
                break
        if victim is None:
            victim = next(iter(self.records))
        del self.records[victim]
        self.evicted += 1

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """A kept record with its root in ``Span.to_dict`` form."""
        record = self.records.get(trace_id)
        return record and {**record, "root": record["root"].to_dict()}

    def trace_ids(self) -> List[str]:
        return list(self.records)

    def __len__(self) -> int:
        return len(self.records)


def format_span_tree(span: Span, indent: int = 0) -> List[str]:
    """Human-readable tree, collapsing OCALL bursts into summary lines."""
    pad = "  " * indent
    tag_bits = ""
    interesting = {
        k: v for k, v in span.tags.items()
        if k in ("server", "dst", "path", "ue", "status", "success")
    }
    if interesting:
        tag_bits = " " + " ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
    kind = f" [{span.kind}]" if span.kind else ""
    lines = [f"{pad}{span.name}{kind} {span.us:.1f} us{tag_bits}"]
    ocalls: Dict[str, int] = {}
    ocall_ns = 0
    for child in span.children:
        if child.kind == "sgx.ocall":
            ocalls[child.name] = ocalls.get(child.name, 0) + 1
            ocall_ns += child.ns
        else:
            lines.extend(format_span_tree(child, indent + 1))
    if ocalls:
        total = sum(ocalls.values())
        top = ", ".join(
            f"{name}x{count}"
            for name, count in sorted(ocalls.items(), key=lambda kv: -kv[1])[:4]
        )
        lines.append(
            f"{pad}  ({total} sgx.ocall spans, {ocall_ns / 1_000.0:.1f} us: {top})"
        )
    return lines
