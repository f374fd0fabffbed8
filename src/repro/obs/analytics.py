"""Trace analytics: the one fold of a registration tree, and the
tail-based digests built on it.

Everything here reads live :class:`~repro.obs.trace.Span` trees where
they stand — the tracer's roots and the trees a
:class:`~repro.obs.trace.TraceStore` keeps — and serialises nothing; a
dict tree (a dump, a re-loaded artifact) is read through
:func:`~repro.obs.trace.span_from_dict`.  Four extractions:

* :func:`registration_breakdown_ns` — the per-module decomposition of
  one registration (Fig 9 / Table II L_F, L_T, L_N; Fig 10 R; Table III
  EENTER/EEXIT and the shield / copy / host / transition split) in exact
  integer nanoseconds.  The only walk that knows which span kinds and
  tags become which figure; span boundaries are integer clock reads, so
  every figure is exact.
* :func:`registration_breakdown` — the same table in float microseconds,
  a view over the fold: ``x_us = x_ns / 1000.0``, counts copied.
* :func:`critical_path` — the root→leaf chain that dominates a trace's
  duration (largest child by span length at every level; ties break on
  earliest start, then tree order).
* :func:`slowest_traces_digest` — a deterministic, JSON-stable digest
  of a store's slowest traces with their critical paths, the artifact
  EXPERIMENTS.md E-TRACE2 commits and CI byte-compares across
  ``--jobs``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.obs.trace import Span, TraceStore

DIGEST_SCHEMA = 1


def registration_breakdown_ns(
    root: Span,
    module_servers: Mapping[str, str],
    module_runtimes: Mapping[str, str],
) -> Dict[str, Dict[str, int]]:
    """Decompose one registration tree into the paper's tables, integer ns.

    ``module_servers`` maps module short names (``eudm`` …) to their HTTP
    server names; ``module_runtimes`` maps them to enclave runtime names
    (the ``runtime`` tag on ``sgx.ocall`` spans).  Returns, per module::

        {"lf_ns": ..., "lt_ns": ..., "ln_ns": ...,      # Fig 9 / Table II
         "r_ns": ...,                                    # Fig 10
         "requests": ...,
         "eenters": ..., "eexits": ..., "ocalls": ...,   # Table III
         "shield_ns": ..., "copy_ns": ..., "host_ns": ...,
         "transition_ns": ...}                           # L_N taxonomy

    L_F and L_T are the handler and receive-to-send window spans — the
    exact values the servers' metric series record; ``L_N`` is their
    difference, which is how the paper defines it.  R comes from the
    client spans, the SGX costs from the OCALL tags.  No float in sight,
    so digests can be byte-compared.
    """
    server_to_module = {server: module for module, server in module_servers.items()}
    runtime_to_module = {runtime: module for module, runtime in module_runtimes.items()}
    breakdown: Dict[str, Dict[str, int]] = {
        module: {
            "lf_ns": 0, "lt_ns": 0, "ln_ns": 0, "r_ns": 0,
            "requests": 0, "eenters": 0, "eexits": 0, "ocalls": 0,
            "shield_ns": 0, "copy_ns": 0, "host_ns": 0,
            "transition_ns": 0,
        }
        for module in module_servers
    }

    def add_ocall(tags: Mapping[str, Any], transition_ns: int) -> None:
        module = runtime_to_module.get(str(tags.get("runtime")))
        if module is None:
            return
        row = breakdown[module]
        row["ocalls"] += 1
        if not tags.get("exitless"):
            # One OCALL is exactly one EEXIT + one EENTER.
            row["eenters"] += 1
            row["eexits"] += 1
            row["transition_ns"] += transition_ns
        row["shield_ns"] += int(tags.get("shield_ns", 0))
        row["copy_ns"] += int(tags.get("copy_ns", 0))
        row["host_ns"] += int(tags.get("host_ns", 0))

    # The tree is read where it stands: no dict, no span id, and an
    # unread OCALL burst stays unread.  Its leaves are its templates (one
    # runtime's compiled profile), and their summed transitions go to
    # the first.
    for node in root.walk_unread():
        kind = node.kind
        if node.__class__ is not Span:
            transition_ns = node.transition_ns()
            for _, _, tags in node.templates:
                add_ocall(tags, transition_ns)
                transition_ns = 0
        elif kind == "sbi.server":
            module = server_to_module.get(str(node.tags.get("server")))
            lt_span = node.child_of_kind("L_T")
            if module is not None and lt_span is not None:
                lf_span = lt_span.child_of_kind("L_F")
                row = breakdown[module]
                row["requests"] += 1
                row["lt_ns"] += lt_span.ns
                row["lf_ns"] += 0 if lf_span is None else lf_span.ns
                row["ln_ns"] = row["lt_ns"] - row["lf_ns"]
        elif kind == "sbi.request":
            module = server_to_module.get(str(node.tags.get("dst")))
            if module is not None:
                breakdown[module]["r_ns"] += node.ns
        elif kind == "sgx.ocall":
            add_ocall(node.tags, int(node.tags.get("transition_ns", 0)))
    return breakdown


def us_view(row_ns: Mapping[str, int]) -> Dict[str, float]:
    """One fold row in microseconds: every ``x_ns`` becomes ``x_us =
    x_ns / 1000.0``; counts are copied; key order is kept."""
    row_us: Dict[str, float] = {}
    for key, value in row_ns.items():
        if key.endswith("_ns"):
            row_us[key[:-3] + "_us"] = value / 1000.0
        else:
            row_us[key] = value
    return row_us


def registration_breakdown(
    root: Span,
    module_servers: Mapping[str, str],
    module_runtimes: Mapping[str, str],
) -> Dict[str, Dict[str, float]]:
    """:func:`registration_breakdown_ns` in float microseconds (``lf_us``
    … ``transition_us``) — what ``repro trace`` prints and the campaign
    reports record."""
    rows = registration_breakdown_ns(root, module_servers, module_runtimes)
    return {module: us_view(row) for module, row in rows.items()}


def critical_path(root: Span) -> List[Dict[str, Any]]:
    """Root→leaf frames of the trace's dominant chain.

    At every level the longest child is taken (ties: earliest
    ``start_ns``, then tree order).  Each frame carries the span's name,
    kind, total ns and ``self_ns`` — the part of the span not covered by
    any child, i.e. the frame's own contribution to the path.  Only the
    spans on the path have their children read (an OCALL burst there is
    built, which changes no dump of the tree).
    """
    frames: List[Dict[str, Any]] = []
    node: Optional[Span] = root
    while node is not None:
        children = node.children
        frames.append({
            "name": node.name,
            "kind": node.kind,
            "ns": node.ns,
            "self_ns": node.ns - sum(child.ns for child in children),
        })
        best = None
        for child in children:
            if best is None or child.ns > best.ns or (
                child.ns == best.ns and child.start_ns < best.start_ns
            ):
                best = child
        node = best
    return frames


def slowest_traces_digest(
    store: TraceStore,
    module_servers: Mapping[str, str],
    module_runtimes: Mapping[str, str],
    top: int = 10,
) -> Dict[str, Any]:
    """Deterministic digest of the slowest traces ``store`` keeps, each
    with its critical path and its :func:`registration_breakdown_ns`.

    Records rank by duration descending with trace-id ascending as the
    tiebreak, so the digest is a pure function of the record *set*; only
    the top ``top`` roots are read, where they stand.  Every value is an
    int or str; JSON with sorted keys is the canonical byte form.
    """
    ranked = sorted(
        store.records.values(),
        key=lambda r: (-r["duration_ns"], r["trace_id"]),
    )
    entries: List[Dict[str, Any]] = []
    for record in ranked[: max(0, int(top))]:
        root = record["root"]
        entry: Dict[str, Any] = {
            "trace_id": record["trace_id"],
            "supi": record["supi"],
            "attempt": record["attempt"],
            "success": record["success"],
            "reason": record["reason"],
            "sojourn_ns": record["sojourn_ns"],
            "duration_ns": record["duration_ns"],
            "critical_path": critical_path(root),
            "modules_ns": registration_breakdown_ns(
                root, module_servers, module_runtimes
            ),
        }
        entries.append(entry)
    return {
        "schema": DIGEST_SCHEMA,
        "top": int(top),
        "seen": store.seen,
        "kept": len(store),
        "kept_tail": store.kept_tail,
        "kept_head": store.kept_head,
        "evicted": store.evicted,
        "slowest": entries,
    }
