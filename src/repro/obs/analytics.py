"""Trace analytics: the one fold of a registration tree, and the
tail-based digests built on it.

Consumers here work on the JSON-ready dict trees a
:class:`~repro.obs.trace.TraceStore` snapshots (``Span.to_dict`` form),
so they run identically on live spans, store dumps and re-loaded
artifacts; the fold reads a live :class:`~repro.obs.trace.Span` where
it stands (every shard folds one), the digests snapshot it on the way
in.  Four extractions:

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

from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.obs.trace import Span

DIGEST_SCHEMA = 1


def _as_tree(root: Any) -> Dict[str, Any]:
    """Accept either a live Span or its ``to_dict`` tree."""
    return root if isinstance(root, dict) else root.to_dict()


def _walk(node: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    yield node
    for child in node["children"]:
        yield from _walk(child)


def _node_ns(node: Mapping[str, Any]) -> int:
    return int(node["end_ns"]) - int(node["start_ns"])


def _child_of_kind(
    node: Mapping[str, Any], kind: str
) -> Optional[Dict[str, Any]]:
    for child in node["children"]:
        if child["kind"] == kind:
            return child
    return None


def registration_breakdown_ns(
    root: Any,
    module_servers: Mapping[str, str],
    module_runtimes: Optional[Mapping[str, str]] = None,
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
    runtime_to_module = {
        runtime: module for module, runtime in (module_runtimes or {}).items()
    }
    breakdown: Dict[str, Dict[str, int]] = {
        module: {
            "lf_ns": 0, "lt_ns": 0, "ln_ns": 0, "r_ns": 0,
            "requests": 0, "eenters": 0, "eexits": 0, "ocalls": 0,
            "shield_ns": 0, "copy_ns": 0, "host_ns": 0,
            "transition_ns": 0,
        }
        for module in module_servers
    }

    def server(tags: Mapping[str, Any], lt_ns: int, lf_ns: int) -> None:
        module = server_to_module.get(str(tags.get("server")))
        if module is not None:
            row = breakdown[module]
            row["requests"] += 1
            row["lt_ns"] += lt_ns
            row["lf_ns"] += lf_ns
            row["ln_ns"] = row["lt_ns"] - row["lf_ns"]

    def request(tags: Mapping[str, Any], ns: int) -> None:
        module = server_to_module.get(str(tags.get("dst")))
        if module is not None:
            breakdown[module]["r_ns"] += ns

    def ocall(tags: Mapping[str, Any], transition_ns: int) -> None:
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

    if isinstance(root, dict):
        for node in _walk(root):
            kind = node["kind"]
            tags = node["tags"]
            if kind == "sbi.server":
                lt_node = _child_of_kind(node, "L_T")
                if lt_node is not None:
                    lf_node = _child_of_kind(lt_node, "L_F")
                    server(
                        tags, _node_ns(lt_node),
                        0 if lf_node is None else _node_ns(lf_node),
                    )
            elif kind == "sbi.request":
                request(tags, _node_ns(node))
            elif kind == "sgx.ocall":
                ocall(tags, int(tags.get("transition_ns", 0)))
        return breakdown

    # A live tree is read where it stands: no dict, no span id, and an
    # unread OCALL burst stays unread.  Its leaves are its templates (one
    # runtime's compiled profile), and their summed transitions go to
    # the first.
    for node in root.walk_unread():
        kind = node.kind
        if node.__class__ is not Span:
            transition_ns = node.transition_ns()
            for _, _, tags in node.templates:
                ocall(tags, transition_ns)
                transition_ns = 0
        elif kind == "sbi.server":
            lt_span = node.child_of_kind("L_T")
            if lt_span is not None:
                lf_span = lt_span.child_of_kind("L_F")
                server(node.tags, lt_span.ns, 0 if lf_span is None else lf_span.ns)
        elif kind == "sbi.request":
            request(node.tags, node.ns)
        elif kind == "sgx.ocall":
            ocall(node.tags, int(node.tags.get("transition_ns", 0)))
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
    root: Any,
    module_servers: Mapping[str, str],
    module_runtimes: Optional[Mapping[str, str]] = None,
) -> Dict[str, Dict[str, float]]:
    """:func:`registration_breakdown_ns` in float microseconds (``lf_us``
    … ``transition_us``) — what ``repro trace`` prints and the campaign
    reports record."""
    rows = registration_breakdown_ns(root, module_servers, module_runtimes)
    return {module: us_view(row) for module, row in rows.items()}


def critical_path(root: Any) -> List[Dict[str, Any]]:
    """Root→leaf frames of the trace's dominant chain.

    At every level the longest child is taken (ties: earliest
    ``start_ns``, then tree order).  Each frame carries the span's name,
    kind, total ns and ``self_ns`` — the part of the span not covered by
    any child, i.e. the frame's own contribution to the path.
    """
    frames: List[Dict[str, Any]] = []
    node = _as_tree(root)
    while node is not None:
        children = node["children"]
        frames.append({
            "name": node["name"],
            "kind": node["kind"],
            "ns": _node_ns(node),
            "self_ns": _node_ns(node) - sum(_node_ns(c) for c in children),
        })
        best = None
        for child in children:
            if best is None:
                best = child
                continue
            child_ns, best_ns = _node_ns(child), _node_ns(best)
            if child_ns > best_ns or (
                child_ns == best_ns
                and int(child["start_ns"]) < int(best["start_ns"])
            ):
                best = child
        node = best
    return frames


def slowest_traces_digest(
    store_dump: Mapping[str, Any],
    top: int = 10,
    module_servers: Optional[Mapping[str, str]] = None,
    module_runtimes: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """Deterministic digest of the slowest stored traces.

    ``store_dump`` is a :meth:`~repro.obs.trace.TraceStore.to_dict`
    snapshot.  Records rank by duration descending with trace-id
    ascending as the tiebreak, so the digest is a pure function of the
    record *set*.  Every value is an int or str; JSON with sorted keys
    is the canonical byte form.
    """
    ranked = sorted(
        store_dump.get("records", ()),
        key=lambda r: (-int(r["duration_ns"]), r["trace_id"]),
    )
    entries: List[Dict[str, Any]] = []
    for record in ranked[: max(0, int(top))]:
        entry: Dict[str, Any] = {
            "trace_id": record["trace_id"],
            "supi": record["supi"],
            "attempt": int(record["attempt"]),
            "success": bool(record["success"]),
            "reason": record["reason"],
            "sojourn_ns": int(record["sojourn_ns"]),
            "duration_ns": int(record["duration_ns"]),
            "critical_path": critical_path(record["root"]),
        }
        if module_servers is not None:
            entry["modules_ns"] = registration_breakdown_ns(
                record["root"], module_servers, module_runtimes
            )
        entries.append(entry)
    return {
        "schema": DIGEST_SCHEMA,
        "top": int(top),
        "seen": int(store_dump.get("seen", 0)),
        "kept": len(store_dump.get("records", ())),
        "kept_tail": int(store_dump.get("kept_tail", 0)),
        "kept_head": int(store_dump.get("kept_head", 0)),
        "evicted": int(store_dump.get("evicted", 0)),
        "slowest": entries,
    }
