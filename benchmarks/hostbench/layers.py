"""Fold a cProfile run into the layer taxonomy.

Deterministic tracing (every call is seen) instead of sampling: the
committed ``benchmarks/profiles/*_after.collapsed`` is 650/652 samples in
``hmac.py:digest`` because a sampler only gets the GIL where C code
releases it.  Here self time is folded by *source path*: a function
defined under ``src/repro/<pkg>/`` belongs to layer ``<pkg>``, one
defined in this directory to ``host``.  Builtins and stdlib functions
have no layer of their own; their self time and calls go to whichever
layers called them, split by the profiler's callers table and followed
upwards through stdlib-to-stdlib edges (``hmac.digest`` →
``_hashlib.hmac_digest`` lands in ``crypto``, where the KDF called it).
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Optional, Tuple

from metrics import LAYERS

Func = Tuple[str, int, str]

_HERE = os.path.dirname(os.path.abspath(__file__))
_TOP_LEVEL_MODULES = {"testbed.py": "testbed", "aka.py": "paka"}


def layer_of(filename: str, repro_dir: str) -> Optional[str]:
    """Layer owning ``filename``; ``None`` for stdlib and builtins."""
    if filename.startswith(repro_dir + os.sep):
        head = filename[len(repro_dir) + 1:].split(os.sep, 1)[0]
        head = _TOP_LEVEL_MODULES.get(head, head)
        return head if head in LAYERS else "other"
    if filename.startswith(_HERE + os.sep):
        return "host"
    return None


def fold(profile: cProfile.Profile, repro_dir: str) -> Dict[str, Dict]:
    """Per-layer self seconds, call counts and per-function self seconds.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n},
    "functions": {(layer, label): s}}``.
    """
    stats = pstats.Stats(profile).stats  # {func: (cc, nc, tt, ct, callers)}
    own = {func: layer_of(func[0], repro_dir) for func in stats}

    # For a layerless function: how its time (edge field 2) or its calls
    # (edge field 0) split over layers, from who called it.
    memo: Dict[Tuple[Func, int], Dict[str, float]] = {}

    def split(func: Func, field: int, visiting: frozenset) -> Dict[str, float]:
        key = (func, field)
        if key in memo:
            return memo[key]
        callers = stats[func][4]
        total = sum(edge[field] for edge in callers.values())
        shares: Dict[str, float] = {}
        if total <= 0:
            shares["other"] = 1.0
        else:
            inside = visiting | {func}
            for caller, edge in sorted(callers.items()):
                weight = edge[field] / total
                if weight == 0:
                    continue
                layer = own.get(caller)
                if layer is not None:
                    shares[layer] = shares.get(layer, 0.0) + weight
                elif caller in inside or caller not in stats:
                    shares["other"] = shares.get("other", 0.0) + weight
                else:
                    for up, part in split(caller, field, inside).items():
                        shares[up] = shares.get(up, 0.0) + weight * part
        memo[key] = shares
        return shares

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    functions: Dict[Tuple[str, str], float] = {}
    # Sorted, so float sums do not depend on the profiler's table order.
    for func, (_, ncalls, tottime, _, _) in sorted(stats.items()):
        filename, line, name = func
        if name == "<method 'disable' of '_lsprof.Profiler' objects>":
            continue
        label = (
            name if filename == "~"
            else f"{os.path.basename(filename)}:{line}:{name}"
        )
        layer = own[func]
        time_split = {layer: 1.0} if layer else split(func, 2, frozenset())
        call_split = {layer: 1.0} if layer else split(func, 0, frozenset())
        for target, part in time_split.items():
            self_s[target] += tottime * part
            functions[(target, label)] = functions.get((target, label), 0.0) + tottime * part
        for target, part in call_split.items():
            calls[target] += ncalls * part
    return {"self_s": self_s, "calls": calls, "functions": functions}


def top_functions(functions: Dict[Tuple[str, str], float], top: int = 10) -> Dict[Tuple[str, str], int]:
    """Per layer, the ``top`` functions by self time, as integer ns stacks
    ready for ``repro.obs.flame.collapsed_text``."""
    by_layer: Dict[str, list] = {}
    for (layer, label), seconds in functions.items():
        by_layer.setdefault(layer, []).append((seconds, label))
    stacks: Dict[Tuple[str, str], int] = {}
    for layer, rows in by_layer.items():
        for seconds, label in sorted(rows, reverse=True)[:top]:
            stacks[(layer, label)] = int(seconds * 1e9)
    return stacks
