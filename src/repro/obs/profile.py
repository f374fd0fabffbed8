"""Cycle-attribution profiler: span trees folded into flame graphs.

One traced registration (:func:`repro.obs.collect.trace_registration`)
already carries the whole cost story — every span is an interval of
simulated time, and each ``sgx.ocall`` span is tagged with the fused
cost components (``transition_ns`` / ``shield_ns`` / ``copy_ns`` /
``host_ns``).  This module folds that tree into collapsed stacks whose
self-time values are exact integer nanoseconds, splitting every OCALL
into its component sub-frames, so the Table III EENTER/EEXIT budget
renders as a flame graph per module.

What belongs to the profiler is the frames and the stacks.  The
per-module Table III rows printed beside them
(``RegistrationProfile.modules``) are rows of the one fold,
:func:`~repro.obs.analytics.registration_breakdown_ns`, so they are the
numbers ``repro trace`` prints by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.obs.analytics import registration_breakdown_ns, us_view
from repro.obs.flame import StackKey, collapsed_text, sanitize_frame
from repro.obs.trace import Span

#: OCALL component sub-frames, in emission order (tag name per frame).
COMPONENT_TAGS: Tuple[Tuple[str, str], ...] = (
    ("transition", "transition_ns"),
    ("shield", "shield_ns"),
    ("copy", "copy_ns"),
    ("host", "host_ns"),
)

#: The fold-row keys a profile's per-module Table III view keeps.
MODULE_KEYS: Tuple[str, ...] = ("ocalls", "eenters", "eexits") + tuple(
    tag for _, tag in COMPONENT_TAGS
)


def _frame_for(span: Span, runtime_to_module: Mapping[str, str]) -> str:
    """Flame-graph frame label for one span."""
    if span.kind == "sgx.ocall":
        module = runtime_to_module.get(
            str(span.tags.get("runtime")), str(span.tags.get("runtime"))
        )
        return sanitize_frame(f"{module}:ocall:{span.name}")
    if not span.kind:
        return sanitize_frame(span.name)
    if span.name in (span.kind, "window"):
        return sanitize_frame(span.kind)
    return sanitize_frame(f"{span.kind}:{span.name}")


@dataclass
class RegistrationProfile:
    """One folded registration: collapsed stacks + per-module totals."""

    root: Span
    # Collapsed stacks: frame tuple -> exact self-time in simulated ns.
    stacks: Dict[StackKey, int] = field(default_factory=dict)
    # Per-module Table III view: the MODULE_KEYS of the fold's row plus
    # their µs view; modules that made no OCALL are omitted.
    modules: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def total_ns(self) -> int:
        return sum(self.stacks.values())

    def collapsed(self) -> str:
        return collapsed_text(self.stacks)

    def module_transition_ns(self, module: str) -> int:
        """Transition self-time for one module, recomputed from the
        collapsed stacks (the flame-graph-side number the per-module
        totals must agree with)."""
        prefix = sanitize_frame(f"{module}:ocall:")
        return sum(
            value
            for stack, value in self.stacks.items()
            if len(stack) >= 2
            and stack[-1] == "transition"
            and stack[-2].startswith(prefix)
        )


def fold_registration(
    root: Span,
    module_servers: Mapping[str, str],
    module_runtimes: Optional[Mapping[str, str]] = None,
) -> RegistrationProfile:
    """Fold one registration span tree into a :class:`RegistrationProfile`.

    ``module_servers`` / ``module_runtimes`` are the maps
    :func:`~repro.obs.analytics.registration_breakdown_ns` takes (module
    short name → HTTP server name / enclave runtime name).
    """
    runtime_to_module = {
        runtime: module for module, runtime in (module_runtimes or {}).items()
    }
    profile = RegistrationProfile(root=root)
    stacks = profile.stacks

    def fold(span: Span, stack: StackKey) -> None:
        stack = stack + (_frame_for(span, runtime_to_module),)
        if span.kind == "sgx.ocall":
            covered_ns = 0
            for frame, tag in COMPONENT_TAGS:
                ns = int(span.tags.get(tag, 0))
                if ns > 0:
                    covered_ns += ns
                    key = stack + (frame,)
                    stacks[key] = stacks.get(key, 0) + ns
        else:
            covered_ns = sum(child.ns for child in span.children)
        self_ns = span.ns - covered_ns
        if self_ns > 0:
            stacks[stack] = stacks.get(stack, 0) + self_ns
        for child in span.children:
            fold(child, stack)

    fold(root, ())
    rows = registration_breakdown_ns(root, module_servers, module_runtimes)
    for module, row in rows.items():
        if row["ocalls"]:
            table3 = {key: row[key] for key in MODULE_KEYS}
            profile.modules[module] = {**table3, **us_view(table3)}
    return profile


def profile_registration(
    testbed: Any, establish_session: bool = False
) -> Tuple[RegistrationProfile, Any]:
    """Trace one registration on ``testbed`` and fold it.

    Returns ``(profile, trace)`` where ``trace`` is the underlying
    :class:`~repro.obs.collect.RegistrationTrace` (outcome, breakdown,
    SgxStats deltas).
    """
    from repro.obs.collect import module_maps, trace_registration

    trace = trace_registration(testbed, establish_session=establish_session)
    return fold_registration(trace.root, *module_maps(testbed)), trace
