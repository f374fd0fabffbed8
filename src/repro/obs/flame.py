"""Collapsed-stack emission for flamegraph.pl / speedscope.

The collapsed (folded) format is one line per unique stack::

    frame;frame;frame value

Frames must not contain semicolons or whitespace (both are structural),
so :func:`sanitize_frame` rewrites them.  Values here are *simulated
nanoseconds of self time* — the unit cancels out of the rendering, and
nanoseconds keep the folding exact-integer all the way down.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

StackKey = Tuple[str, ...]


def sanitize_frame(frame: str) -> str:
    """Make a frame label safe for the collapsed-stack grammar."""
    return (
        frame.replace(";", ":")
        .replace(" ", "_")
        .replace("\t", "_")
        .replace("\n", "_")
    ) or "_"


def collapsed_text(stacks: Mapping[StackKey, int]) -> str:
    """Render folded stacks, sorted for byte-stable output."""
    lines: List[str] = []
    for stack in sorted(stacks):
        value = stacks[stack]
        if value <= 0:
            continue
        lines.append(f"{';'.join(stack)} {value}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_collapsed_text(text: str) -> Dict[StackKey, int]:
    """Parse folded stacks back (round-trip test surface)."""
    stacks: Dict[StackKey, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        body, _, value = line.rpartition(" ")
        if not body:
            raise ValueError(f"unparseable collapsed-stack line: {line!r}")
        key = tuple(body.split(";"))
        stacks[key] = stacks.get(key, 0) + int(value)
    return stacks

