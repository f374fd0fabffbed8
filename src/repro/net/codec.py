"""SBI message serialization.

Every SBI body in the simulator is a JSON object — hex-encoded octet
strings, SUPIs and integers, plus the NRF's profiles and the identity
objects a hop forwards untouched.  Table I's byte accounting depends on
the exact wire form, so what is written here is **byte-identical** to
``json.dumps(payload, sort_keys=True)``.

:func:`dumps_value` writes one value: a plain ASCII string, an int, a
bool or ``None`` with a string builder, anything richer (escapes,
non-ASCII text, floats, nested containers) through :mod:`json`.  An SBI
message's key order is fixed once per declared shape
(:func:`repro.net.sbi.write`); :func:`dumps_flat` writes an object
outside any shape, sorting its keys per call.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict

# Characters json.dumps escapes inside strings (ensure_ascii=True also
# escapes non-ASCII; such strings take the json path).
_NEEDS_ESCAPE = re.compile(r'[\\"\x00-\x1f]')


def _simple_str(value: str) -> bool:
    return value.isascii() and _NEEDS_ESCAPE.search(value) is None


def dumps_value(value: Any) -> str:
    """One JSON value, as ``json.dumps(value, sort_keys=True)`` writes it."""
    cls = value.__class__
    if cls is str:
        if _simple_str(value):
            return f'"{value}"'
    elif cls is int:
        return str(value)
    elif cls is bool:
        return "true" if value else "false"
    elif value is None:
        return "null"
    return json.dumps(value, sort_keys=True)


def dumps_flat(payload: Dict[str, Any]) -> bytes:
    """Serialize a JSON object, byte-identical to
    ``json.dumps(payload, sort_keys=True).encode()``."""
    if not all(key.__class__ is str and _simple_str(key) for key in payload):
        return json.dumps(payload, sort_keys=True).encode()
    items = ", ".join(f'"{key}": {dumps_value(payload[key])}' for key in sorted(payload))
    return ("{" + items + "}").encode()


def loads_object(body: bytes) -> Dict[str, Any]:
    """Parse a JSON object body (the inverse of :func:`dumps_flat`).

    Thin wrapper over :func:`json.loads` (already a C scanner) that
    exists so the codec owns both directions; raises ``ValueError`` (or
    ``json.JSONDecodeError``, its subclass) on malformed input and
    ``TypeError``-free non-dict payloads are reported as ``ValueError``.
    """
    data = json.loads(body.decode())
    if not isinstance(data, dict):
        raise ValueError("JSON body must be an object")
    return data
