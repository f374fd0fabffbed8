"""REST conveniences over the HTTP layer.

The 5G SBI exchanges JSON bodies; these helpers keep the VNF and P-AKA
endpoint code terse while staying byte-faithful (hex-encoded octet
strings for the cryptographic parameters, matching Table I's byte
accounting on the wire model).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.net.codec import dumps_flat, loads_object
from repro.net.http import HttpRequest, HttpResponse


class JsonApiError(Exception):
    """A malformed or semantically invalid API payload."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def json_response(payload: Dict[str, Any], status: int = 200) -> HttpResponse:
    # dumps_flat is byte-identical to json.dumps(payload, sort_keys=True)
    # for the flat hex/str/int bodies the SBI exchanges (see net/codec.py).
    return HttpResponse(
        status=status,
        body=dumps_flat(payload),
        headers={"Content-Type": "application/json"},
    )


def error_response(error: JsonApiError) -> HttpResponse:
    return json_response({"error": error.message}, status=error.status)


def json_body(request: HttpRequest) -> Dict[str, Any]:
    try:
        return loads_object(request.body)
    except (UnicodeDecodeError, ValueError) as exc:
        if isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)):
            raise JsonApiError(400, f"body is not valid JSON: {exc}")
        raise JsonApiError(400, "JSON body must be an object")


def require_hex(data: Dict[str, Any], field: str, nbytes: int) -> bytes:
    """Fetch a hex-encoded octet string of exactly ``nbytes`` bytes."""
    value = data.get(field)
    if not isinstance(value, str):
        raise JsonApiError(400, f"missing or non-string field {field!r}")
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        raise JsonApiError(400, f"field {field!r} is not valid hex")
    if len(raw) != nbytes:
        raise JsonApiError(
            400, f"field {field!r} must be {nbytes} bytes, got {len(raw)}"
        )
    return raw


def require_str(data: Dict[str, Any], field: str) -> str:
    value = data.get(field)
    if not isinstance(value, str) or not value:
        raise JsonApiError(400, f"missing or empty field {field!r}")
    return value


def require_int(data: Dict[str, Any], field: str) -> int:
    value = data.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise JsonApiError(400, f"missing or non-integer field {field!r}")
    return value


def read_answer(response: HttpResponse, peer: str, **fields: Any) -> Dict[str, Any]:
    """A peer's JSON answer, each named field checked and decoded in place.

    A field is a hex octet string of that many bytes, or whatever its
    reader (:func:`require_str`, :func:`require_int`) accepts.  A body that
    is not a JSON object, or a missing or ill-formed field, is the peer's
    fault: :class:`JsonApiError` 502, where the same flaw in a request is
    the caller's (400).
    """
    try:
        data = response.json()
        for name, kind in fields.items():
            data[name] = kind(data, name) if callable(kind) else require_hex(data, name, kind)
        return data
    except (ValueError, JsonApiError) as exc:
        raise JsonApiError(502, f"malformed {peer} answer: {exc}")
