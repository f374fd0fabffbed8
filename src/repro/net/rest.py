"""REST conveniences over the HTTP layer: the JSON answer and the
error answer an SBI handler returns.  Reading a body is
:func:`repro.net.sbi.decode`'s job.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.net.codec import dumps_flat
from repro.net.http import HttpResponse


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
