"""REST conveniences over the HTTP layer: the error an SBI handler
raises, and a JSON answer for a route outside
:data:`repro.net.sbi.EXCHANGES`.  Writing and reading an SBI body is
:mod:`repro.net.sbi`'s job.
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
    return HttpResponse(
        status=status,
        body=dumps_flat(payload),
        headers={"Content-Type": "application/json"},
    )
