"""UDR — Unified Data Repository.

The credential storage unit: per-subscriber long-term key K, operator
constant OPc, the SQN counter, and the home-network ECIES private key for
SUCI de-concealment.  The UDM fetches authentication subscription data
from here (Nudr_DataRepository) and writes back SQN increments.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.fivegc.nf_base import NetworkFunction
from repro.net.rest import JsonApiError
from repro.net.sbi import NFType, UDR_AUTH_PEEK, UDR_AUTH_RESYNC, UDR_AUTH_SUBSCRIPTION, serve


class AuthSubscription:
    """One subscriber's authentication data (slotted: the UDR keeps one
    per provisioned subscriber)."""

    __slots__ = ("supi", "k", "opc", "sqn", "amf_field")

    def __init__(
        self, supi: str, k: bytes, opc: bytes, sqn: int = 0,
        amf_field: bytes = b"\x80\x00",
    ) -> None:
        if len(k) != 16:
            raise ValueError("K must be 16 bytes")
        if len(opc) != 16:
            raise ValueError("OPc must be 16 bytes")
        self.supi = supi
        self.k = k
        self.opc = opc
        self.sqn = sqn
        self.amf_field = amf_field

    @property
    def sqn_bytes(self) -> bytes:
        return self.sqn.to_bytes(6, "big")

    def advance_sqn(self) -> bytes:
        """Increment and return the new SQN (per-authentication step).

        SQN is a 48-bit counter (TS 33.102 Annex C) and wraps modulo
        2^48 — ``to_bytes(6, ...)`` would otherwise overflow.
        """
        self.sqn = (self.sqn + 1) % (1 << 48)
        return self.sqn_bytes


class Udr(NetworkFunction):
    NF_TYPE = NFType.UDR

    def __init__(self, *args, hn_private_key: Optional[bytes] = None, **kwargs) -> None:
        self._subscribers: Dict[str, AuthSubscription] = {}
        self.hn_private_key = hn_private_key or bytes(32)
        super().__init__(*args, **kwargs)

    # --------------------------------------------------------- provisioning

    def provision(self, subscription: AuthSubscription) -> None:
        """Add a subscriber (operator provisioning, not an SBI call)."""
        self._subscribers[subscription.supi] = subscription

    def subscriber(self, supi: str) -> AuthSubscription:
        try:
            return self._subscribers[supi]
        except KeyError:
            raise KeyError(f"UDR: unknown subscriber {supi!r}")

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # ------------------------------------------------------------- routing

    def _register_routes(self) -> None:
        serve(self.server, UDR_AUTH_SUBSCRIPTION, self._handle_fetch)
        serve(self.server, UDR_AUTH_PEEK, self._handle_peek)
        serve(self.server, UDR_AUTH_RESYNC, self._handle_resync)

    def _record(self, supi: str) -> AuthSubscription:
        record = self._subscribers.get(supi)
        if record is None:
            raise JsonApiError(404, f"unknown subscriber {supi!r}")
        return record

    def _handle_fetch(self, data, context):
        """Fetch auth data for a SUPI, advancing the SQN counter."""
        record = self._record(data["supi"])
        context.runtime.compute(11_000)  # DB lookup + row serialization
        return _auth_data(record, record.advance_sqn())

    def _handle_peek(self, data, context):
        """Read auth data *without* consuming a SQN (resync verification)."""
        record = self._record(data["supi"])
        context.runtime.compute(9_000)
        return _auth_data(record, record.sqn_bytes)

    def _handle_resync(self, data, context):
        """Resynchronise the network-side SQN to the UE's SQN_MS
        (TS 33.102 §6.3.5, after a verified AUTS)."""
        supi, sqn_ms = data["supi"], data["sqnMs"]
        record = self._record(supi)
        if not 0 <= sqn_ms < 1 << 48:
            raise JsonApiError(400, f"SQN out of range: {sqn_ms}")
        context.runtime.compute(8_000)
        record.sqn = sqn_ms
        return {"supi": supi, "sqn": record.sqn_bytes}


def _auth_data(record: AuthSubscription, sqn: bytes) -> Dict[str, object]:
    return {"supi": record.supi, "k": record.k, "opc": record.opc, "sqn": sqn,
            "amfField": record.amf_field}
