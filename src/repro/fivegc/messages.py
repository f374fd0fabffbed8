"""NAS and N2 message types (TS 24.501, simplified but faithful).

These are the messages the AMF and UE exchange during registration — the
paper's Fig 5 sequence.  Cryptographic fields carry real bytes; MACs are
real 128-NIA2 tags once NAS security is activated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.crypto.suci import DeferredSuci


@dataclass(frozen=True)
class NasMessage:
    """Base class; ``kind`` doubles as the wire discriminator."""

    @property
    def kind(self) -> str:
        return type(self).__name__

    def approx_bytes(self) -> int:
        """Rough NAS PDU size used by the air-interface latency model."""
        return 64


@dataclass(frozen=True)
class RegistrationRequest(NasMessage):
    """Registration with a concealed identity (SUCI) or a prior 5G-GUTI."""

    # mcc, mnc, scheme, keyId, schemeOutput; a UE's concealed on first read
    suci: Optional[Union[Dict[str, object], DeferredSuci]] = None
    guti: Optional[str] = None  # re-registration with a temporary identity
    requested_nssai: str = "default"

    def __post_init__(self) -> None:
        if (self.suci is None) == (self.guti is None):
            raise ValueError("registration needs exactly one of SUCI or GUTI")

    def approx_bytes(self) -> int:
        if self.suci is not None:
            return 96 + len(str(self.suci.get("schemeOutput", "")))
        return 96 + len(self.guti or "")


@dataclass(frozen=True)
class AuthenticationRequest(NasMessage):
    """Network → UE challenge (RAND, AUTN)."""

    rand: bytes
    autn: bytes
    ngksi: int = 0

    def approx_bytes(self) -> int:
        return 8 + len(self.rand) + len(self.autn)


@dataclass(frozen=True)
class AuthenticationResponse(NasMessage):
    """UE → network response (RES*)."""

    res_star: bytes

    def approx_bytes(self) -> int:
        return 8 + len(self.res_star)


@dataclass(frozen=True)
class AuthenticationFailure(NasMessage):
    """UE rejects the challenge (MAC failure or SQN out of range)."""

    cause: str
    auts: Optional[bytes] = None  # resynchronisation token for SYNCH_FAILURE


@dataclass(frozen=True)
class AuthenticationReject(NasMessage):
    """Network rejects the UE."""

    cause: str = "authentication failed"


@dataclass(frozen=True)
class SecurityModeCommand(NasMessage):
    """Activate NAS security (integrity-protected with the new keys)."""

    integrity_alg: str = "128-NIA2"
    ciphering_alg: str = "128-NEA2"
    ngksi: int = 0
    mac: bytes = b""

    def approx_bytes(self) -> int:
        return 24 + len(self.mac)


@dataclass(frozen=True)
class SecurityModeComplete(NasMessage):
    mac: bytes = b""


@dataclass(frozen=True)
class RegistrationAccept(NasMessage):
    """Registration accepted; carries the new 5G-GUTI."""

    guti: str
    mac: bytes = b""

    def approx_bytes(self) -> int:
        return 48 + len(self.guti)


@dataclass(frozen=True)
class RegistrationComplete(NasMessage):
    mac: bytes = b""


@dataclass(frozen=True)
class DeregistrationRequest(NasMessage):
    """UE-initiated deregistration (integrity-protected)."""

    mac: bytes = b""


@dataclass(frozen=True)
class DeregistrationAccept(NasMessage):
    mac: bytes = b""


@dataclass(frozen=True)
class PduSessionEstablishmentRequest(NasMessage):
    session_id: int = 1
    dnn: str = "internet"


@dataclass(frozen=True)
class PduSessionEstablishmentAccept(NasMessage):
    session_id: int = 1
    ue_address: str = "10.0.0.2"
    qos_flow: str = "5qi-9"


@dataclass
class RegistrationOutcome:
    """What a completed registration attempt yields (for the harness)."""

    success: bool
    supi: Optional[str] = None
    guti: Optional[str] = None
    failure_cause: Optional[str] = None
    session_setup_ms: Optional[float] = None
    nas_exchanges: int = 0
    detail: Dict[str, float] = field(default_factory=dict)
