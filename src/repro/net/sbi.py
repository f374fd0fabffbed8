"""Service-Based Interface conventions (3GPP TS 29.5xx family).

Names the services and API paths the VNFs expose to each other, plus the
NF profile structure the NRF stores for discovery.  Paths follow the
3GPP naming style (``nausf-auth``, ``nudm-ueau`` …); the P-AKA module
paths are this reproduction's equivalent of the paper's "REST API
endpoints where each AKA function is mapped to an endpoint handler".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List


class NFType(Enum):
    NRF = "NRF"
    UDR = "UDR"
    UDM = "UDM"
    AUSF = "AUSF"
    AMF = "AMF"
    SMF = "SMF"
    UPF = "UPF"


# Core SBI API paths.
NRF_REGISTER = "/nnrf-nfm/v1/nf-instances"
NRF_DISCOVER = "/nnrf-disc/v1/nf-instances"
UDR_AUTH_SUBSCRIPTION = "/nudr-dr/v1/subscription-data/authentication-data"
UDR_AUTH_PEEK = "/nudr-dr/v1/subscription-data/authentication-data/peek"
UDR_AUTH_RESYNC = "/nudr-dr/v1/subscription-data/authentication-data/resync"
UDM_UE_AUTH_GET = "/nudm-ueau/v1/generate-auth-data"
AUSF_UE_AUTH = "/nausf-auth/v1/ue-authentications"
AUSF_UE_AUTH_CONFIRM = "/nausf-auth/v1/ue-authentications/confirmation"
AMF_N1_MESSAGE = "/namf-comm/v1/n1-message"
SMF_PDU_SESSION = "/nsmf-pdusession/v1/sm-contexts"

# P-AKA module endpoints (one per offloaded function group, Table I).
EUDM_GENERATE_AV = "/eudm-paka/v1/generate-av"
EUDM_VERIFY_AUTS = "/eudm-paka/v1/verify-auts"
EAUSF_DERIVE_SE_AV = "/eausf-paka/v1/derive-se-av"
EAMF_DERIVE_KAMF = "/eamf-paka/v1/derive-kamf"


@dataclass
class NFProfile:
    """What an NF registers with the NRF."""

    nf_instance_id: str
    nf_type: NFType
    endpoint_name: str  # bridge endpoint (the "address")
    services: List[str] = field(default_factory=list)
    metadata: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "nfInstanceId": self.nf_instance_id,
            "nfType": self.nf_type.value,
            "endpoint": self.endpoint_name,
            "services": list(self.services),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NFProfile":
        return cls(
            nf_instance_id=str(data["nfInstanceId"]),
            nf_type=NFType(str(data["nfType"])),
            endpoint_name=str(data["endpoint"]),
            services=[str(s) for s in data.get("services", [])],
            metadata={str(k): str(v) for k, v in dict(data.get("metadata", {})).items()},
        )
