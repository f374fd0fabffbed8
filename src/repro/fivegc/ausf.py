"""AUSF — Authentication Server Function (home network).

Handles Nausf_UEAuthentication: verifies the serving network is
authorised, obtains the HE AV from the UDM, derives the SE AV (HXRES* +
K_SEAF — in the eAUSF P-AKA module when offloaded, Fig 5 step 3), stores
the authentication context, and on confirmation compares the UE's RES*
against XRES* before releasing K_SEAF to the SEAF/AMF.  A context
answers one confirmation; one that is never confirmed (a replayed SUCI,
a rejected resync — every one attacker-chosen) is forgotten
:data:`_CONTEXT_TTL_NS` after its challenge was issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.aka import HomeAuthVector, derive_se_av
from repro.fivegc.nf_base import NetworkFunction
from repro.net.rest import JsonApiError
from repro.net.sbi import (
    AUSF_UE_AUTH,
    AUSF_UE_AUTH_CONFIRM,
    EAUSF_DERIVE_SE_AV,
    NFType,
    UDM_UE_AUTH_GET,
    serve,
)
from repro.paka.modules import EausfPakaModule

_SE_AV_LOCAL_CYCLES = EausfPakaModule.COMPUTE_CYCLES
_SN_AUTHZ_CYCLES = 14_000  # serving-network authorisation check
_CONFIRM_CYCLES = 12_000  # XRES* comparison + context update
# How long a challenge may go unanswered, on the simulated clock.  Well
# above the longest legitimate challenge → confirmation interval the
# default SBI retry policy allows (3 x 2 s deadlines + backoff ≈ 6.2 s).
_CONTEXT_TTL_NS = 30_000_000_000


@dataclass
class _AuthContext:
    """Server-side state between authenticate and confirm."""

    supi: str
    rand: bytes
    xres_star: bytes
    kseaf: bytes
    snn: str
    issued_ns: int


class Ausf(NetworkFunction):
    NF_TYPE = NFType.AUSF

    def __init__(self, *args, allowed_snns: Optional[set] = None, **kwargs) -> None:
        self.offload_module: Optional[EausfPakaModule] = None
        self.allowed_snns = allowed_snns  # None = allow any (lab PLMN)
        self._contexts: Dict[str, _AuthContext] = {}
        self._next_ctx = 0
        super().__init__(*args, **kwargs)

    def attach_module(self, module: EausfPakaModule) -> None:
        self.offload_module = module

    # ------------------------------------------------------------- routing

    def _register_routes(self) -> None:
        serve(self.server, AUSF_UE_AUTH, self._handle_authenticate)
        serve(self.server, AUSF_UE_AUTH_CONFIRM, self._handle_confirm)

    def _handle_authenticate(self, data, context):
        snn = data["servingNetworkName"]
        context.runtime.compute(_SN_AUTHZ_CYCLES)
        if self.allowed_snns is not None and snn not in self.allowed_snns:
            raise JsonApiError(403, f"serving network {snn!r} not authorised")

        # Forward to the UDM: the request holds only its declared fields,
        # so the identity and any resync token go on untouched.
        he = self.call(self.peer(NFType.UDM), UDM_UE_AUTH_GET, data)
        he_av = HomeAuthVector(
            rand=he["rand"], autn=he["autn"], xres_star=he["xresStar"], kausf=he["kausf"]
        )

        if self.offload_module is not None:
            hxres_star, kseaf = self._derive_offloaded(he_av, snn)
        else:
            context.runtime.compute(_SE_AV_LOCAL_CYCLES)
            se_av, kseaf = derive_se_av(he_av, snn.encode())
            hxres_star = se_av.hxres_star

        # Contexts sit in issue order, so the expired ones are in front.
        now_ns = self.host.clock.now_ns
        while self._contexts:
            oldest = next(iter(self._contexts))
            if now_ns - self._contexts[oldest].issued_ns <= _CONTEXT_TTL_NS:
                break
            del self._contexts[oldest]
        self._next_ctx += 1
        ctx_id = f"authctx-{self._next_ctx}"
        self._contexts[ctx_id] = _AuthContext(
            supi=he["supi"], rand=he_av.rand,
            xres_star=he_av.xres_star, kseaf=kseaf, snn=snn, issued_ns=now_ns,
        )
        return {"authCtxId": ctx_id, "rand": he_av.rand, "autn": he_av.autn,
                "hxresStar": hxres_star}

    def _handle_confirm(self, data, context):
        ctx_id, res_star = data["authCtxId"], data["resStar"]
        auth_context = self._contexts.get(ctx_id)
        if auth_context is None or (
            self.host.clock.now_ns - auth_context.issued_ns > _CONTEXT_TTL_NS
        ):
            raise JsonApiError(404, f"unknown auth context {ctx_id!r}")
        context.runtime.compute(_CONFIRM_CYCLES)
        # A context answers one confirmation, pass or fail: K_SEAF is
        # released at most once and nothing per-UE outlives the AKA run.
        del self._contexts[ctx_id]
        if res_star != auth_context.xres_star:
            return {"result": "AUTHENTICATION_FAILURE"}
        return {"result": "AUTHENTICATION_SUCCESS", "supi": auth_context.supi,
                "kseaf": auth_context.kseaf}

    # ------------------------------------------------------------ internals

    def _derive_offloaded(self, he_av: HomeAuthVector, snn: str) -> "tuple[bytes, bytes]":
        """Fig 5: HXRES* calculation + K_SEAF derivation in eAUSF P-AKA."""
        body = self.call(self.offload_module, EAUSF_DERIVE_SE_AV, {
            "rand": he_av.rand, "autn": he_av.autn, "xresStar": he_av.xres_star,
            "kausf": he_av.kausf, "snn": snn,
        })
        return body["hxresStar"], body["kseaf"]
