"""UDM — Unified Data Management (home network).

Handles Nudm_UEAuthentication_Get: de-conceals the SUCI (SIDF), fetches
the subscriber's authentication data from the UDR, and produces the HE
authentication vector.  The sensitive generation runs in the external
eUDM P-AKA module (Fig 5 steps 2–3): the UDM sends OPc,
RAND, SQN and the AMF field over the bridge and receives RAND, AUTN,
XRES* and K_AUSF back — the subscriber key K itself stays provisioned
inside the module.
"""

from __future__ import annotations

from repro.crypto.suci import deconceal_suci
from repro.fivegc.nf_base import NetworkFunction
from repro.net.rest import JsonApiError
from repro.net.sbi import (
    EUDM_GENERATE_AV,
    EUDM_VERIFY_AUTS,
    NFType,
    UDM_UE_AUTH_GET,
    UDR_AUTH_PEEK,
    UDR_AUTH_RESYNC,
    UDR_AUTH_SUBSCRIPTION,
    serve,
)
from repro.paka.modules import EudmPakaModule

_SIDF_DECONCEAL_CYCLES = 150_000  # X25519 + KDF + AES-CTR + MAC check


class Udm(NetworkFunction):
    NF_TYPE = NFType.UDM
    offload_module: EudmPakaModule

    def __init__(self, *args, hn_private_key: bytes = bytes(32), **kwargs) -> None:
        self.hn_private_key = hn_private_key
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------ offload

    def attach_module(self, module: EudmPakaModule) -> None:
        """Bind the external eUDM P-AKA module."""
        self.offload_module = module

    # ------------------------------------------------------------- routing

    def _register_routes(self) -> None:
        serve(self.server, UDM_UE_AUTH_GET, self._handle_generate_auth_data)

    def _handle_generate_auth_data(self, data, context):
        snn_text = data["servingNetworkName"]
        supi = data.get("supi")
        if supi is None:  # SIDF: de-conceal the SUCI
            context.runtime.compute(_SIDF_DECONCEAL_CYCLES)
            try:
                supi = str(deconceal_suci(data["suci"], self.hn_private_key))
            except ValueError as exc:
                raise JsonApiError(403, f"SUCI de-concealment failed: {exc}")

        # Resynchronisation (TS 33.102 §6.3.5): the UE reported a stale
        # SQN with an AUTS token; verify it and reset the UDR counter
        # before generating the fresh vector.
        resync_info = data.get("resynchronizationInfo")
        if resync_info is not None:
            self._perform_resync(supi, resync_info)

        # Fetch auth subscription data from the UDR (advances the SQN).
        record = self.call(self.peer(NFType.UDR), UDR_AUTH_SUBSCRIPTION, {"supi": supi})
        rand = self.host.rng.randbytes("udm.rand", 16)

        # Fig 5 steps 2–3: the HE AV is generated in the eUDM module.
        av = self.call(self.offload_module, EUDM_GENERATE_AV, {
            "supi": supi, "opc": record["opc"], "rand": rand, "sqn": record["sqn"],
            "amfField": record["amfField"], "snn": snn_text,
        })
        return {"rand": av["rand"], "autn": av["autn"], "xresStar": av["xresStar"],
                "kausf": av["kausf"], "supi": supi}

    # ------------------------------------------------------------ internals

    def _perform_resync(self, supi: str, resync_info: dict) -> None:
        """Verify AUTS inside the eUDM module and reset the UDR's SQN to
        the recovered SQN_MS."""
        rand, auts = resync_info["rand"], resync_info["auts"]
        udr = self.peer(NFType.UDR)
        record = self.call(udr, UDR_AUTH_PEEK, {"supi": supi})
        opc = record["opc"]

        sqn_ms = self.call(self.offload_module, EUDM_VERIFY_AUTS, {
            "supi": supi, "opc": opc, "rand": rand, "auts": auts,
        })["sqnMs"]
        self.call(udr, UDR_AUTH_RESYNC, {"supi": supi, "sqnMs": sqn_ms})
