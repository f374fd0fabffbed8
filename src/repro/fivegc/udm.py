"""UDM — Unified Data Management (home network).

Handles Nudm_UEAuthentication_Get: de-conceals the SUCI (SIDF), fetches
the subscriber's authentication data from the UDR, and produces the HE
authentication vector.  In offloaded mode the sensitive generation runs
in the external eUDM P-AKA module (Fig 5 steps 2–3): the UDM sends OPc,
RAND, SQN and the AMF field over the bridge and receives RAND, AUTN,
XRES* and K_AUSF back — the subscriber key K itself stays provisioned
inside the module.
"""

from __future__ import annotations

from typing import Optional

from repro.aka import HomeAuthVector, generate_he_av, verify_auts
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
_AV_LOCAL_CYCLES = EudmPakaModule.COMPUTE_CYCLES  # monolithic execution
_AUTS_LOCAL_CYCLES = 78_000  # f2345 (AK*) + f1* verification


class Udm(NetworkFunction):
    NF_TYPE = NFType.UDM

    def __init__(self, *args, hn_private_key: bytes = bytes(32), **kwargs) -> None:
        self.hn_private_key = hn_private_key
        self.offload_module: Optional[EudmPakaModule] = None
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------ offload

    def attach_module(self, module: EudmPakaModule) -> None:
        """Bind the external eUDM P-AKA module (offloaded mode)."""
        self.offload_module = module

    def provision_module_key(self, supi: str, k: bytes) -> None:
        """Push a subscriber key into the eUDM module at slice setup.

        Uses the module's local attested provisioning channel rather than
        the HTTP path (see :meth:`EudmPakaModule.provision_direct`).
        """
        if self.offload_module is None:
            raise RuntimeError(f"{self.name}: no eUDM module attached")
        self.offload_module.provision_direct(supi, k)

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
            self._perform_resync(supi, resync_info, context)

        # Fetch auth subscription data from the UDR (advances the SQN).
        record = self.call(self.peer(NFType.UDR), UDR_AUTH_SUBSCRIPTION, {"supi": supi})
        rand = self.host.rng.randbytes("udm.rand", 16)

        if self.offload_module is not None:
            he_av = self._generate_av_offloaded(supi, record, rand, snn_text)
        else:
            context.runtime.compute(_AV_LOCAL_CYCLES)
            he_av = generate_he_av(
                k=record["k"], opc=record["opc"], rand=rand, sqn=record["sqn"],
                snn=snn_text.encode(), amf_field=record["amfField"],
            )
        return {"rand": he_av.rand, "autn": he_av.autn, "xresStar": he_av.xres_star,
                "kausf": he_av.kausf, "supi": supi}

    # ------------------------------------------------------------ internals

    def _generate_av_offloaded(
        self, supi: str, record: dict, rand: bytes, snn_text: str
    ) -> HomeAuthVector:
        """Fig 5 step 2–3: round-trip to the eUDM P-AKA module."""
        av = self.call(self.offload_module, EUDM_GENERATE_AV, {
            "supi": supi, "opc": record["opc"], "rand": rand, "sqn": record["sqn"],
            "amfField": record["amfField"], "snn": snn_text,
        })
        return HomeAuthVector(av["rand"], av["autn"], av["xresStar"], av["kausf"])

    def _perform_resync(self, supi: str, resync_info: dict, context) -> None:
        """Verify AUTS (inside the eUDM enclave when offloaded) and reset
        the UDR's SQN to the recovered SQN_MS."""
        rand, auts = resync_info["rand"], resync_info["auts"]
        udr = self.peer(NFType.UDR)
        record = self.call(udr, UDR_AUTH_PEEK, {"supi": supi})
        opc = record["opc"]

        if self.offload_module is not None:
            sqn_ms = self.call(self.offload_module, EUDM_VERIFY_AUTS, {
                "supi": supi, "opc": opc, "rand": rand, "auts": auts,
            })["sqnMs"]
        else:
            context.runtime.compute(_AUTS_LOCAL_CYCLES)
            sqn_ms = verify_auts(record["k"], opc, rand, auts)
            if sqn_ms is None:
                raise JsonApiError(403, "AUTS verification failed")

        self.call(udr, UDR_AUTH_RESYNC, {"supi": supi, "sqnMs": sqn_ms})
