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

from repro.aka import generate_he_av, verify_auts
from repro.crypto.suci import Suci, Supi, deconceal_suci
from repro.fivegc.nf_base import NetworkFunction
from repro.net.rest import JsonApiError, json_body, read_answer, require_int, require_str
from repro.net.sbi import (
    EUDM_GENERATE_AV,
    EUDM_VERIFY_AUTS,
    NFType,
    UDM_UE_AUTH_GET,
    UDR_AUTH_PEEK,
    UDR_AUTH_RESYNC,
    UDR_AUTH_SUBSCRIPTION,
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
        self._route_json("POST", UDM_UE_AUTH_GET, self._handle_generate_auth_data)

    def _handle_generate_auth_data(self, request, context):
        data = json_body(request)
        snn_text = require_str(data, "servingNetworkName")
        supi = self._resolve_identity(data, context)

        # Resynchronisation (TS 33.102 §6.3.5): the UE reported a stale
        # SQN with an AUTS token; verify it and reset the UDR counter
        # before generating the fresh vector.
        resync_info = data.get("resynchronizationInfo")
        if isinstance(resync_info, dict):
            self._perform_resync(supi, resync_info, context)

        # Fetch auth subscription data from the UDR (advances the SQN).
        udr = self.peer(NFType.UDR)
        udr_response = self.call(udr, "POST", UDR_AUTH_SUBSCRIPTION, {"supi": supi})
        if not udr_response.ok:
            raise JsonApiError(udr_response.status, "UDR rejected the subscriber")
        record = read_answer(udr_response, "UDR", k=16, opc=16, sqn=6, amfField=2)
        opc, sqn, amf_field = record["opc"], record["sqn"], record["amfField"]
        rand = self.host.rng.randbytes("udm.rand", 16)

        if self.offload_module is not None:
            av = self._generate_av_offloaded(
                supi=supi, opc=opc, rand=rand, sqn=sqn,
                amf_field=amf_field, snn_text=snn_text,
            )
        else:
            context.runtime.compute(_AV_LOCAL_CYCLES)
            he_av = generate_he_av(
                k=record["k"], opc=opc, rand=rand, sqn=sqn,
                snn=snn_text.encode(), amf_field=amf_field,
            )
            av = {
                "rand": he_av.rand.hex(),
                "autn": he_av.autn.hex(),
                "xresStar": he_av.xres_star.hex(),
                "kausf": he_av.kausf.hex(),
            }
        av["supi"] = supi
        return self._ok(av)

    # ------------------------------------------------------------ internals

    def _resolve_identity(self, data: dict, context) -> str:
        """SIDF: map the request's SUCI (or SUPI) to a SUPI."""
        if "supi" in data:
            return require_str(data, "supi")
        suci_text = data.get("suci")
        if not isinstance(suci_text, dict):
            raise JsonApiError(400, "request needs a supi or a suci object")
        try:
            suci = Suci(
                mcc=str(suci_text["mcc"]),
                mnc=str(suci_text["mnc"]),
                protection_scheme=int(suci_text["scheme"]),
                home_network_key_id=int(suci_text.get("keyId", 1)),
                scheme_output=bytes.fromhex(str(suci_text["schemeOutput"])),
            )
        except (KeyError, ValueError) as exc:
            raise JsonApiError(400, f"malformed SUCI: {exc}")
        context.runtime.compute(_SIDF_DECONCEAL_CYCLES)
        try:
            supi = deconceal_suci(suci, self.hn_private_key)
        except ValueError as exc:
            raise JsonApiError(403, f"SUCI de-concealment failed: {exc}")
        return str(supi)

    def _generate_av_offloaded(
        self,
        supi: str,
        opc: bytes,
        rand: bytes,
        sqn: bytes,
        amf_field: bytes,
        snn_text: str,
    ) -> dict:
        """Fig 5 step 2–3: round-trip to the eUDM P-AKA module."""
        module = self.offload_module
        assert module is not None
        payload = {
            "supi": supi,
            "opc": opc.hex(),
            "rand": rand.hex(),
            "sqn": sqn.hex(),
            "amfField": amf_field.hex(),
            "snn": snn_text,
        }
        response = self.call_server(module.server, "POST", EUDM_GENERATE_AV, payload)
        if not response.ok:
            raise JsonApiError(502, f"eUDM module error: {response.status}")
        # Forwarded as it came: the AUSF checks the vector's fields.
        return read_answer(response, "eUDM")

    def _perform_resync(self, supi: str, resync_info: dict, context) -> None:
        """Verify AUTS (inside the eUDM enclave when offloaded) and reset
        the UDR's SQN to the recovered SQN_MS."""
        try:
            rand = bytes.fromhex(str(resync_info["rand"]))
            auts = bytes.fromhex(str(resync_info["auts"]))
        except (KeyError, ValueError):
            raise JsonApiError(400, "malformed resynchronizationInfo")
        if len(rand) != 16 or len(auts) != 14:
            raise JsonApiError(400, "resynchronizationInfo has bad sizes")

        udr = self.peer(NFType.UDR)
        peek = self.call(udr, "POST", UDR_AUTH_PEEK, {"supi": supi})
        if not peek.ok:
            raise JsonApiError(peek.status, "UDR rejected the subscriber")
        record = read_answer(peek, "UDR", k=16, opc=16)
        opc = record["opc"]

        if self.offload_module is not None:
            response = self.call_server(
                self.offload_module.server, "POST", EUDM_VERIFY_AUTS,
                {"supi": supi, "opc": opc.hex(), "rand": rand.hex(),
                 "auts": auts.hex()},
            )
            if response.status == 403:
                raise JsonApiError(403, "AUTS verification failed")
            if not response.ok:
                raise JsonApiError(502, f"eUDM module error: {response.status}")
            sqn_ms = read_answer(response, "eUDM", sqnMs=require_int)["sqnMs"]
        else:
            context.runtime.compute(_AUTS_LOCAL_CYCLES)
            recovered = verify_auts(record["k"], opc, rand, auts)
            if recovered is None:
                raise JsonApiError(403, "AUTS verification failed")
            sqn_ms = recovered

        resync = self.call(
            udr, "POST", UDR_AUTH_RESYNC, {"supi": supi, "sqnMs": sqn_ms}
        )
        if not resync.ok:
            raise JsonApiError(resync.status, "UDR resync failed")
