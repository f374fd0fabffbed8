"""The three P-AKA module servers.

Each module is a single-threaded HTTPS endpoint server (the paper's
Pistache/OpenSSL C++17 services) written once against the runtime
abstraction, so the identical code serves as the *container* baseline
(NativeRuntime) and as the *P-AKA* deployment (GramineEnclaveRuntime).

Cost calibration: the ``COMPUTE_CYCLES`` constants set the container
functional latency L_F (endpoint handler: request decode, the AKA crypto
chain, response assembly) and ``COLD_PAGES`` the per-request working set
whose EPC refill constitutes the module-specific SGX L_F overhead —
chosen so the reproduction lands in Table II's 1.2–1.5× L_F band with the
paper's ordering (eUDM slowest in absolute terms, eAMF with the highest
relative overhead).
"""

from __future__ import annotations

from repro.container.network import BridgeNetwork
from repro.aka import HomeAuthVector, derive_se_av, generate_he_av
from repro.crypto.kdf import derive_kamf
from repro.net.http import HttpServer, ServerSyscallProfile
from repro.net.rest import JsonApiError
from repro.net.sbi import (
    EAMF_DERIVE_KAMF,
    EAUSF_DERIVE_SE_AV,
    EUDM_GENERATE_AV,
    EUDM_VERIFY_AUTS,
    serve,
)
from repro.runtime.base import Runtime


class PakaModule:
    """Base of the three module servers."""

    # Handler compute in cycles: container-side functional latency L_F.
    COMPUTE_CYCLES: float
    # Per-request cold EPC pages touched (SGX-specific L_F component).
    COLD_PAGES: int
    # Out-of-window reactor chatter; total per-request syscalls ≈ 90.
    REACTOR_CHATTER: int = 80

    def __init__(
        self,
        name: str,
        runtime: Runtime,
        network: BridgeNetwork,
        profile: "ServerSyscallProfile | None" = None,
    ) -> None:
        self.name = name
        self.runtime = runtime
        self._fn_stream = f"{name}.fn"  # jitter stream, drawn per request
        self.server = HttpServer(
            name=name,
            runtime=runtime,
            network=network,
            profile=profile
            or ServerSyscallProfile.pistache_like(self.REACTOR_CHATTER),
        )
        self._register_routes()

    def start(self) -> None:
        self.server.start()

    def _register_routes(self) -> None:
        raise NotImplementedError

    def _charge_function(self, context) -> None:
        """Charge the module's AKA-function execution cost.

        A small gaussian jitter models run-to-run variation (branchy JSON
        decode, allocator state, cache residency) — the box heights of
        Figs 8–9.
        """
        runtime = context.runtime
        cycles = runtime.host.rng.jitter(self._fn_stream, self.COMPUTE_CYCLES, 0.035)
        runtime.compute(cycles)
        runtime.touch_pages(cold=self.COLD_PAGES)


class EudmPakaModule(PakaModule):
    """eUDM-AKA: HE AV generation (Table I row 1).

    Subscriber keys K are provisioned into the module (sealed in enclave
    memory when shielded) and indexed by SUPI; per-request inputs are the
    Table I parameters OPc, RAND, SQN and the AMF field.
    """

    COMPUTE_CYCLES = 96_000  # MILENAGE f1–f5 + KDFs + vector assembly
    COLD_PAGES = 16

    def _register_routes(self) -> None:
        serve(self.server, EUDM_GENERATE_AV, self._handle_generate_av)
        serve(self.server, EUDM_VERIFY_AUTS, self._handle_verify_auts)

    def provision_direct(self, supi: str, k: bytes) -> None:
        """Operator provisioning over the local attested channel.

        Subscriber keys are pushed into the module at slice setup (sealed
        into enclave memory when shielded) without traversing the HTTP
        path, so the module's first HTTP request is the first *AKA*
        request — the regime Fig 10(b)'s initial-response metric assumes.
        """
        if len(k) != 16:
            raise ValueError(f"K must be 16 bytes, got {len(k)}")
        self.runtime.compute(9_000)
        self.runtime.store_secret(f"k:{supi}", k)

    def _handle_generate_av(self, data, context):
        supi = data["supi"]
        try:
            k = context.runtime.load_secret(f"k:{supi}")
        except KeyError:
            raise JsonApiError(404, f"no key provisioned for {supi!r}")

        self._charge_function(context)
        he_av = generate_he_av(k=k, opc=data["opc"], rand=data["rand"], sqn=data["sqn"],
                               snn=data["snn"].encode(), amf_field=data["amfField"])
        # The freshly derived K_AUSF also lives in module memory until the
        # response is consumed — part of what isolation protects.
        context.runtime.store_secret("last_kausf", he_av.kausf)
        return {"rand": he_av.rand, "autn": he_av.autn, "xresStar": he_av.xres_star,
                "kausf": he_av.kausf}

    def _handle_verify_auts(self, data, context):
        """Resynchronisation: verify the UE's AUTS token and recover SQN_MS.

        AUTS verification runs f1*/f5* under the subscriber key K, so it
        is exactly as sensitive as AV generation and belongs inside the
        enclave (an extension beyond the paper's Table I, consistent with
        its isolation rationale).
        """
        from repro.aka import verify_auts

        supi = data["supi"]
        try:
            k = context.runtime.load_secret(f"k:{supi}")
        except KeyError:
            raise JsonApiError(404, f"no key provisioned for {supi!r}")
        # f2345 (for AK*) + f1* — comparable weight to AV generation.
        context.runtime.compute(78_000)
        context.runtime.touch_pages(cold=self.COLD_PAGES)
        sqn_ms = verify_auts(k, data["opc"], data["rand"], data["auts"])
        if sqn_ms is None:
            raise JsonApiError(403, "AUTS verification failed")
        return {"sqnMs": sqn_ms}


class EausfPakaModule(PakaModule):
    """eAUSF-AKA: SE AV derivation — HXRES* and K_SEAF (Table I row 2)."""

    COMPUTE_CYCLES = 81_000  # SHA-256 + two KDF invocations + assembly
    COLD_PAGES = 21

    def _register_routes(self) -> None:
        serve(self.server, EAUSF_DERIVE_SE_AV, self._handle_derive)

    def _handle_derive(self, data, context):
        self._charge_function(context)
        he_av = HomeAuthVector(
            rand=data["rand"], autn=data["autn"], xres_star=data["xresStar"],
            kausf=data["kausf"],
        )
        se_av, kseaf = derive_se_av(he_av, data["snn"].encode())
        context.runtime.store_secret("last_kseaf", kseaf)
        return {"hxresStar": se_av.hxres_star, "kseaf": kseaf}


class EamfPakaModule(PakaModule):
    """eAMF-AKA: K_AMF derivation from K_SEAF (Table I row 3)."""

    COMPUTE_CYCLES = 66_000  # one KDF + NAS-key scheduling
    COLD_PAGES = 35

    def _register_routes(self) -> None:
        serve(self.server, EAMF_DERIVE_KAMF, self._handle_derive)

    def _handle_derive(self, data, context):
        self._charge_function(context)
        kamf = derive_kamf(data["kseaf"], data["supi"], data["abba"])
        context.runtime.store_secret("last_kamf", kamf)
        return {"kamf": kamf}
