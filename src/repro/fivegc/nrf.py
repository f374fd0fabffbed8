"""NRF — Network Functions Repository Function.

Stores NF profiles and answers discovery queries (Nnrf_NFManagement /
Nnrf_NFDiscovery), orchestrating mutual discovery between the VNFs of the
slice exactly as in Fig 2.
"""

from __future__ import annotations

from typing import Dict, List

from repro.fivegc.nf_base import NetworkFunction
from repro.net.rest import JsonApiError
from repro.net.sbi import NFProfile, NFType, NRF_DISCOVER, NRF_REGISTER, serve


class Nrf(NetworkFunction):
    NF_TYPE = NFType.NRF

    def __init__(self, *args, **kwargs) -> None:
        self._registry: Dict[str, NFProfile] = {}
        super().__init__(*args, **kwargs)

    def _register_routes(self) -> None:
        serve(self.server, NRF_REGISTER, self._handle_register)
        serve(self.server, NRF_DISCOVER, self._handle_discover)

    # ------------------------------------------------------------ handlers

    def _handle_register(self, profile: NFProfile, context):
        context.runtime.compute(6_000)  # profile validation + store
        self._registry[profile.nf_instance_id] = profile
        return {"nfInstanceId": profile.nf_instance_id}

    def _handle_discover(self, data, context):
        target = data["targetNfType"]
        try:
            nf_type = NFType(target)
        except ValueError:
            raise JsonApiError(400, f"unknown NF type {target!r}")
        context.runtime.compute(4_000)  # registry scan
        # Canonical ordering: replicas come back sorted by instance id,
        # so every client builds the same ring regardless of the order
        # replicas registered (or re-registered after a restart) in.
        matches: List[dict] = [
            profile.to_dict()
            for profile in sorted(
                self._registry.values(), key=lambda p: p.nf_instance_id
            )
            if profile.nf_type is nf_type
        ]
        return {"nfInstances": matches}

    # --------------------------------------------------------- inspection

    def registered(self, nf_type: NFType) -> List[NFProfile]:
        return [p for p in self._registry.values() if p.nf_type is nf_type]
