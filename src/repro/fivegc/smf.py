"""SMF — Session Management Function.

Anchors PDU session establishment: allocates the UE address, selects a
UPF and programs its N4 forwarding state.  Kept at the fidelity the
end-to-end session-setup experiment needs (the paper measures total setup
delay; SMF/UPF contribute baseline latency, not AKA overhead).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.fivegc.nf_base import NetworkFunction
from repro.net.sbi import NFType, SMF_PDU_SESSION, UPF_N4_SESSION, serve

_SESSION_SETUP_CYCLES = 55_000  # SM context + IP allocation + PCC rules


class Smf(NetworkFunction):
    NF_TYPE = NFType.SMF

    def __init__(self, *args, **kwargs) -> None:
        self._sessions: Dict[str, dict] = {}
        self._next_ip = 1
        super().__init__(*args, **kwargs)

    def _register_routes(self) -> None:
        serve(self.server, SMF_PDU_SESSION, self._handle_create)

    def _handle_create(self, data, context):
        dnn = data["dnn"]
        context.runtime.compute(_SESSION_SETUP_CYCLES)

        self._next_ip += 1
        ue_address = f"10.0.{self._next_ip // 256}.{self._next_ip % 256}"
        key = f"{data['supi']}/{data['sessionId']}"
        upf = self._peers.get(NFType.UPF)
        if upf is not None:
            # N4 session establishment towards the UPF.
            self.call(upf, UPF_N4_SESSION, {"ueAddress": ue_address, "dnn": dnn})
        self._sessions[key] = {"ueAddress": ue_address, "dnn": dnn}
        return {"ueAddress": ue_address, "qosFlow": "5qi-9", "sessionKey": key}

    def session_count(self) -> int:
        return len(self._sessions)
