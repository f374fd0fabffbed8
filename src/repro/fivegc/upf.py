"""UPF — User Plane Function.

The data-session anchor.  The control-plane experiments only exercise its
N4 interface (session programming from the SMF); a minimal data-path
forwarding counter exists so examples can show user-plane traffic after
registration.
"""

from __future__ import annotations

from typing import Dict

from repro.fivegc.nf_base import NetworkFunction
from repro.net.sbi import NFType, UPF_N4_SESSION, serve

_N4_PROGRAM_CYCLES = 30_000  # PDR/FAR install


class Upf(NetworkFunction):
    NF_TYPE = NFType.UPF

    def __init__(self, *args, **kwargs) -> None:
        self._forwarding: Dict[str, str] = {}
        self.packets_forwarded = 0
        super().__init__(*args, **kwargs)

    def _register_routes(self) -> None:
        serve(self.server, UPF_N4_SESSION, self._handle_n4)

    def _handle_n4(self, data, context):
        ue_address = data["ueAddress"]
        context.runtime.compute(_N4_PROGRAM_CYCLES)
        self._forwarding[ue_address] = data["dnn"]
        return {"installed": ue_address}

    # ------------------------------------------------------------ data path

    def forward_packet(self, ue_address: str, nbytes: int) -> bool:
        """Forward one uplink packet if a session exists for the address."""
        if ue_address not in self._forwarding:
            return False
        self.runtime.compute(2_200 + 0.3 * nbytes)
        self.packets_forwarded += 1
        return True

    def session_count(self) -> int:
        return len(self._forwarding)
