"""OTA feasibility testbed (Fig 11 / Table IV).

A USRP x310 software-defined radio runs the OAI gNB; a COTS OnePlus 8
(OpenCells SIM programmed to the test PLMN 00101) registers with the 5G
core *through the P-AKA modules*.  The reproduction keeps the parts of
the paper's account that shaped the result:

* the UE only detects the gNB when it broadcasts the test PLMN,
* the OnePlus 8 needed one specific OxygenOS build end-to-end,
* despite the HMEE overheads, registration and a data session succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.fivegc.messages import RegistrationOutcome
from repro.ran.gnb import AirLinkModel, Gnb
from repro.ran.ue import ONEPLUS_8_PROFILE, CommercialUE

if TYPE_CHECKING:  # avoid a circular import with repro.testbed
    from repro.testbed import Testbed


@dataclass(frozen=True)
class UsrpX310:
    """The SDR radio unit of Table IV."""

    frequency_ghz: float = 3.6192
    prbs: int = 106
    daughterboards: int = 2

    def validate(self) -> None:
        if not 0.4 <= self.frequency_ghz <= 6.0:
            raise ValueError(
                f"USRP x310 cannot serve {self.frequency_ghz} GHz (0.4–6 GHz)"
            )
        if self.prbs not in (24, 51, 106, 133, 162, 217, 273):
            raise ValueError(f"invalid NR PRB configuration: {self.prbs}")


# SDR-based gNBs schedule less tightly than production units; slightly
# higher per-message air latency than the gNBSIM model.
SDR_AIRLINK = AirLinkModel(base_ms=4.6, per_kb_ms=0.5, rrc_setup_ms=16.0)


@dataclass
class OtaResult:
    """One OTA attempt: detection, registration and data-session status."""

    detected: bool
    registration: Optional[RegistrationOutcome]
    data_session: bool

    @property
    def success(self) -> bool:
        return (
            self.detected
            and self.registration is not None
            and self.registration.success
            and self.data_session
        )


def table_iv_configuration(testbed: "Testbed", radio: UsrpX310) -> "list[dict]":
    """Table IV: the hardware and software configuration rows.

    Regenerated from the live objects rather than hard-coded, so the rows
    always reflect what actually ran.
    """
    host = testbed.host
    cpu = host.cpu.spec
    return [
        {"section": "Server", "key": "CPUs",
         "value": f"{len(host.cpus)} x {cpu.model}"},
        {"section": "Server", "key": "RAM / EPC",
         "value": f"{host.ram_bytes // 1024**3} GB DDR4 - "
                  f"{host.total_epc_bytes // 1024**3} GB EPC"},
        {"section": "Network", "key": "MCC / MNC",
         "value": f"{testbed.config.mcc} / {testbed.config.mnc}"},
        {"section": "Radio", "key": "Unit", "value": "USRP x310"},
        {"section": "Radio", "key": "PRBs", "value": str(radio.prbs)},
        {"section": "Radio", "key": "Frequency",
         "value": f"{radio.frequency_ghz} GHz"},
        {"section": "UE", "key": "Model", "value": ONEPLUS_8_PROFILE.model},
        {"section": "UE", "key": "OS",
         "value": f"{ONEPLUS_8_PROFILE.os_name} "
                  f"{ONEPLUS_8_PROFILE.required_os_version}"},
    ]


class OtaTestbed:
    """The Fig 11 setup: core server + USRP gNB + a commercial UE."""

    def __init__(
        self,
        testbed: "Testbed",
        radio: Optional[UsrpX310] = None,
        plmn: Optional[str] = None,
    ) -> None:
        self.testbed = testbed
        self.radio = radio or UsrpX310()
        self.radio.validate()
        broadcast_plmn = plmn or (testbed.config.mcc + testbed.config.mnc)
        self.gnb = Gnb(
            "oai-gnb-sdr",
            testbed.host,
            testbed.amf,
            plmn=broadcast_plmn,
            airlink=SDR_AIRLINK,
        )

    def run(self, ue: Optional[CommercialUE] = None) -> OtaResult:
        """Attempt the full OTA flow with a commercial UE."""
        if ue is None:
            candidate = self.testbed.add_subscriber(commercial=True)
            assert isinstance(candidate, CommercialUE)
            ue = candidate
        if not ue.can_detect_plmn(self.gnb.plmn):
            return OtaResult(detected=False, registration=None, data_session=False)
        outcome = self.gnb.register(ue, establish_session=True)
        data_session = bool(outcome.success and ue.ue_address)
        if data_session:
            # Exchange user-plane traffic through the UPF to confirm the
            # Test1-1 → OpenAirInterface connection of Fig 11(c).
            for _ in range(3):
                if not self.testbed.upf.forward_packet(ue.ue_address, 1200):
                    data_session = False
                    break
        return OtaResult(detected=True, registration=outcome, data_session=data_session)
