"""User Equipment: NAS state machine + commercial-device profile.

A :class:`UserEquipment` starts registration under a SUCI, answers the
AKA challenge through its USIM, derives the NAS security context and
completes registration.  The SUCI's ephemeral key is drawn when the
request is built; the SUPI is concealed under it when the core first
reads the SUCI (the gNB sizing the uplink, or the AMF once it has
admitted the request), so a request shed at the AMF's front door is
never concealed.  :class:`CommercialUE` layers the paper's OTA realities
on top (§V-B6): a COTS phone only *detects* the lab gNB when the broadcast
PLMN is the test network 00101, and the OnePlus 8 needed one specific
Oxygen OS build for a successful end-to-end connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Dict, Optional

from repro.crypto.cmac import nia2_mac
from repro.crypto.kdf import derive_kamf, derive_nas_keys
from repro.crypto.suci import DeferredSuci
from repro.fivegc.nas_security import (
    UPLINK,
    NasSecurityError,
    ProtectedNasPdu,
    SecureNasChannel,
)
from repro.fivegc.messages import (
    AuthenticationFailure,
    AuthenticationReject,
    AuthenticationRequest,
    AuthenticationResponse,
    DeregistrationAccept,
    DeregistrationRequest,
    NasMessage,
    PduSessionEstablishmentAccept,
    PduSessionEstablishmentRequest,
    RegistrationAccept,
    RegistrationComplete,
    RegistrationRequest,
    SecurityModeCommand,
    SecurityModeComplete,
)
from repro.ran.usim import Usim
from repro.sim.rng import RngService, draw_bytes

_ABBA = b"\x00\x00"


class UeError(Exception):
    """NAS protocol violation observed by the UE."""


class UserEquipment:
    """A 5G UE with a programmed USIM."""

    def __init__(
        self,
        name: str,
        usim: Usim,
        hn_public_key: bytes,
        rng: RngService,
        snn: str,
    ) -> None:
        self.name = name
        self.usim = usim
        self.hn_public_key = hn_public_key
        self.rng = rng
        self.snn = snn
        self.registered = False
        self.guti: Optional[str] = None
        self.kamf: Optional[bytes] = None
        self.k_nas_int: Optional[bytes] = None
        self.k_nas_enc: Optional[bytes] = None
        self.ue_address: Optional[str] = None
        self.uplink_count = 0
        self.downlink_count = 0
        self.failure_cause: Optional[str] = None
        self.secure_channel: Optional[SecureNasChannel] = None
        # ECIES ephemerals come from a stream this UE owns (created on the
        # first SUCI, continued by every later one, gone with the UE).
        self._ecies_stream: Optional[Random] = None

    # ------------------------------------------------------------- uplink

    def build_registration_request(self) -> RegistrationRequest:
        """Start registration under a fresh SUCI.

        The ephemeral key is drawn here, so this UE's ECIES stream moves
        on every request; the SUPI is concealed when the core first reads
        the SUCI (:class:`~repro.crypto.suci.DeferredSuci`): a gNB sizing
        the uplink, or an AMF that admitted the request.  A request the
        AMF sheds at its front door is never concealed."""
        self._reset_nas_state()
        if self._ecies_stream is None:
            self._ecies_stream = self.rng.fresh_stream(f"ue.{self.name}.ecies")
        eph = draw_bytes(self._ecies_stream, 32)
        return RegistrationRequest(
            suci=DeferredSuci(self.usim.supi, self.hn_public_key, eph)
        )

    def build_guti_registration_request(self) -> RegistrationRequest:
        """Re-register with the previously issued temporary identity —
        the SUCI/SIDF round is skipped, but authentication runs afresh."""
        if self.guti is None:
            raise UeError(f"{self.name}: no GUTI held; initial registration first")
        guti = self.guti
        self._reset_nas_state()
        return RegistrationRequest(guti=guti)

    def _reset_nas_state(self) -> None:
        """A new registration starts a fresh NAS security context."""
        self.registered = False
        self.guti = None
        self.kamf = None
        self.k_nas_int = None
        self.k_nas_enc = None
        self.ue_address = None
        self.uplink_count = 0
        self.downlink_count = 0
        self.failure_cause = None
        self.secure_channel = None
        if hasattr(self, "_kseaf"):
            del self._kseaf

    def handle_nas(self, message: NasMessage) -> Optional[NasMessage]:
        """Process one downlink NAS message; return the uplink reply."""
        if isinstance(message, ProtectedNasPdu):
            return self._on_protected_pdu(message)
        if isinstance(message, AuthenticationRequest):
            return self._on_authentication_request(message)
        if isinstance(message, SecurityModeCommand):
            return self._on_security_mode_command(message)
        if isinstance(message, RegistrationAccept):
            return self._on_registration_accept(message)
        if isinstance(message, AuthenticationReject):
            self.failure_cause = message.cause
            return None
        if isinstance(message, PduSessionEstablishmentAccept):
            self.ue_address = message.ue_address
            return None
        if isinstance(message, DeregistrationAccept):
            return self._on_deregistration_accept(message)
        raise UeError(f"{self.name}: unexpected downlink NAS {message.kind}")

    # -------------------------------------------------------------- steps

    def _on_authentication_request(
        self, message: AuthenticationRequest
    ) -> NasMessage:
        result = self.usim.authenticate(
            message.rand, message.autn, self.snn.encode()
        )
        if not result.success:
            self.failure_cause = result.cause
            return AuthenticationFailure(cause=result.cause or "", auts=result.auts)
        assert result.res_star is not None and result.kseaf is not None
        self._kseaf = result.kseaf
        return AuthenticationResponse(res_star=result.res_star)

    def _on_security_mode_command(self, message: SecurityModeCommand) -> NasMessage:
        kseaf = getattr(self, "_kseaf", None)
        if kseaf is None:
            raise UeError(f"{self.name}: SMC before authentication")
        self.kamf = derive_kamf(kseaf, str(self.usim.supi), _ABBA)
        self.k_nas_enc, self.k_nas_int = derive_nas_keys(self.kamf)
        expected = nia2_mac(
            self.k_nas_int, self.downlink_count, 1, 1, b"SecurityModeCommand"
        )
        self.downlink_count += 1
        if message.mac != expected:
            self.failure_cause = "SMC MAC invalid"
            return AuthenticationFailure(cause="SMC MAC invalid")
        mac = nia2_mac(
            self.k_nas_int, self.uplink_count, 1, 0, b"SecurityModeComplete"
        )
        self.uplink_count += 1
        return SecurityModeComplete(mac=mac)

    def _on_registration_accept(self, message: RegistrationAccept) -> Optional[NasMessage]:
        if self.k_nas_int is None:
            raise UeError(f"{self.name}: Registration Accept before SMC")
        if message.mac == b"":
            # Acknowledgement marker after Registration Complete.
            return None
        expected = nia2_mac(
            self.k_nas_int,
            self.downlink_count,
            1,
            1,
            b"RegistrationAccept" + message.guti.encode(),
        )
        self.downlink_count += 1
        if message.mac != expected:
            self.failure_cause = "Registration Accept MAC invalid"
            return AuthenticationFailure(cause="Registration Accept MAC invalid")
        self.guti = message.guti
        self.registered = True
        self.secure_channel = SecureNasChannel(
            self.k_nas_enc, self.k_nas_int, bearer=2, send_direction=UPLINK
        )
        mac = nia2_mac(
            self.k_nas_int, self.uplink_count, 1, 0, b"RegistrationComplete"
        )
        self.uplink_count += 1
        return RegistrationComplete(mac=mac)

    def build_pdu_session_request(self) -> ProtectedNasPdu:
        """PDU session requests travel ciphered once NAS security is up."""
        if not self.registered or self.secure_channel is None:
            raise UeError(f"{self.name}: cannot request PDU session before registering")
        return self.secure_channel.protect(
            PduSessionEstablishmentRequest(session_id=1, dnn="internet")
        )

    def build_deregistration_request(self) -> DeregistrationRequest:
        """Leave the network gracefully (integrity-protected)."""
        if not self.registered or self.k_nas_int is None:
            raise UeError(f"{self.name}: not registered")
        mac = nia2_mac(
            self.k_nas_int, self.uplink_count, 1, 0, b"DeregistrationRequest"
        )
        self.uplink_count += 1
        return DeregistrationRequest(mac=mac)

    def _on_deregistration_accept(self, message: DeregistrationAccept) -> None:
        if self.k_nas_int is None:
            raise UeError(f"{self.name}: DeregistrationAccept without context")
        expected = nia2_mac(
            self.k_nas_int, self.downlink_count, 1, 1, b"DeregistrationAccept"
        )
        self.downlink_count += 1
        if message.mac != expected:
            self.failure_cause = "Deregistration Accept MAC invalid"
            return None
        self._reset_nas_state()
        return None

    def _on_protected_pdu(self, pdu: ProtectedNasPdu) -> Optional[NasMessage]:
        if self.secure_channel is None:
            raise UeError(f"{self.name}: ciphered NAS before security activation")
        try:
            inner = self.secure_channel.unprotect(pdu)
        except NasSecurityError as error:
            self.failure_cause = f"NAS security failure: {error}"
            return None
        return self.handle_nas(inner)


@dataclass(frozen=True)
class CommercialUeProfile:
    """Behavioural quirks of a specific COTS device (Table IV)."""

    model: str
    os_name: str
    required_os_version: str
    detectable_plmns: "tuple[str, ...]" = ("00101",)


ONEPLUS_8_PROFILE = CommercialUeProfile(
    model="OnePlus 8",
    os_name="Android 11 / OxygenOS",
    required_os_version="11.0.11.11.IN21DA",
    detectable_plmns=("00101",),
)


class CommercialUE(UserEquipment):
    """A COTS phone: PLMN detection + OS-version compatibility gates.

    The paper observed that (a) with custom mobile country/network codes
    the device would not detect the OAI gNB at all, and (b) end-to-end
    connection required one specific OxygenOS build.
    """

    def __init__(
        self,
        *args,
        profile: CommercialUeProfile = ONEPLUS_8_PROFILE,
        os_version: str = ONEPLUS_8_PROFILE.required_os_version,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.profile = profile
        self.os_version = os_version

    def can_detect_plmn(self, plmn: str) -> bool:
        """Cell search: only test PLMNs are detected on a lab gNB."""
        return plmn in self.profile.detectable_plmns

    @property
    def os_compatible(self) -> bool:
        return self.os_version == self.profile.required_os_version
