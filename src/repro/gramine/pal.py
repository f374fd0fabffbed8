"""Platform Adaptation Layer (pal-sgx).

The PAL is the *untrusted* loader that talks to the SGX driver to create
and initialize the enclave.  The paper's threat model explicitly marks it
untrusted: a malicious PAL can refuse to load an enclave (denial of
service, out of scope) but cannot forge a measurement — EINIT recomputes
MRENCLAVE in hardware, so tampering with the pages it loads changes the
measurement and attestation fails.  The simulator keeps that property:
the PAL *reports* what it loaded, and any inflation it applies is visible
in the resulting measurement.
"""

from __future__ import annotations

from repro.hw.host import PhysicalHost
from repro.sgx.aesm import AesmDaemon, LaunchDeniedError
from repro.sgx.enclave import Enclave, EnclaveBuildInfo
from repro.sgx.epc import EpcManager
from repro.sim.clock import TimeSpan


class PlatformAdaptationLayer:
    """Loads enclaves through the driver, gated by aesmd launch control."""

    def __init__(
        self,
        host: PhysicalHost,
        epc_manager: EpcManager,
        aesmd: AesmDaemon,
    ) -> None:
        self.host = host
        self.epc_manager = epc_manager
        self.aesmd = aesmd

    def load_enclave(self, build: EnclaveBuildInfo) -> "tuple[Enclave, TimeSpan]":
        """ECREATE → EADD/EEXTEND → launch token → EINIT.

        Raises :class:`LaunchDeniedError` if aesmd refuses the SIGSTRUCT
        (unsigned enclaves cannot launch outside debug mode).
        """
        if build.sigstruct is None and not build.debug:
            raise LaunchDeniedError(
                f"enclave {build.name!r} is unsigned and not in debug mode"
            )
        if build.sigstruct is not None:
            token = self.aesmd.request_launch_token(build.sigstruct)
            if not self.aesmd.validate_token(token):  # pragma: no cover - defensive
                raise LaunchDeniedError("launch token failed validation")
        enclave = Enclave(
            host=self.host, build=build, epc_manager=self.epc_manager
        )
        span = enclave.load()
        return enclave, span
