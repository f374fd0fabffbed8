"""aesmd — the Architectural Enclave Service Manager Daemon.

aesmd mediates enclave launch: the SGX driver will only EINIT an enclave
that holds a launch token from the Launch Enclave.  The paper lists aesmd
among the *trusted* entities of its threat model; we model it as the
gatekeeper that validates a SIGSTRUCT before issuing a token, rejecting
unsigned or tampered enclaves.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Optional, Set

from repro.sgx.errors import SgxError
from repro.sgx.measurement import SigStruct


class LaunchDeniedError(SgxError):
    """aesmd refused to issue a launch token."""


@dataclass(frozen=True)
class LaunchToken:
    """EINITTOKEN: proof that aesmd authorised this enclave launch."""

    mrenclave: bytes
    mrsigner: bytes
    mac: bytes


class AesmDaemon:
    """Per-host launch-control daemon.

    ``allowed_signers`` optionally restricts launches to a whitelist of
    MRSIGNER values (how an operator pins enclave vendors); empty means
    any *validly signed* enclave may launch.
    """

    def __init__(self, platform_id: str) -> None:
        self.platform_id = platform_id
        self._launch_key = hashlib.sha256(
            b"launch-key" + platform_id.encode()
        ).digest()
        self.allowed_signers: Set[bytes] = set()
        self.tokens_issued = 0

    def request_launch_token(
        self, sigstruct: Optional[SigStruct], signing_key: Optional[bytes] = None
    ) -> LaunchToken:
        """Validate the SIGSTRUCT and issue an EINITTOKEN.

        ``signing_key`` lets callers that know the vendor key request full
        signature verification; without it only structural checks and the
        signer whitelist apply (as with production launch control).
        """
        if sigstruct is None:
            raise LaunchDeniedError("enclave has no SIGSTRUCT; refusing launch")
        if signing_key is not None and not sigstruct.verify(signing_key):
            raise LaunchDeniedError("SIGSTRUCT signature invalid")
        if self.allowed_signers and sigstruct.mrsigner not in self.allowed_signers:
            raise LaunchDeniedError("enclave signer not in launch whitelist")
        self.tokens_issued += 1
        mac = hmac.new(
            self._launch_key,
            sigstruct.mrenclave + sigstruct.mrsigner,
            hashlib.sha256,
        ).digest()[:16]
        return LaunchToken(
            mrenclave=sigstruct.mrenclave, mrsigner=sigstruct.mrsigner, mac=mac
        )

    def validate_token(self, token: LaunchToken) -> bool:
        expected = hmac.new(
            self._launch_key, token.mrenclave + token.mrsigner, hashlib.sha256
        ).digest()[:16]
        return hmac.compare_digest(expected, token.mac)
