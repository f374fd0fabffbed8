"""aesmd launch control."""

import pytest

from repro.sgx.aesm import AesmDaemon, LaunchDeniedError
from repro.sgx.measurement import EnclaveMeasurement, sign_enclave

import hashlib

KEY = b"vendor-key-aesm-tests"


def make_sigstruct(name=b"enclave"):
    return sign_enclave(
        EnclaveMeasurement(mrenclave=hashlib.sha256(name).digest()), KEY
    )


def test_token_issued_for_signed_enclave():
    daemon = AesmDaemon("plat")
    token = daemon.request_launch_token(make_sigstruct())
    assert daemon.validate_token(token)
    assert daemon.tokens_issued == 1


def test_unsigned_enclave_denied():
    daemon = AesmDaemon("plat")
    with pytest.raises(LaunchDeniedError):
        daemon.request_launch_token(None)


def test_invalid_signature_denied_with_key_check():
    daemon = AesmDaemon("plat")
    sig = make_sigstruct()
    with pytest.raises(LaunchDeniedError):
        daemon.request_launch_token(sig, signing_key=b"wrong-key")


def test_signer_whitelist_enforced():
    daemon = AesmDaemon("plat")
    sig = make_sigstruct()
    daemon.allowed_signers.add(hashlib.sha256(b"someone-else").digest())
    with pytest.raises(LaunchDeniedError):
        daemon.request_launch_token(sig)
    daemon.allowed_signers.add(sig.mrsigner)
    assert daemon.request_launch_token(sig)


def test_token_from_other_platform_invalid():
    token = AesmDaemon("plat-a").request_launch_token(make_sigstruct())
    assert not AesmDaemon("plat-b").validate_token(token)


def test_forged_token_invalid():
    from repro.sgx.aesm import LaunchToken

    daemon = AesmDaemon("plat")
    forged = LaunchToken(mrenclave=bytes(32), mrsigner=bytes(32), mac=bytes(16))
    assert not daemon.validate_token(forged)
