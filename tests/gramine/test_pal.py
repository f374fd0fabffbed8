"""Platform Adaptation Layer: launch-control gating."""

import pytest

from repro.container.image import oai_base_image
from repro.gramine.gsc import build_gsc_image, sign_gsc_image
from repro.gramine.manifest import GramineManifest
from repro.gramine.pal import PlatformAdaptationLayer
from repro.hw.host import paper_testbed_host
from repro.sgx.aesm import AesmDaemon, LaunchDeniedError
from repro.sgx.epc import EpcManager


@pytest.fixture
def pal():
    host = paper_testbed_host(seed=21)
    epc = EpcManager(host.total_epc_bytes, host.cpu)
    return PlatformAdaptationLayer(host, epc, AesmDaemon("plat"))


def gsc_build(signed=True, debug=False):
    image, _ = oai_base_image("eudm-aka", bulk_mb=30)
    manifest = GramineManifest(
        entrypoint=image.entrypoint, enclave_size="512M", max_threads=4, debug=debug
    )
    gsc = build_gsc_image(image, manifest)
    if signed:
        gsc = sign_gsc_image(gsc, b"pal-test-key")
    return gsc.build_info


def test_signed_enclave_loads(pal):
    enclave, span = pal.load_enclave(gsc_build(signed=True))
    assert enclave.initialized
    assert span.seconds > 0
    assert pal.aesmd.tokens_issued == 1


def test_unsigned_production_enclave_denied(pal):
    with pytest.raises(LaunchDeniedError):
        pal.load_enclave(gsc_build(signed=False))


def test_unsigned_debug_enclave_allowed(pal):
    enclave, _ = pal.load_enclave(gsc_build(signed=False, debug=True))
    assert enclave.initialized
    assert enclave.build.debug


def test_signer_whitelist_blocks_unknown_vendor(pal):
    import hashlib

    pal.aesmd.allowed_signers.add(hashlib.sha256(b"approved-vendor").digest())
    with pytest.raises(LaunchDeniedError):
        pal.load_enclave(gsc_build(signed=True))
