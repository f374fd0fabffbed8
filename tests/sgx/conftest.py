"""Fixtures for direct SGX-layer tests: small, fast enclaves."""

import pytest

from repro.hw.host import paper_testbed_host
from repro.sgx.enclave import Enclave, EnclaveBuildInfo
from repro.sgx.epc import EpcManager
from repro.sgx.measurement import EnclaveMeasurement, sign_enclave

SIGNING_KEY = b"vendor-signing-key-for-tests-0001"


def small_build(name="test-enclave", **overrides):
    """A small enclave build (fast to load)."""
    import hashlib

    defaults = dict(
        name=name,
        enclave_size_bytes=64 * 1024 * 1024,
        max_threads=4,
        measured_bytes=1 * 1024 * 1024,
        trusted_files_bytes=8 * 1024 * 1024,
        heap_bytes=48 * 1024 * 1024,
        preheat=False,
        debug=False,
        stats_enabled=True,
    )
    defaults.update(overrides)
    if "sigstruct" not in overrides:
        measurement = EnclaveMeasurement(
            mrenclave=hashlib.sha256(name.encode()).digest()
        )
        defaults["sigstruct"] = sign_enclave(measurement, SIGNING_KEY)
    return EnclaveBuildInfo(**defaults)


@pytest.fixture
def host():
    return paper_testbed_host(seed=77)


@pytest.fixture
def epc(host):
    return EpcManager(host.total_epc_bytes, host.cpu)


@pytest.fixture
def enclave(host, epc):
    e = Enclave(host, small_build(), epc)
    e.load()
    return e
