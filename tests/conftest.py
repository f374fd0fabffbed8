"""Shared fixtures.

Testbed builds are the expensive part of the suite (a full SGX slice
deploy models ~1 minute of simulated work and a fair amount of real
bookkeeping), so the session-scoped fixtures below share warmed testbeds
across read-only tests.  Tests that mutate global state (register UEs and
assert on counters) build their own.
"""

from __future__ import annotations

import pytest

from repro.hw.host import paper_testbed_host
from repro.paka.deploy import IsolationMode
from repro.testbed import Testbed, TestbedConfig


@pytest.fixture
def host():
    """A fresh paper-spec host."""
    return paper_testbed_host(seed=1234)


@pytest.fixture
def container_testbed():
    """A fresh container-isolation testbed (function scope: mutable)."""
    return Testbed.build(TestbedConfig(isolation=IsolationMode.CONTAINER, seed=11))


@pytest.fixture
def sgx_testbed():
    """A fresh SGX-isolation testbed (function scope: mutable)."""
    return Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=12))


@pytest.fixture(scope="session")
def shared_sgx_testbed():
    """A warmed SGX testbed shared by read-only tests."""
    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=99))
    for _ in range(2):
        ue = testbed.add_subscriber()
        outcome = testbed.register(ue, establish_session=False)
        assert outcome.success
    return testbed
