"""Module crash and recovery: the slice heals by redeploying."""

import pytest

from repro.paka.deploy import IsolationMode
from repro.testbed import Testbed, TestbedConfig


@pytest.fixture
def testbed():
    return Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=171))


def crash_eudm(testbed):
    """Power-event equivalent: the enclave is lost with its memory."""
    module = testbed.paka.module("eudm")
    module.server.stop()
    module.runtime.shutdown()


def test_crash_loses_enclave_state(testbed):
    ue = testbed.add_subscriber()
    assert testbed.register(ue, establish_session=False).success
    crash_eudm(testbed)
    enclave = testbed.paka.enclaves["eudm"]
    assert enclave.destroyed
    assert enclave._secrets == {}  # nothing survives an enclave loss


def test_registrations_fail_while_down(testbed):
    ue = testbed.add_subscriber()
    crash_eudm(testbed)
    with pytest.raises(Exception):
        testbed.register(testbed.add_subscriber(), establish_session=False)


def test_redeploy_and_reprovision_restores_service(testbed):
    ue_before = testbed.add_subscriber()
    assert testbed.register(ue_before, establish_session=False).success
    crash_eudm(testbed)

    # Redeploy a fresh eUDM module and re-attach it to the UDM.
    replacement_slice = testbed.deployment.deploy(
        IsolationMode.SGX, module_names=["eudm"]
    )
    replacement = replacement_slice.module("eudm")
    testbed.udm.offload_module = replacement
    testbed.paka.modules["eudm"] = replacement
    testbed.paka.enclaves["eudm"] = replacement_slice.enclaves["eudm"]

    # Enclave memory did not survive: keys must be provisioned again.
    for supi in (str(ue_before.usim.supi),):
        record = testbed.udr.subscriber(supi)
        testbed.paka.modules["eudm"].provision_direct(supi, record.k)

    ue_after = testbed.add_subscriber()
    outcome = testbed.register(ue_after, establish_session=False)
    assert outcome.success

    # The pre-crash subscriber can also authenticate again.
    outcome = testbed.register(ue_before, establish_session=False)
    assert outcome.success


def test_recovery_cost_is_the_enclave_load(testbed):
    """Redeployment pays the Fig 7 load (~1 simulated minute)."""
    crash_eudm(testbed)
    t0 = testbed.host.clock.now_ns
    replacement = testbed.deployment.deploy(IsolationMode.SGX, module_names=["eudm"])
    elapsed_s = (testbed.host.clock.now_ns - t0) / 1e9
    assert 45 < elapsed_s < 80
    assert replacement.load_spans["eudm"].seconds > 40
