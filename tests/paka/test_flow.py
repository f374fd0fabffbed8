"""Fig 5 flow conformance."""

import pytest

from repro.paka.deploy import IsolationMode
from repro.paka.flow import _role_of, format_flow, record_registration_flow, verify_figure5
from repro.testbed import Testbed, TestbedConfig


@pytest.mark.parametrize("isolation", [IsolationMode.CONTAINER, IsolationMode.SGX])
def test_offloaded_flow_matches_figure5(isolation):
    testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=181))
    verdict = verify_figure5(testbed)
    assert verdict.conforms, verdict.violations
    assert {_role_of(x.dst, testbed) for x in verdict.observed} >= {"eudm", "eausf", "eamf"}


def test_flow_is_stable_across_registrations(sgx_testbed):
    first = verify_figure5(sgx_testbed)
    second = verify_figure5(sgx_testbed)
    assert first.conforms and second.conforms
    # Steady state has the same shape every time.
    assert [x.path for x in first.observed] == [x.path for x in second.observed]


def test_monolithic_flow_has_no_module_exchanges():
    testbed = Testbed.build(TestbedConfig(isolation=None, seed=182))
    observed = record_registration_flow(testbed)
    paths = [x.path for x in observed]
    assert not any("paka" in path for path in paths)
    verdict = verify_figure5(testbed)
    assert not verdict.conforms  # the offload exchanges are missing


def test_format_flow_renders_ladder(sgx_testbed):
    verdict = verify_figure5(sgx_testbed)
    text = format_flow(verdict.observed, sgx_testbed)
    assert "udm    -> eudm" in text.replace("  ", " ").replace("  ", " ") or "udm -> eudm" in " ".join(text.split())
    assert "/eamf-paka/v1/derive-kamf" in text
