"""Testbed assembly and workload generators."""

import pytest

from repro.paka.deploy import IsolationMode
from repro.ran.gnbsim import GnbSim
from repro.testbed import Testbed, TestbedConfig


def test_build_wires_all_nfs():
    testbed = Testbed.build(TestbedConfig(isolation=None, seed=81))
    from repro.net.sbi import NFType

    assert testbed.udm.peer(NFType.UDR) is testbed.udr
    assert testbed.ausf.peer(NFType.UDM) is testbed.udm
    assert testbed.amf.peer(NFType.AUSF) is testbed.ausf
    assert testbed.amf.peer(NFType.SMF) is testbed.smf
    assert testbed.smf.peer(NFType.UPF) is testbed.upf


def test_subscriber_auto_msin_is_sequential():
    testbed = Testbed.build(TestbedConfig(isolation=None, seed=82))
    a = testbed.add_subscriber()
    b = testbed.add_subscriber()
    assert a.usim.supi.msin == "0000000001"
    assert b.usim.supi.msin == "0000000002"


def test_subscriber_keys_are_unique_per_msin():
    testbed = Testbed.build(TestbedConfig(isolation=None, seed=83))
    a = testbed.add_subscriber()
    b = testbed.add_subscriber()
    assert a.usim._k != b.usim._k


def test_sgx_testbed_provisions_module_keys():
    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=84))
    ue = testbed.add_subscriber()
    eudm = testbed.paka.module("eudm")
    assert eudm.runtime.load_secret(f"k:{ue.usim.supi}") == ue.usim._k


def test_custom_plmn_config():
    testbed = Testbed.build(
        TestbedConfig(isolation=None, seed=85, mcc="901", mnc="70")
    )
    assert testbed.snn == "5G:mnc070.mcc901.3gppnetwork.org"
    ue = testbed.add_subscriber()
    assert ue.usim.supi.mcc == "901"
    assert testbed.register(ue, establish_session=False).success


def test_idle_books_aex_on_all_modules():
    testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=86))
    before = {
        name: module.runtime.sgx_stats.aexs
        for name, module in testbed.paka.modules.items()
    }
    t0 = testbed.host.clock.now_ns
    testbed.idle(10.0)
    assert testbed.host.clock.now_ns - t0 == 10_000_000_000
    for name, module in testbed.paka.modules.items():
        assert module.runtime.sgx_stats.aexs > before[name]


def test_module_servers_accessor():
    sgx = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=87))
    assert set(sgx.module_servers()) == {"eudm", "eausf", "eamf"}
    mono = Testbed.build(TestbedConfig(isolation=None, seed=88))
    assert mono.module_servers() == {}


class TestWorkloads:
    def test_registration_workload(self):
        testbed = Testbed.build(TestbedConfig(isolation=None, seed=89))
        report = GnbSim(testbed).register_ues(3)
        assert report.successes == 3

    def test_steady_state_helper(self):
        testbed = Testbed.build(
            TestbedConfig(isolation=IsolationMode.CONTAINER, seed=90)
        )
        sim = GnbSim(testbed)
        sim.warm_up(2)
        assert sim.register_ues(3).successes == 3
        assert testbed.gnb.registrations_succeeded == 5  # 2 warmups + 3

    def test_burst_then_idle(self):
        testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=91))
        sim = GnbSim(testbed)
        reports = []
        for _ in range(2):
            reports.append(sim.register_ues(2))
            testbed.idle(5.0)
        assert all(r.successes == 2 for r in reports)
        # Idle windows drove AEX accumulation.
        assert testbed.paka.enclaves["eudm"].stats.aexs > 3_000
