"""gNBSIM mass-registration campaigns and stat differencing."""

import pytest

from repro.ran.gnbsim import GnbSim


def test_campaign_registers_all_ues(sgx_testbed):
    sim = GnbSim(sgx_testbed)
    report = sim.register_ues(3, establish_session=False)
    assert report.successes == 3
    assert report.failures == 0
    assert report.mean_setup_ms() > 0


def test_per_registration_stat_deltas(sgx_testbed):
    sim = GnbSim(sgx_testbed)
    sim.warm_up(1)
    report = sim.register_ues(3, establish_session=False)
    for module in ("eudm", "eausf", "eamf"):
        deltas = report.per_registration_stats[module]
        assert len(deltas) == 3
        for delta in deltas:
            assert 70 <= delta.eenters <= 110  # ~90 per registration


def test_final_stats_snapshot(sgx_testbed):
    sim = GnbSim(sgx_testbed)
    report = sim.register_ues(1, establish_session=False)
    assert set(report.final_stats) == {"eudm", "eausf", "eamf"}
    assert report.final_stats["eudm"].eenters > 0


def test_mean_transition_delta(sgx_testbed):
    sim = GnbSim(sgx_testbed)
    sim.warm_up(1)
    report = sim.register_ues(2, establish_session=False)
    assert 70 <= report.mean_transition_delta("eudm") <= 110
    with pytest.raises(ValueError):
        report.mean_transition_delta("ghost")


def test_idle_windows_accumulate_aex(sgx_testbed):
    sim = GnbSim(sgx_testbed)
    report = sim.register_ues(2, establish_session=False, inter_registration_idle_s=10.0)
    assert report.final_stats["eudm"].aexs > 10_000


def test_container_campaign_has_no_sgx_stats(container_testbed):
    sim = GnbSim(container_testbed)
    report = sim.register_ues(1, establish_session=False)
    assert report.per_registration_stats == {"eudm": [], "eausf": [], "eamf": []}
    assert report.final_stats == {}


def test_empty_report_mean_raises():
    from repro.ran.gnbsim import MassRegistrationReport

    with pytest.raises(ValueError):
        MassRegistrationReport().mean_setup_ms()
