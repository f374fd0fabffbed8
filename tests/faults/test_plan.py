"""Fault plans: pure values, reproducible from (seed, horizon, rates)."""

from repro.faults.plan import BASELINE_RATES, FaultKind, FaultPlan, FaultRates


def test_same_seed_same_plan():
    a = FaultPlan.generate(42, 300.0, BASELINE_RATES)
    b = FaultPlan.generate(42, 300.0, BASELINE_RATES)
    assert a == b
    assert a.windows == b.windows


def test_different_seeds_differ():
    a = FaultPlan.generate(1, 600.0, BASELINE_RATES)
    b = FaultPlan.generate(2, 600.0, BASELINE_RATES)
    assert a.windows != b.windows


def test_zero_rates_mean_fault_free():
    plan = FaultPlan.generate(7, 600.0, FaultRates())
    assert plan.windows == ()


def test_scaled_rates_scale_linearly():
    rates = BASELINE_RATES.scaled(3.0)
    assert rates.module_crash_per_min == BASELINE_RATES.module_crash_per_min * 3.0
    assert rates.total_per_min == BASELINE_RATES.total_per_min * 3.0


def test_windows_sorted_and_inside_horizon():
    plan = FaultPlan.generate(5, 240.0, BASELINE_RATES.scaled(4.0))
    assert plan.windows, "4x rates over 4 minutes should draw something"
    starts = [w.start_ns for w in plan.windows]
    assert starts == sorted(starts)
    for window in plan.windows:
        assert 0 <= window.start_ns < int(240.0 * 1e9)
        assert window.end_ns > window.start_ns


def test_module_crash_lasts_a_fig7_reload():
    plan = FaultPlan.generate(9, 3600.0, FaultRates(module_crash_per_min=0.5))
    crashes = plan.by_kind()[FaultKind.MODULE_CRASH]
    assert crashes
    for window in crashes:
        assert 20.0 <= window.duration_s <= 90.0  # ~1 min reload, bounded
        assert window.target in ("eudm", "eausf", "eamf")


def test_magnitudes_stay_in_kind_ranges():
    plan = FaultPlan.generate(3, 3600.0, BASELINE_RATES.scaled(2.0))
    for window in plan.windows:
        if window.kind is FaultKind.LINK_LOSS:
            assert 0.3 <= window.magnitude <= 0.9
        elif window.kind is FaultKind.LATENCY_SPIKE:
            assert 30_000.0 <= window.magnitude <= 250_000.0
        elif window.kind is FaultKind.EPC_PRESSURE:
            assert 0.95 <= window.magnitude <= 1.0
        elif window.kind is FaultKind.AEX_STORM:
            assert 5.0 <= window.magnitude <= 20.0


def test_counts_and_active():
    plan = FaultPlan.generate(11, 1200.0, BASELINE_RATES)
    assert sum(len(ws) for ws in plan.by_kind().values()) == len(plan.windows)
    window = plan.windows[0]
    assert window.active(window.start_ns)
    assert not window.active(window.end_ns)
