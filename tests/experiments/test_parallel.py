"""The parallel arm runner: semantics, and parallel == serial determinism."""

import os
from unittest import mock

import pytest

from repro.experiments.figures import figure9_functional_total_latency
from repro.experiments.export import report_to_json
from repro.experiments.harness import build_testbed, collect_module_latencies
from repro.experiments.parallel import Arm, default_jobs, run_arms
from repro.paka.deploy import IsolationMode


def _square(x):
    return x * x


def _registration_arm(seed, registrations=3):
    """A real testbed arm: cold SGX testbed, a few registrations, plain data."""
    testbed = build_testbed(IsolationMode.SGX, seed=seed)
    return collect_module_latencies(testbed, registrations)


def test_run_arms_preserves_declaration_order():
    arms = [Arm(key=f"k{i}", fn=_square, kwargs={"x": i}) for i in (3, 1, 2)]
    results = run_arms(arms, jobs=1)
    assert list(results) == ["k3", "k1", "k2"]
    assert results == {"k3": 9, "k1": 1, "k2": 4}


def test_run_arms_rejects_duplicate_keys():
    arms = [Arm(key="same", fn=_square, kwargs={"x": 1})] * 2
    with pytest.raises(ValueError, match="unique"):
        run_arms(arms, jobs=1)


def test_run_arms_jobs_zero_means_cpu_count():
    assert default_jobs() >= 1
    results = run_arms([Arm(key="only", fn=_square, kwargs={"x": 5})], jobs=0)
    assert results == {"only": 25}


def test_default_jobs_respects_scheduler_affinity():
    """In a cpuset-limited container the schedulable set, not the machine
    CPU count, is the honest parallelism bound."""
    if hasattr(os, "sched_getaffinity"):
        assert default_jobs() == len(os.sched_getaffinity(0))
    with mock.patch.object(
        os, "sched_getaffinity", create=True, return_value={0, 1}
    ):
        assert default_jobs() == 2


def test_default_jobs_falls_back_to_cpu_count():
    """macOS/Windows have no sched_getaffinity: fall back to cpu_count."""
    with mock.patch.object(
        os, "sched_getaffinity", create=True,
        side_effect=AttributeError("no affinity here"),
    ):
        assert default_jobs() == (os.cpu_count() or 1)


def test_pool_path_preserves_order_and_values():
    arms = [Arm(key=f"k{i}", fn=_square, kwargs={"x": i}) for i in range(4)]
    assert run_arms(arms, jobs=2) == run_arms(arms, jobs=1)
    assert list(run_arms(arms, jobs=2)) == ["k0", "k1", "k2", "k3"]


def test_parallel_four_arm_run_equals_serial():
    """Four real testbed arms: worker processes change nothing, result-for-result."""
    arms = [
        Arm(key=f"seed={seed}", fn=_registration_arm, kwargs={"seed": seed})
        for seed in (11, 22, 33, 44)
    ]
    serial = run_arms(arms, jobs=1)
    parallel = run_arms(arms, jobs=4)
    assert parallel == serial


def test_figure9_report_identical_across_jobs():
    """End-to-end: a whole experiment report is byte-identical under --jobs."""
    serial = figure9_functional_total_latency(registrations=6, seed=90, jobs=1)
    parallel = figure9_functional_total_latency(registrations=6, seed=90, jobs=2)
    assert report_to_json(parallel) == report_to_json(serial)
