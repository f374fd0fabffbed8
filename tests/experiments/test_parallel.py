"""The parallel arm runner: semantics, and parallel == serial determinism."""

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.process import BaseProcess
from unittest import mock

import pytest

from repro.experiments.figures import figure9_functional_total_latency
from repro.experiments.export import report_to_json
from repro.experiments.harness import build_testbed, collect_module_latencies
from repro.experiments.parallel import Arm, default_jobs, run_arms
from repro.paka.deploy import IsolationMode


def _square(x):
    return x * x


def _raise_on(x, bad):
    if x == bad:
        raise ValueError(f"arm {x} failed")
    return x * x


def _sleep_then_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


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


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_more_arms_than_jobs_come_back_in_declaration_order(jobs):
    arms = [Arm(key=f"k{i}", fn=_square, kwargs={"x": i}) for i in (5, 0, 6, 2, 3, 1, 4)]
    results = run_arms(arms, jobs=jobs)
    assert list(results) == [arm.key for arm in arms]
    assert pickle.dumps(results) == pickle.dumps(run_arms(arms, jobs=1))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("bad", [0, 6])  # a pooled arm, the caller's first
def test_an_arm_that_raises_propagates_and_leaves_no_child(jobs, bad):
    arms = [
        Arm(key=f"k{i}", fn=_raise_on, kwargs={"x": i, "bad": bad}) for i in range(7)
    ]
    with pytest.raises(ValueError, match=f"arm {bad} failed"):
        run_arms(arms, jobs=jobs)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs, children", [(1, 0), (2, 1), (4, 3), (9, 5)])
def test_the_caller_is_worker_zero(jobs, children, monkeypatch):
    """``jobs=N`` starts N-1 processes (capped at one fewer than the arms)."""
    started = []
    start = BaseProcess.start
    monkeypatch.setattr(
        BaseProcess, "start", lambda self: (started.append(self), start(self))[1]
    )
    arms = [Arm(key=f"k{i}", fn=_square, kwargs={"x": i}) for i in range(6)]
    assert run_arms(arms, jobs=jobs) == {f"k{i}": i * i for i in range(6)}
    assert len(started) == children
    assert multiprocessing.active_children() == []


def test_the_caller_takes_its_share_of_equal_arms(monkeypatch):
    """Four equal arms at ``jobs=2``: the child is handed an arm only when
    it is idle, so none waits queued for it and the caller runs two."""
    submitted, busy_at_submit = [], []
    submit = ProcessPoolExecutor.submit

    def counting_submit(pool, fn, *args, **kwargs):
        busy_at_submit.append(sum(not future.done() for future in submitted))
        submitted.append(submit(pool, fn, *args, **kwargs))
        return submitted[-1]

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    arms = [
        Arm(key=f"k{i}", fn=_sleep_then_pid, kwargs={"seconds": 0.3}) for i in range(4)
    ]
    pids = list(run_arms(arms, jobs=2).values())
    assert busy_at_submit == [0, 0]
    assert pids.count(os.getpid()) == 2, pids
    assert multiprocessing.active_children() == []


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
