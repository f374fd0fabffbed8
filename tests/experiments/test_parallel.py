"""The parallel arm runner: semantics, and parallel == serial determinism."""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
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


def _log_or_raise(x, log):
    """Arm 0 fails at once; every other arm logs its start, then works."""
    if x == 0:
        raise ValueError("arm 0 failed")
    with open(log, "a") as handle:
        handle.write(f"{x}\n")
    time.sleep(0.2)
    return x


def _die_unless_in(caller, how):
    """Outlast the child in the caller; in a child, die mid-arm."""
    if os.getpid() == caller:
        time.sleep(0.5)
        return "caller"
    if how == "exit":
        os._exit(3)
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_unless_in(caller, x):
    """In a child, die at the first arm."""
    if os.getpid() != caller:
        os._exit(3)
    return x


def _unpicklable_unless_in(caller, how):
    """Outlast the child in the caller; in a child, return or raise what
    does not pickle."""
    if os.getpid() == caller:
        time.sleep(0.5)
        return "caller"
    if how == "result":
        return threading.Lock()
    if how == "exception":
        raise ValueError(threading.Lock())
    raise _TwoArgError("pickles", "but does not load")


class _TwoArgError(Exception):
    """Pickled as ``(cls, args)``, it is rebuilt with one argument too few."""

    def __init__(self, first, second):
        super().__init__(first)


def _registration_arm(seed, registrations=3):
    """A real testbed arm: cold SGX testbed, a few registrations, plain data."""
    testbed = build_testbed(IsolationMode.SGX, seed=seed)
    return collect_module_latencies(testbed, registrations)


def assert_no_child_left():
    """Every child was reaped: there is none to wait for, live or dead."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch):
    """Count the caller's ``os.fork`` calls."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


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
    assert_no_child_left()


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("bad", [0, 6])  # a pooled arm, the caller's first
def test_an_arm_that_raises_propagates_and_leaves_no_child(jobs, bad):
    arms = [
        Arm(key=f"k{i}", fn=_raise_on, kwargs={"x": i, "bad": bad}) for i in range(7)
    ]
    with pytest.raises(ValueError, match=f"arm {bad} failed"):
        run_arms(arms, jobs=jobs)
    assert_no_child_left()


@pytest.mark.parametrize("jobs", [2, 4])
def test_after_an_arm_fails_no_further_arm_starts(jobs, tmp_path):
    """The failing worker drains the claims: each other worker finishes
    at most the arm it holds."""
    log = tmp_path / "started"
    arms = [
        Arm(key=f"k{i}", fn=_log_or_raise, kwargs={"x": i, "log": str(log)})
        for i in range(12)
    ]
    with pytest.raises(ValueError, match="arm 0 failed"):
        run_arms(arms, jobs=jobs)
    started = log.read_text().split() if log.exists() else []
    assert len(started) <= jobs - 1, started
    assert_no_child_left()


@pytest.mark.parametrize("jobs, children", [(1, 0), (2, 1), (4, 3), (9, 5)])
def test_the_caller_is_worker_zero(jobs, children, monkeypatch):
    """``jobs=N`` forks N-1 processes (capped at one fewer than the arms)."""
    forks = counting_forks(monkeypatch)
    arms = [Arm(key=f"k{i}", fn=_square, kwargs={"x": i}) for i in range(6)]
    assert run_arms(arms, jobs=jobs) == {f"k{i}": i * i for i in range(6)}
    assert forks == [os.getpid()] * children
    assert_no_child_left()


def test_the_caller_takes_its_share_of_equal_arms(monkeypatch):
    """Four equal arms at ``jobs=2``: one fork, and each worker claims an
    arm only when it is idle, so the caller runs two."""
    forks = counting_forks(monkeypatch)
    arms = [
        Arm(key=f"k{i}", fn=_sleep_then_pid, kwargs={"seconds": 0.3}) for i in range(4)
    ]
    pids = list(run_arms(arms, jobs=2).values())
    assert len(forks) == 1
    assert pids.count(os.getpid()) == 2, pids
    assert_no_child_left()


@pytest.mark.parametrize("how, code", [("exit", 3), ("kill", -signal.SIGKILL)])
def test_a_child_that_dies_mid_arm_raises_and_leaves_no_child(how, code):
    arms = [
        Arm(key=f"k{i}", fn=_die_unless_in, kwargs={"caller": os.getpid(), "how": how})
        for i in range(2)
    ]
    with pytest.raises(
        RuntimeError,
        match=rf"exited \(codes \[{code}\]\) without returning arms \['k[01]'\]$",
    ):
        run_arms(arms, jobs=2)
    assert_no_child_left()


def test_more_claims_than_the_pipe_holds_outlive_a_dead_child():
    """80 kB of claims, more than a pipe holds (64 kB on Linux), and the
    one child dies at its first arm: the caller, filling the pipe,
    takes claims off it whenever it is full and runs the rest itself."""
    arms = [
        Arm(key=f"k{i}", fn=_exit_unless_in, kwargs={"caller": os.getpid(), "x": i})
        for i in range(20_000)
    ]
    with pytest.raises(
        RuntimeError, match=r"exited \(codes \[3\]\) without returning arms \['k\d+'\]$"
    ):
        run_arms(arms, jobs=2)
    assert_no_child_left()


@pytest.mark.parametrize("how", ["result", "exception", "unloadable"])
def test_an_unpicklable_outcome_in_a_child_surfaces_in_the_caller(how):
    arms = [
        Arm(key=f"k{i}", fn=_unpicklable_unless_in, kwargs={"caller": os.getpid(), "how": how})
        for i in range(2)
    ]
    with pytest.raises(RuntimeError, match=r"arm 'k[01]': .* could not be (un)?pickled"):
        run_arms(arms, jobs=2)
    assert_no_child_left()


_PRINTS = """
import os, time
from repro.experiments.parallel import Arm, run_arms

def shout(index):
    print(f"arm {index}")
    time.sleep(0.2)
    return os.getpid()

print("caller line")  # buffered: stdout is a pipe
pids = run_arms([Arm(key=str(i), fn=shout, kwargs={"index": i}) for i in range(4)], jobs=2)
assert len(set(pids.values())) == 2, pids
"""


def test_an_arm_that_prints_in_a_child_does_not_repeat_the_callers_output():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as the caller's line must be
    out = subprocess.run(
        [sys.executable, "-c", _PRINTS], env=env, check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout
    assert sorted(out.splitlines()) == ["arm 0", "arm 1", "arm 2", "arm 3", "caller line"]


def test_without_fork_every_jobs_runs_inline(monkeypatch):
    monkeypatch.delattr(os, "fork")
    arms = [Arm(key=f"k{i}", fn=_square, kwargs={"x": i}) for i in (5, 0, 6, 2)]
    assert pickle.dumps(run_arms(arms, jobs=4)) == pickle.dumps(run_arms(arms, jobs=1))


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
