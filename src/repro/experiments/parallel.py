"""Parallel experiment runner — fan independent arms over processes.

Every multi-arm experiment in this reproduction has the same shape: each
arm builds its **own** seeded :class:`~repro.testbed.Testbed` (its own
host, RNG service and simulated clock) and collects plain-data samples;
the report is then assembled from all arms.  Because arms share no state,
running them in worker processes is observationally identical to running
them in a loop — determinism is preserved by construction, and a
``--jobs 4`` run yields byte-identical reports to ``--jobs 1``.

Arms are described by :class:`Arm`: a stable key, a **module-level**
collection function (it must be picklable) and plain-data kwargs.  The
results dict preserves the declaration order of the arms regardless of
completion order, so report assembly never depends on scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Sequence


@dataclass(frozen=True)
class Arm:
    """One independent unit of experiment work.

    ``fn`` must be defined at module level and both its kwargs and return
    value must be picklable (plain dicts/lists/numbers survive the trip
    through a worker process).
    """

    key: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        return self.fn(**dict(self.kwargs))


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0``.

    One worker per CPU this process may actually *run on*: in a
    cgroup/cpuset-limited container ``os.cpu_count()`` reports the whole
    machine while the scheduler confines us to a slice of it, and
    overshooting just multiplies per-process testbed memory for zero
    throughput — each worker is ≈30 MB with ``repro`` imported and a
    warmed SGX slice built, plus ≈3–4 kB per UE it registers (hostbench
    ``peak_rss_mb``, ``tests/integration/test_memory_budget.py``).
    Platforms without ``sched_getaffinity`` (macOS, Windows) fall back to
    the CPU count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def run_arms(arms: Sequence[Arm], jobs: int = 1) -> "Dict[str, Any]":
    """Run every arm and return ``{arm.key: result}`` in declaration order.

    ``jobs <= 1`` runs inline (no executor, no pickling); ``jobs > 1``
    fans out over a :class:`ProcessPoolExecutor` capped at the arm count.
    ``jobs == 0`` means one worker per schedulable CPU.  Results are
    keyed in declaration order either way, so scheduling cannot change a
    report's bytes.
    """
    keys = [arm.key for arm in arms]
    if len(set(keys)) != len(keys):
        raise ValueError(f"arm keys must be unique, got {keys}")
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(arms) <= 1:
        return {arm.key: arm.run() for arm in arms}
    with ProcessPoolExecutor(max_workers=min(jobs, len(arms))) as pool:
        futures = [(arm.key, pool.submit(arm.run)) for arm in arms]
        return {key: future.result() for key, future in futures}
