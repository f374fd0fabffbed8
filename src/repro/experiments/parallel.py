"""Parallel experiment runner — fan independent arms over processes.

Every multi-arm experiment in this reproduction has the same shape: each
arm builds its **own** seeded :class:`~repro.testbed.Testbed` (its own
host, RNG service and simulated clock) and collects plain-data samples;
the report is then assembled from all arms.  Because arms share no state,
running them in worker processes is observationally identical to running
them in a loop — determinism is preserved by construction, and a
``--jobs 4`` run yields byte-identical reports to ``--jobs 1``.

The caller is worker 0: ``jobs=N`` forks N−1 processes and the calling
process runs arms too, taking still-pending ones from the tail of the
list while the pool works from the head.  The caller outlives every
campaign, so its process-wide memos (compiled syscall profiles, crypto
key schedules) are already warm; only the forked children start from
whatever the caller held at the fork.  Every child is reaped before
:func:`run_arms` returns, so its CPU time is in ``RUSAGE_CHILDREN``.

Arms are described by :class:`Arm`: a stable key, a **module-level**
collection function (it must be picklable) and plain-data kwargs.  The
results dict preserves the declaration order of the arms regardless of
completion order or of which process ran an arm, so report assembly
never depends on scheduling.
"""

from __future__ import annotations

import gc
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

    One worker per CPU this process may actually *run on* (the caller is
    worker 0, so this forks one fewer): in a cgroup/cpuset-limited
    container ``os.cpu_count()`` reports the whole machine while the
    scheduler confines us to a slice of it, and overshooting just
    multiplies per-process testbed memory for zero throughput — each
    forked child peaks at ≈32 MB running 60-UE shards (``ru_maxrss`` of
    the reaped children of a 240-UE, 4-shard campaign; the caller, which
    hosts shards too, reads ≈38 MB as hostbench ``sharded-4x2``
    ``peak_rss_mb``), plus ≈3–4 kB per UE it registers
    (``tests/integration/test_memory_budget.py``).  Platforms without
    ``sched_getaffinity`` (macOS, Windows) fall back to the CPU count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def run_arms(arms: Sequence[Arm], jobs: int = 1) -> "Dict[str, Any]":
    """Run every arm and return ``{arm.key: result}`` in declaration order.

    ``jobs <= 1`` runs inline (no executor, no pickling).  ``jobs > 1``
    forks ``min(jobs, len(arms)) - 1`` workers, submits all arms but the
    last to them, and runs the last inline; then, walking back from the
    tail, it runs inline every arm whose future still cancels (no worker
    has taken it yet).  ``jobs == 0`` means one worker per schedulable
    CPU.  An arm that raises propagates its exception; the pool is shut
    down and every child reaped before this returns either way.
    """
    keys = [arm.key for arm in arms]
    if len(set(keys)) != len(keys):
        raise ValueError(f"arm keys must be unique, got {keys}")
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(arms) <= 1:
        return {arm.key: arm.run() for arm in arms}
    *pooled, last = arms
    results: Dict[str, Any] = {}

    def run_inline(arm: Arm) -> None:
        results[arm.key] = arm.run()
        # An arm leaves its testbed behind as cyclic garbage, which only
        # a collection frees; with the older heap frozen it only looks
        # at what this call allocated.
        gc.collect()

    pool = ProcessPoolExecutor(max_workers=min(jobs, len(arms)) - 1)
    # Frozen, the heap so far is neither traversed by this process's
    # collections nor written (so copied) by a child's; the children
    # are forked at the first submit.
    gc.freeze()
    try:
        futures = [pool.submit(arm.run) for arm in pooled]
        run_inline(last)
        # Workers take arms in submission order, so once one future
        # will not cancel, no earlier one will either.
        for arm, future in zip(reversed(pooled), reversed(futures)):
            if not future.cancel():
                break
            run_inline(arm)
        for arm, future in zip(pooled, futures):
            if arm.key not in results:
                results[arm.key] = future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        gc.unfreeze()
    return {key: results[key] for key in keys}
