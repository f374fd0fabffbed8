"""Parallel experiment runner — fan independent arms over processes.

Every multi-arm experiment in this reproduction has the same shape: each
arm builds its **own** seeded :class:`~repro.testbed.Testbed` (its own
host, RNG service and simulated clock) and collects plain-data samples;
the report is then assembled from all arms.  Because arms share no state,
running them in worker processes is observationally identical to running
them in a loop — determinism is preserved by construction, and a
``--jobs 4`` run yields byte-identical reports to ``--jobs 1``.

The caller is worker 0: ``jobs=N`` forks N−1 processes and the calling
process runs arms too.  The pending arms form one queue: each child is
handed one arm from its head, and the next one only when it reports the
last done, while the caller takes arms from its tail, so no idle worker
waits behind arms queued for a busy one.  The caller outlives every
campaign, so its process-wide memos (compiled syscall profiles, crypto
key schedules) are already warm; only the forked children start from
whatever the caller held at the fork.  The pool (and with it
``multiprocessing``) is imported only when there is something to fan
out, so a single-process run never loads it, and every child is reaped
before :func:`run_arms` returns, so its CPU time is in
``RUSAGE_CHILDREN``.

Arms are described by :class:`Arm`: a stable key, a **module-level**
collection function (it must be picklable) and plain-data kwargs.  The
results dict preserves the declaration order of the arms regardless of
completion order or of which process ran an arm, so report assembly
never depends on scheduling.
"""

from __future__ import annotations

import gc
import os
from collections import deque
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
    forked child peaks at ≈28 MB running 60-UE shards (``ru_maxrss`` of
    the reaped children of a 240-UE, 4-shard campaign; the caller, which
    hosts shards too, reads ≈36 MB as hostbench ``sharded-4x2``
    ``peak_rss_mb``), plus ≈1–2 kB per UE it registers
    (``tests/integration/test_memory_budget.py``).  Platforms without
    ``sched_getaffinity`` (macOS, Windows) fall back to the CPU count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def run_arms(arms: Sequence[Arm], jobs: int = 1) -> "Dict[str, Any]":
    """Run every arm and return ``{arm.key: result}`` in declaration order.

    ``jobs <= 1`` runs inline (no executor, no pickling, no pool
    imported).  ``jobs > 1`` forks ``min(jobs, len(arms)) - 1`` workers
    at the first submit and keeps exactly one arm in flight per worker:
    each gets one from the head of the pending arms, and each finished
    arm's done-callback hands its worker the next one, while the caller
    runs arms from the tail until none is pending.  ``jobs == 0`` means
    one worker per schedulable CPU.  An arm that raises propagates its
    exception and no further arm starts; the pool is shut down and every
    child reaped before this returns either way.
    """
    keys = [arm.key for arm in arms]
    if len(set(keys)) != len(keys):
        raise ValueError(f"arm keys must be unique, got {keys}")
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(arms) <= 1:
        return {arm.key: arm.run() for arm in arms}
    import threading
    from concurrent.futures import ProcessPoolExecutor

    results: Dict[str, Any] = {}
    futures: Dict[str, Any] = {}  # submission order is declaration order
    pending = deque(arms)
    lock = threading.Lock()

    def feed(done: Any = None) -> None:
        """Submit the head arm: at start, and from the done-callback of a
        worker's finished arm (in the pool's manager thread)."""
        with lock:
            if not pending:
                return
            if done is not None and done.exception() is not None:
                pending.clear()
                return
            arm = pending.popleft()
            future = futures[arm.key] = pool.submit(arm.run)
        # Outside the lock: a future already done calls back at once.
        future.add_done_callback(feed)

    workers = min(jobs, len(arms)) - 1
    pool = ProcessPoolExecutor(max_workers=workers)
    # Frozen, the heap so far is neither traversed by this process's
    # collections nor written (so copied) by a child's; the children
    # are forked at the first submit.
    gc.freeze()
    try:
        for _ in range(workers):
            feed()
        while True:
            with lock:
                if not pending:
                    break
                arm = pending.pop()
            results[arm.key] = arm.run()
            # An arm leaves its testbed behind as cyclic garbage, which
            # only a collection frees; with the older heap frozen it
            # only looks at what this call allocated.
            gc.collect()
        # Nothing is pending, so nothing more is submitted.
        for key, future in futures.items():
            results[key] = future.result()
    finally:
        with lock:
            pending.clear()
        pool.shutdown(wait=True, cancel_futures=True)
        gc.unfreeze()
    return {key: results[key] for key in keys}
