"""Parallel experiment runner — fan independent arms over processes.

Every multi-arm experiment in this reproduction has the same shape: each
arm builds its **own** seeded :class:`~repro.testbed.Testbed` (its own
host, RNG service and simulated clock) and collects plain-data samples;
the report is then assembled from all arms.  Because arms share no state,
running them in worker processes is observationally identical to running
them in a loop — determinism is preserved by construction, and a
``--jobs 4`` run yields byte-identical reports to ``--jobs 1``.

The caller is worker 0: ``jobs=N`` forks N−1 children and the calling
process runs arms too.  Every worker runs the same claim loop: it reads
the next arm index off one shared pipe (four bytes a claim), runs the
arm and appends the pickled outcome to an unlinked temporary file of its
own, so whichever worker is idle takes the next arm, and no thread,
lock or queue feeder stands behind the balance.  A child never waits on
the caller: its records go to a file, not to a pipe the caller may be
too busy to read; it flushes its stdio and leaves with ``os._exit``.
The caller reads every worker's records and reaps every child before
:func:`run_arms` returns, so their CPU time is in ``RUSAGE_CHILDREN``.
The caller outlives every campaign, so its process-wide memos (compiled
syscall profiles, crypto key schedules) are already warm; only the
forked children start from whatever the caller held at the fork.  A
single-process run imports nothing for this; a fan-out adds ``pickle``.

Arms are described by :class:`Arm`: a stable key, a **module-level**
collection function and plain-data kwargs.  The results dict preserves
the declaration order of the arms regardless of completion order or of
which process ran an arm, so report assembly never depends on
scheduling.
"""

from __future__ import annotations

import gc
import os
import sys
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Dict, List, Mapping, Sequence, Tuple

#: Bytes per claim on the claim pipe: one arm index, little-endian.
_CLAIM = 4
#: Claims per write to the claim pipe.  A write of at most 512 bytes
#: (the POSIX floor of ``PIPE_BUF``) lands in a pipe whole, so every
#: read of :data:`_CLAIM` bytes takes exactly one index.
_FILL = 512 // _CLAIM


@dataclass(frozen=True)
class Arm:
    """One independent unit of experiment work.

    ``fn`` must be defined at module level and both its kwargs and return
    value must be picklable (plain dicts/lists/numbers survive the trip
    through a worker process; a result, or an exception, that does not
    fails the arm whichever worker ran it).
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
    forked child peaks at ≈26.8 MB running 60-UE shards (``ru_maxrss`` of
    the reaped children of a 240-UE, 4-shard campaign; the caller, which
    hosts shards too, reads ≈34.8 MB as hostbench ``sharded-4x2``
    ``peak_rss_mb``), plus ≈1–2 kB per UE it registers
    (``tests/integration/test_budgets.py``).  Platforms without
    ``sched_getaffinity`` (macOS, Windows) fall back to the CPU count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def run_arms(arms: Sequence[Arm], jobs: int = 1) -> "Dict[str, Any]":
    """Run every arm and return ``{arm.key: result}`` in declaration order.

    ``jobs <= 1`` runs inline (no fork, no pickling), and so does any
    ``jobs`` where ``os.fork`` is missing.  ``jobs > 1`` forks
    ``min(jobs, len(arms)) - 1`` children and runs arms in the caller
    too, each worker claiming the next arm when it is idle.  ``jobs == 0``
    means one worker per schedulable CPU.  An arm that raises propagates
    its exception and no further arm starts; a child that dies first
    raises a :class:`RuntimeError` naming the arms nobody returned.
    Every child is reaped before this returns either way.
    """
    keys = [arm.key for arm in arms]
    if len(set(keys)) != len(keys):
        raise ValueError(f"arm keys must be unique, got {keys}")
    if jobs == 0:
        jobs = default_jobs()
    if jobs <= 1 or len(arms) <= 1 or not hasattr(os, "fork"):
        return {arm.key: arm.run() for arm in arms}
    import tempfile

    # One record file per worker, the caller's first: unlinked, so
    # nothing is left behind however a worker ends.
    records = [tempfile.TemporaryFile() for _ in range(min(jobs, len(arms)))]
    try:
        exits = _fan_out(arms, records)
        outcomes = _read_records(keys, records)
    finally:
        for out in records:
            out.close()
    for index in sorted(outcomes):
        ok, value, trace = outcomes[index]
        if not ok:
            raise value from (RuntimeError(
                f"raised in the worker that ran arm {keys[index]!r}:\n{trace}"
            ) if trace else None)
    missing = [key for index, key in enumerate(keys) if index not in outcomes]
    if missing:
        raise RuntimeError(
            f"worker processes exited (codes {exits}) without returning "
            f"arms {missing}"
        )
    return {key: outcomes[index][1] for index, key in enumerate(keys)}


def _fan_out(arms: Sequence[Arm], records: List[IO[bytes]]) -> List[int]:
    """Fork a child for every record file but the first, run the claim
    loop in each and in the caller, and reap them all; return the
    children's exit codes."""
    claims, fill = os.pipe()
    children: List[int] = []
    # A child inherits the caller's unflushed stdio buffers and flushes
    # them when it leaves: empty them first, or they are written twice.
    _flush_stdio()
    # Frozen, the heap so far is neither traversed by this process's
    # collections nor written (so copied) by a child's.
    gc.freeze()
    try:
        try:
            for out in records[1:]:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        os.close(fill)
                        while _serve(arms, claims, out):
                            pass
                        _drain(claims)
                        status = 0
                    finally:
                        try:
                            _flush_stdio()
                        finally:
                            os._exit(status)
                children.append(pid)
            # Filled after the fork, so more claims than the pipe holds
            # are taken off it while it fills.
            os.set_blocking(fill, False)
            hosting = _fill(arms, claims, fill, records[0])
        finally:
            # Closed, the pipe reads empty once its claims are taken.
            os.close(fill)
        while hosting:
            hosting = _serve(arms, claims, records[0])
    finally:
        # However the caller leaves its loop, no further arm starts.
        _drain(claims)
        os.close(claims)
        exits = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
        gc.unfreeze()
    return exits


def _read_records(
    keys: Sequence[str], records: List[IO[bytes]]
) -> "Dict[int, Tuple[bool, Any, str]]":
    """Every outcome the workers recorded: arm index -> ``(ok, result or
    exception, traceback)``."""
    import pickle

    outcomes: Dict[int, Tuple[bool, Any, str]] = {}
    for out in records:
        out.seek(0)
        while True:
            try:
                index, ok, payload, trace = pickle.load(out)
            except (EOFError, pickle.UnpicklingError):
                break  # the end, or a record cut short by a dying child
            try:
                outcomes[index] = (ok, pickle.loads(payload), trace)
            except Exception as error:
                outcomes[index] = (False, RuntimeError(
                    f"arm {keys[index]!r}: its outcome could not be "
                    f"unpickled: {error!r}"), trace)
    return outcomes


def _fill(arms: Sequence[Arm], claims: int, fill: int, out: IO[bytes]) -> bool:
    """Write every arm's index to the claim pipe; whenever it is full,
    take one claim off it and run that arm here to make room.  False if
    such an arm failed: the remaining indices are never written."""
    for start in range(0, len(arms), _FILL):
        chunk = b"".join(
            index.to_bytes(_CLAIM, "little")
            for index in range(start, min(start + _FILL, len(arms)))
        )
        while True:
            try:
                os.write(fill, chunk)
                break
            except BlockingIOError:
                if not _serve(arms, claims, out):
                    return False
    return True


def _serve(arms: Sequence[Arm], claims: int, out: IO[bytes]) -> bool:
    """One turn of the claim loop every worker runs, the caller and each
    child alike: claim the next arm index, run the arm and append
    ``(index, ok, pickled result or exception, traceback)`` to ``out``.
    False once the pipe is closed and empty, or once the arm failed —
    raised, or returned what does not pickle — so the worker stops."""
    import pickle

    claim = os.read(claims, _CLAIM)
    if not claim:
        return False
    index = int.from_bytes(claim, "little")
    trace = ""
    try:
        ok, value = True, arms[index].run()
    except Exception as error:
        import traceback

        ok, value = False, error
        trace = "".join(traceback.format_exception(type(error), error, error.__traceback__))
    # An arm leaves its testbed behind as cyclic garbage, which only a
    # collection frees; with the older heap frozen it only looks at what
    # this arm allocated.
    gc.collect()
    try:
        payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        what = "its result" if ok else f"the exception it raised, {value!r},"
        ok, payload = False, pickle.dumps(RuntimeError(
            f"arm {arms[index].key!r}: {what} could not be pickled: {error!r}"
        ))
    pickle.dump((index, ok, payload, trace), out)
    # Flushed per record: a worker that dies later loses no finished arm.
    out.flush()
    return ok


def _drain(claims: int) -> None:
    """Discard every claim left on the pipe until its write end closes:
    after a failure, no further arm starts in any worker.  Whole claims
    only, so every other worker's read still takes one whole index."""
    while os.read(claims, _FILL * _CLAIM):
        pass


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
