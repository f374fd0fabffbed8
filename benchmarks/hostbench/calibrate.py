"""Calibration kernel: the host-speed yardstick every cost is divided by.

Imports nothing from ``repro`` so no change to the simulator can move it.
One *pass* mixes what the simulator's hot path is made of — dict and list
traffic, small-int arithmetic, bytes slicing/concatenation, attribute
access on a slotted object, and short hashlib/hmac calls — and 1 ``cal``
is 1/1000 of a pass (≈1 µs of CPU on a 3 GHz core).  Costs are reported
in ``cal`` so a number means the same thing on a laptop and a CI runner.
"""

from __future__ import annotations

import hashlib
import hmac
import statistics
import time
from typing import List

CAL_PER_PASS = 1000
#: The host speed wall times are quoted at: one pass per millisecond.
REFERENCE_UNIT_S = 1e-6


class _Cell:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0


def kernel_pass() -> int:
    """One fixed unit of interpreter + hashlib work; returns a checksum."""
    cell = _Cell()
    table = {}
    buf = bytes(range(64))
    key = buf[:32]
    acc = 0
    for i in range(2600):
        table[i & 63] = acc
        acc = (acc * 31 + table.get((i * 7) & 63, 0) + i) & 0xFFFFFFFF
        cell.count += 1
        cell.total = (cell.total ^ acc) & 0xFFFF
        if i % 13 == 0:
            buf = hashlib.sha256(buf[:48] + acc.to_bytes(4, "big")).digest() * 2
        if i % 65 == 0:
            key = hmac.digest(key, buf, "sha256")
    items = sorted(table.items())
    return (acc + cell.total + len(items) + key[0]) & 0xFFFFFFFF


def cal_passes(passes: int) -> List[float]:
    """CPU seconds of each of ``passes`` kernel passes, timed one by one."""
    samples = []
    for _ in range(passes):
        start = time.process_time()
        kernel_pass()
        samples.append(time.process_time() - start)
    return samples


def cal_unit_s(samples: List[float]) -> float:
    """CPU seconds per ``cal``: the mean pass over ``CAL_PER_PASS``.

    The mean, because a batch's CPU time is a sum over whatever the host
    did to it meanwhile, and the passes beside it should count the same
    interference the same way.
    """
    return statistics.fmean(samples) / CAL_PER_PASS


def at_reference_speed(seconds: float, samples: List[float]) -> float:
    """``seconds`` measured next to the passes ``samples``, as the seconds
    the same work takes on a host where 1 ``cal`` is ``REFERENCE_UNIT_S``."""
    return seconds / cal_unit_s(samples) * REFERENCE_UNIT_S
