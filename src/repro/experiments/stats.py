"""Distribution summaries for experiment series.

The arithmetic is :mod:`repro.sim.summary`; this module names the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.sim.summary import describe, outlier_fraction, percentiles  # noqa: F401


@dataclass(frozen=True)
class SeriesSummary:
    """Five-number-ish summary of one measured series."""

    name: str
    unit: str
    n: int
    mean: float
    median: float
    p25: float
    p75: float
    stdev: float
    minimum: float
    maximum: float

    @property
    def iqr(self) -> float:
        return self.p75 - self.p25

    def format(self) -> str:
        return (
            f"{self.name}: mean={self.mean:.2f} median={self.median:.2f} "
            f"IQR=[{self.p25:.2f}, {self.p75:.2f}] sd={self.stdev:.2f} "
            f"n={self.n} ({self.unit})"
        )


def summarize(name: str, values: Sequence[float], unit: str) -> SeriesSummary:
    if not values:
        raise ValueError(f"series {name!r} is empty")
    return SeriesSummary(name=name, unit=unit, **describe(values))
