"""Shared experiment plumbing: reports, band checks, testbed builders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.experiments.stats import SeriesSummary
from repro.paka.deploy import IsolationMode
from repro.testbed import Testbed, TestbedConfig

MODULE_NAMES = ("eudm", "eausf", "eamf")

# The module AKA endpoints, keyed by module short name.
from repro.net.sbi import EAMF_DERIVE_KAMF, EAUSF_DERIVE_SE_AV, EUDM_GENERATE_AV

MODULE_AKA_PATH = {
    "eudm": EUDM_GENERATE_AV,
    "eausf": EAUSF_DERIVE_SE_AV,
    "eamf": EAMF_DERIVE_KAMF,
}

# The NF whose client calls each module's AKA endpoint.
MODULE_CALLER = {"eudm": "udm", "eausf": "ausf", "eamf": "amf"}


@dataclass
class BandCheck:
    """One shape assertion: a measured value against the paper's band."""

    name: str
    measured: float
    low: float
    high: float
    paper_value: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.low <= self.measured <= self.high

    def format(self) -> str:
        status = "OK " if self.ok else "OUT"
        paper = f" (paper: {self.paper_value})" if self.paper_value is not None else ""
        return (
            f"[{status}] {self.name}: {self.measured:.3g} "
            f"in [{self.low:.3g}, {self.high:.3g}]{paper}"
        )


@dataclass
class ExperimentReport:
    """Everything one experiment produced."""

    experiment_id: str
    title: str
    series: Dict[str, SeriesSummary] = field(default_factory=dict)
    derived: Dict[str, float] = field(default_factory=dict)
    checks: List[BandCheck] = field(default_factory=list)
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    @property
    def all_checks_ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failed_checks(self) -> List[BandCheck]:
        return [check for check in self.checks if not check.ok]

    def format(self) -> str:
        lines = [f"=== {self.experiment_id}: {self.title} ==="]
        for summary in self.series.values():
            lines.append("  " + summary.format())
        if self.rows:
            lines.append("  rows:")
            for row in self.rows:
                lines.append(
                    "    " + "  ".join(f"{k}={v}" for k, v in row.items())
                )
        for key, value in self.derived.items():
            lines.append(f"  {key} = {value:.4g}")
        for check in self.checks:
            lines.append("  " + check.format())
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)


def build_testbed(
    isolation: Optional[IsolationMode],
    seed: int = 0,
    **config_kwargs,
) -> Testbed:
    """Build a testbed for one experiment arm."""
    return Testbed.build(
        TestbedConfig(seed=seed, isolation=isolation, **config_kwargs)
    )


def warmed_testbed(
    isolation: Optional[IsolationMode],
    seed: int = 0,
    warmup_registrations: int = 2,
    **config_kwargs,
) -> Testbed:
    """A testbed already past the first-request warmup (stable regime)."""
    testbed = build_testbed(isolation, seed=seed, **config_kwargs)
    for _ in range(warmup_registrations):
        ue = testbed.add_subscriber()
        outcome = testbed.register(ue, establish_session=False)
        if not outcome.success:
            raise RuntimeError(f"warm-up failed: {outcome.failure_cause}")
    return testbed


def trusted_path_samples(
    testbed: Testbed, since: Optional[Mapping[str, int]] = None
) -> Dict[str, List[float]]:
    """Each module's trusted-path round trips (R, µs) as the NF calling it
    recorded them, from index ``since[module]`` on (all without ``since``).

    Take ``len`` of every list for the ``since`` of a later call.
    """
    since = since or {}
    return {
        name: getattr(testbed, MODULE_CALLER[name])
        .client.response_times_by_server.get(module.server.name, [])[
            since.get(name, 0):
        ]
        for name, module in testbed.paka.modules.items()
    }


def collect_module_latencies(
    testbed: Testbed, registrations: int, skip: int = 0
) -> Dict[str, Dict[str, List[float]]]:
    """Register ``registrations`` UEs and collect per-module L_F/L_T/R.

    Returns ``{module: {"lf_us": [...], "lt_us": [...], "r_us": [...]}}``
    with the first ``skip`` samples dropped.
    """
    if testbed.paka is None:
        raise ValueError("experiment requires deployed modules")
    before_r = {
        name: len(samples) + skip
        for name, samples in trusted_path_samples(testbed).items()
    }
    before_lf = {
        name: len(
            testbed.paka.modules[name].server.lf_us_by_path.get(
                MODULE_AKA_PATH[name], []
            )
        )
        for name in testbed.paka.modules
    }

    for _ in range(registrations):
        ue = testbed.add_subscriber()
        outcome = testbed.register(ue, establish_session=False)
        if not outcome.success:
            raise RuntimeError(f"registration failed: {outcome.failure_cause}")

    r_us = trusted_path_samples(testbed, since=before_r)
    collected: Dict[str, Dict[str, List[float]]] = {}
    for name, module in testbed.paka.modules.items():
        path = MODULE_AKA_PATH[name]
        server = module.server
        collected[name] = {
            "lf_us": server.lf_us_by_path.get(path, [])[before_lf[name] + skip :],
            "lt_us": server.lt_us_by_path.get(path, [])[before_lf[name] + skip :],
            "r_us": r_us[name],
        }
    return collected
