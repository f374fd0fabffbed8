"""gNBSIM — mass gNB/UE simulation driver.

The paper uses gNBSIM to establish gNB–UE connections with the core at
scale and to run the Table III methodology: register 1..N UEs back to
back, snapshot the Gramine SGX counters around each registration, and
difference consecutive snapshots to get the per-registration cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.fivegc.messages import RegistrationOutcome
from repro.sgx.stats import SgxStats

if TYPE_CHECKING:  # avoid a circular import with repro.testbed
    from repro.testbed import Testbed


@dataclass
class MassRegistrationReport:
    """Everything one gNBSIM campaign produced."""

    outcomes: List[RegistrationOutcome] = field(default_factory=list)
    # module name -> list of per-registration SgxStats deltas
    per_registration_stats: Dict[str, List[SgxStats]] = field(default_factory=dict)
    # module name -> counter totals at campaign end
    final_stats: Dict[str, SgxStats] = field(default_factory=dict)

    @property
    def successes(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.success)

    @property
    def failures(self) -> int:
        return len(self.outcomes) - self.successes

    def mean_setup_ms(self) -> float:
        values = [
            outcome.session_setup_ms
            for outcome in self.outcomes
            if outcome.success and outcome.session_setup_ms is not None
        ]
        if not values:
            raise ValueError("no successful registrations to average")
        return sum(values) / len(values)

    def mean_transition_delta(self, module: str) -> float:
        """Mean EENTER delta per registration for ``module`` (Table III)."""
        deltas = self.per_registration_stats.get(module, [])
        if not deltas:
            raise ValueError(f"no per-registration stats for module {module!r}")
        return sum(d.eenters for d in deltas) / len(deltas)


class GnbSim:
    """Registers batches of simulated UEs through a testbed."""

    def __init__(self, testbed: "Testbed") -> None:
        self.testbed = testbed

    def register_ues(
        self,
        count: int,
        establish_session: bool = True,
        inter_registration_idle_s: float = 0.0,
    ) -> MassRegistrationReport:
        """Register ``count`` fresh UEs back to back.

        ``inter_registration_idle_s`` inserts idle windows between
        registrations (the servers block in epoll, accumulating AEXs).
        """
        report = MassRegistrationReport()
        modules = self.testbed.paka.modules
        for name in modules:
            report.per_registration_stats[name] = []

        for index in range(count):
            before: Dict[str, SgxStats] = {}
            for name, module in modules.items():
                stats = module.runtime.sgx_stats
                if stats is not None:
                    before[name] = stats.snapshot()

            ue = self.testbed.add_subscriber()
            outcome = self.testbed.register(ue, establish_session=establish_session)
            report.outcomes.append(outcome)

            for name, module in modules.items():
                stats = module.runtime.sgx_stats
                if stats is not None and name in before:
                    report.per_registration_stats[name].append(
                        stats.delta(before[name])
                    )
            if inter_registration_idle_s > 0:
                self.testbed.idle(inter_registration_idle_s)

        for name, module in modules.items():
            stats = module.runtime.sgx_stats
            if stats is not None:
                report.final_stats[name] = stats.snapshot()
        return report

    def warm_up(self, registrations: int = 2) -> None:
        """Prime connections and first-request caches before measuring
        (the paper's *stable* response regime)."""
        for _ in range(registrations):
            ue = self.testbed.add_subscriber()
            outcome = self.testbed.register(ue, establish_session=False)
            if not outcome.success:
                raise RuntimeError(
                    f"warm-up registration failed: {outcome.failure_cause}"
                )
