"""Physical host: CPU packages + RAM + shared simulation services.

A host is the unit of co-residency in the threat model: containers,
enclaves and attacker processes deployed on the same host share its clock,
RNG and memory.  The paper's deployment policy requires each P-AKA module
to be co-located with its parent VNF on the same host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.hw.cpu import Cpu, CpuSpec, XEON_SILVER_4314
from repro.sim.clock import SimClock
from repro.sim.events import EventLog
from repro.sim.rng import RngService

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.obs
    from repro.obs.scrape import Scraper
    from repro.obs.trace import Tracer


class _NullSpan:
    """What the observation seam hands out while nothing is recording.

    Stands in for both a :class:`~repro.obs.trace.Span` and a
    :class:`~repro.obs.trace.RootTrace`: entering, leaving, tagging and
    recording all do nothing, and it carries no trace identity.
    """

    __slots__ = ()
    traceparent = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def tag(self, **tags: Any) -> None:
        pass

    def record(self, success: bool, sojourn_ns: int, exemplars: Dict) -> None:
        pass


NULL_SPAN = _NullSpan()


@dataclass
class PhysicalHost:
    """A COTS server in the NFV infrastructure.

    The host is also the **observation seam** (docs/ARCHITECTURE.md):
    protocol code opens windows with :meth:`span` / :meth:`trace`, tags
    the covering span with :meth:`annotate` and yields to the scraper
    with :meth:`tick`, and never learns whether anyone is watching.
    """

    name: str
    clock: SimClock
    rng: RngService
    events: EventLog
    cpus: List[Cpu] = field(default_factory=list)
    ram_bytes: int = 0
    # Installed by ``repro.obs`` (``collect.observe`` for a campaign arm,
    # ``collect.trace_registration`` for one registration); both only read
    # the clock, so an observed run spends identical simulated nanoseconds.
    tracer: Optional["Tracer"] = field(default=None, repr=False)
    monitor: Optional["Scraper"] = field(default=None, repr=False)
    # How many enclaves and VMs this host has created: see instance_serial.
    _instances: int = field(default=0, init=False, repr=False, compare=False)

    # --------------------------------------------------- observation seam

    @property
    def tracing(self) -> bool:
        """True while a tracer is installed (:meth:`span`, the hottest
        reader, makes the same test on one read of ``self.tracer``)."""
        return self.tracer is not None

    def span(self, name: str, kind: str = "", **tags: Any):
        """Open a span over the ``with`` block (no-op unless tracing)."""
        tracer = self.tracer
        if tracer is not None:
            return tracer.begin(name, kind, **tags)
        return NULL_SPAN

    def trace(
        self,
        name: str,
        kind: str,
        supi: Optional[str] = None,
        closing_tags: Callable[[], Dict[str, Any]] = dict,
        **tags: Any,
    ):
        """Open a root span with its whole lifecycle (see
        :meth:`repro.obs.trace.Tracer.trace`); no-op unless tracing."""
        if self.tracing:
            return self.tracer.trace(name, kind, supi, closing_tags, **tags)
        return NULL_SPAN

    def annotate(self, **tags: Any) -> None:
        """Tag the innermost open span (no new span, no clock read)."""
        if self.tracing:
            self.tracer.annotate(**tags)

    def tick(self) -> None:
        """Let an installed scraper sample if its cadence is due."""
        monitor = self.monitor
        if monitor is not None:
            monitor.tick()

    def instance_serial(self) -> int:
        """Number the next enclave or VM created on this host.

        The seed-stable identity a per-instance hardware key derives
        from: same-seed hosts number their instances alike, two
        instances on one host differ, and no RNG stream is drawn.
        """
        self._instances += 1
        return self._instances

    @property
    def cpu(self) -> Cpu:
        """Primary CPU package (experiments pin to one package)."""
        if not self.cpus:
            raise RuntimeError(f"host {self.name!r} has no CPU")
        return self.cpus[0]

    @property
    def sgx_capable(self) -> bool:
        return any(c.spec.sgx_capable for c in self.cpus)

    @property
    def total_epc_bytes(self) -> int:
        """Combined EPC across packages (paper testbed: 16 GB)."""
        return sum(c.spec.max_epc_bytes for c in self.cpus if c.spec.sgx_capable)


def paper_testbed_host(
    name: str = "poweredge-r450",
    seed: int = 0,
    cpu_spec: CpuSpec = XEON_SILVER_4314,
    n_cpus: int = 2,
    ram_bytes: int = 512 * 1024**3,
) -> PhysicalHost:
    """Build the paper's Dell PowerEdge R450 testbed host.

    Two SGXv2-capable Xeon Silver 4314 packages, 512 GB DDR4 and a 16 GB
    combined EPC carve-out.
    """
    clock = SimClock()
    rng = RngService(seed)
    host = PhysicalHost(
        name=name, clock=clock, rng=rng, events=EventLog(), ram_bytes=ram_bytes
    )
    host.cpus = [Cpu(cpu_spec, clock) for _ in range(n_cpus)]
    return host
