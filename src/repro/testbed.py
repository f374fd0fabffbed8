"""Testbed assembly — the whole of Fig 4 in one object.

Builds the paper's testbed on a simulated Dell PowerEdge R450: the OAI
docker bridge, the core VNFs (NRF, UDR, UDM, AUSF, AMF, SMF, UPF), the
P-AKA module slice in the requested isolation mode, subscriber
provisioning and a gNB.  Examples, tests and every benchmark start here:

>>> testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX))
>>> ue = testbed.add_subscriber("0000000001")
>>> outcome = testbed.register(ue)
>>> outcome.success
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.container.engine import ContainerEngine
from repro.container.network import BridgeNetwork
from repro.crypto.kdf import serving_network_name
from repro.crypto.suci import Supi, x25519_public_key
from repro.fivegc.amf import Amf
from repro.fivegc.ausf import Ausf
from repro.fivegc.messages import RegistrationOutcome
from repro.fivegc.nrf import Nrf
from repro.fivegc.smf import Smf
from repro.fivegc.udm import Udm
from repro.fivegc.udr import AuthSubscription, Udr
from repro.fivegc.upf import Upf
from repro.hw.host import PhysicalHost, paper_testbed_host
from repro.net.sbi import NFType
from repro.paka.deploy import IsolationMode, PakaDeployment, PakaSlice
from repro.ran.gnb import Gnb
from repro.ran.ue import CommercialUE, UserEquipment
from repro.ran.usim import Usim
from repro.sim.rng import draw_bytes


@dataclass
class TestbedConfig:
    """Knobs for a testbed build."""

    __test__ = False  # not a pytest test class despite the name

    seed: int = 0
    mcc: str = "001"
    mnc: str = "01"
    # What isolates the P-AKA modules every testbed deploys: CONTAINER
    # (the paper's R^C, and its stand-in for the monolithic core), SGX
    # (R^S) or SECURE_VM.
    isolation: IsolationMode = IsolationMode.SGX
    # Per-module size overrides of the 512M enclave, e.g. {"eudm": "8G"}
    # for the Fig 8 sweep.
    enclave_size_overrides: Optional[Dict[str, str]] = None
    max_threads: int = 4
    preheat: bool = True
    exitless: bool = False
    # Inert: the event log keeps counts, which need no bound.  Only the
    # frozen hostbench still passes it.
    event_log_capacity: Optional[int] = None


class Testbed:
    """A fully wired 5G core + P-AKA slice + gNB on one host."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, config: TestbedConfig, host: PhysicalHost) -> None:
        self.config = config
        self.host = host
        self.engine = ContainerEngine(host)
        self.sbi = self.engine.create_network("oai-bridge")
        self.snn = serving_network_name(config.mcc, config.mnc).decode()
        self._subscriber_counter = 0

        # Home-network ECIES keypair for SUCI (Profile A).
        self.hn_private_key = host.rng.randbytes("hn.ecies", 32)
        self.hn_public_key = x25519_public_key(self.hn_private_key)

        # Core VNFs: one serving path (the paper's single slice, Fig 4).
        self.nrf = Nrf("nrf", host, self.sbi)
        self.udr = Udr("udr", host, self.sbi, hn_private_key=self.hn_private_key)
        self.udm = Udm("udm", host, self.sbi, hn_private_key=self.hn_private_key)
        self.ausf = Ausf("ausf", host, self.sbi)
        self.amf = Amf("amf", host, self.sbi, serving_network_name=self.snn)
        # One-element lists kept for the frozen hostbench, their only
        # reader (benchmarks/hostbench/workloads.py::_testbed_counters).
        self.udms, self.ausfs, self.amfs = [self.udm], [self.ausf], [self.amf]
        self.smf = Smf("smf", host, self.sbi)
        self.upf = Upf("upf", host, self.sbi)

        self.core_nfs = core_nfs = (
            self.nrf, self.udr, self.udm, self.ausf, self.amf, self.smf, self.upf,
        )
        registry = {nf.name: nf for nf in core_nfs}
        for nf in core_nfs[1:]:
            nf.register_with(self.nrf)
        self.udm.discover(NFType.UDR, registry)
        self.ausf.discover(NFType.UDM, registry)
        self.amf.discover(NFType.AUSF, registry)
        self.amf.discover(NFType.SMF, registry)
        self.smf.discover(NFType.UPF, registry)

        # P-AKA slice.
        self.deployment = PakaDeployment(host, self.engine, self.sbi)
        self.paka: PakaSlice = self.deployment.deploy(
            config.isolation,
            max_threads=config.max_threads,
            preheat=config.preheat,
            exitless=config.exitless,
            size_overrides=config.enclave_size_overrides,
        )
        self.udm.attach_module(self.paka.modules["eudm"])
        self.ausf.attach_module(self.paka.modules["eausf"])
        self.amf.attach_module(self.paka.modules["eamf"])

        self.gnb = Gnb("gnb-0", host, self.amf, plmn=config.mcc + config.mnc)

    # ------------------------------------------------------------- factory

    @classmethod
    def build(cls, config: Optional[TestbedConfig] = None) -> "Testbed":
        config = config or TestbedConfig()
        return cls(config, paper_testbed_host(seed=config.seed))

    # --------------------------------------------------------- subscribers

    def add_subscriber(
        self,
        msin: Optional[str] = None,
        commercial: bool = False,
        os_version: Optional[str] = None,
    ) -> UserEquipment:
        """Provision a subscriber in the UDR (and the eUDM module) and
        return its UE."""
        if msin is None:
            self._subscriber_counter += 1
            msin = f"{self._subscriber_counter:010d}"
        supi = Supi(mcc=self.config.mcc, mnc=self.config.mnc, msin=msin)
        # Drawn once each, so the streams are not kept: a subscriber's
        # key is a pure function of (seed, msin).
        k = draw_bytes(self.host.rng.fresh_stream(f"sub.{msin}.k"), 16)
        opc = draw_bytes(self.host.rng.fresh_stream(f"sub.{msin}.opc"), 16)
        self.udr.provision(AuthSubscription(supi=str(supi), k=k, opc=opc))
        self.paka.modules["eudm"].provision_direct(str(supi), k)
        usim = Usim(supi=supi, k=k, opc=opc)
        ue_name = f"ue-{msin}"
        if commercial:
            kwargs = {} if os_version is None else {"os_version": os_version}
            return CommercialUE(
                ue_name, usim, self.hn_public_key, self.host.rng, self.snn, **kwargs
            )
        return UserEquipment(ue_name, usim, self.hn_public_key, self.host.rng, self.snn)

    # ------------------------------------------------------------ actions

    def register(self, ue: UserEquipment, establish_session: bool = True) -> RegistrationOutcome:
        return self.gnb.register(ue, establish_session=establish_session)

    def module_servers(self) -> Dict[str, object]:
        """The module HTTP servers (for metric collection)."""
        return {name: module.server for name, module in self.paka.modules.items()}

    def collect_metrics(self, registry=None, fault_injector=None):
        """Snapshot the whole testbed into a ``repro.obs`` registry."""
        from repro.obs.collect import collect_testbed_metrics

        return collect_testbed_metrics(
            self, registry=registry, fault_injector=fault_injector
        )

    def trace_registration(self, establish_session: bool = False):
        """Trace one fresh registration (see :mod:`repro.obs.collect`)."""
        from repro.obs.collect import trace_registration

        return trace_registration(self, establish_session=establish_session)

    def idle(self, duration_s: float) -> None:
        """Let the slice sit idle concurrently (drives Table III's AEXs)."""
        for module in self.paka.modules.values():
            module.runtime.idle(duration_s)
        self.host.clock.advance_s(duration_s)
        self.host.tick()

    def teardown(self) -> None:
        self.paka.teardown(self.engine)
        for nf in (
            self.upf, self.smf, self.amf, self.ausf, self.udm, self.udr, self.nrf,
        ):
            nf.shutdown()
