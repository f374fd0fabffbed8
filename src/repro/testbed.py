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

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.container.engine import ContainerEngine
from repro.container.network import BridgeNetwork
from repro.crypto.kdf import serving_network_name
from repro.crypto.suci import Supi, x25519_public_key
from repro.fivegc.amf import Amf
from repro.fivegc.ausf import Ausf
from repro.fivegc.messages import RegistrationOutcome
from repro.fivegc.nf_base import CONTROL_PLANE_RING_SEED
from repro.fivegc.nrf import Nrf
from repro.fivegc.routing import ControlPlaneRouter, shard_labels, supi_ring
from repro.fivegc.smf import Smf
from repro.fivegc.udm import Udm
from repro.fivegc.udr import AuthSubscription, Udr
from repro.fivegc.upf import Upf
from repro.hw.host import PhysicalHost, paper_testbed_host
from repro.net.sbi import NFType
from repro.paka.deploy import IsolationMode, PakaDeployment, PakaSlice
from repro.paka.modules import EamfPakaModule, EausfPakaModule, EudmPakaModule
from repro.ran.gnb import AirLinkModel, Gnb
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
    # None = monolithic VNFs (no external modules); CONTAINER / SGX = the
    # paper's two external-module deployments.
    isolation: Optional[IsolationMode] = IsolationMode.SGX
    enclave_size: str = "512M"
    # Per-module size overrides, e.g. {"eudm": "8G"} for the Fig 8 sweep.
    enclave_size_overrides: Optional[Dict[str, str]] = None
    max_threads: int = 4
    preheat: bool = True
    exitless: bool = False
    airlink: AirLinkModel = field(default_factory=AirLinkModel)
    # Bound the host event log for campaign-scale runs (None = unbounded).
    # Purely an observer-side memory knob: trims diagnostics retention,
    # never the simulated costs, so clocks stay bit-identical either way.
    event_log_capacity: Optional[int] = None
    # Sharded control plane: N replica sets of the serving path
    # (amf-k ↔ ausf-k ↔ udm-k, each with its own P-AKA module slice),
    # all NRF-registered; UEs are pinned to a slice by a seeded
    # consistent hash of their SUPI.  1 = the paper's single-slice
    # deployment, bit-identical to the pre-shard testbed.
    replicas: int = 1


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

        replicas = config.replicas
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        # Shard labels: the single-slice deployment advertises none (its
        # NRF profiles — and thus every wire byte and simulated clock
        # tick — stay identical to the pre-shard testbed); replicated
        # slices are labelled "0".."N-1" and keyed off the shared ring.
        shards: List[Optional[str]] = (
            [None] if replicas == 1 else list(shard_labels(replicas))
        )

        def replica_name(base: str, index: int) -> str:
            return base if index == 0 else f"{base}-{index}"

        # Core VNFs.  The first replica of each serving-path NF keeps the
        # legacy name ("udm", "ausf", "amf") so named RNG streams and NRF
        # bodies are unchanged in the replicas=1 deployment.
        self.nrf = Nrf("nrf", host, self.sbi)
        self.udr = Udr("udr", host, self.sbi, hn_private_key=self.hn_private_key)
        self.udms = [
            Udm(
                replica_name("udm", k), host, self.sbi,
                hn_private_key=self.hn_private_key, shard=shards[k],
            )
            for k in range(replicas)
        ]
        self.ausfs = [
            Ausf(replica_name("ausf", k), host, self.sbi, shard=shards[k])
            for k in range(replicas)
        ]
        self.amfs = [
            Amf(
                replica_name("amf", k), host, self.sbi,
                serving_network_name=self.snn, shard=shards[k],
            )
            for k in range(replicas)
        ]
        self.udm = self.udms[0]
        self.ausf = self.ausfs[0]
        self.amf = self.amfs[0]
        self.smf = Smf("smf", host, self.sbi)
        self.upf = Upf("upf", host, self.sbi)

        core_nfs = (
            self.nrf, self.udr, *self.udms, *self.ausfs, *self.amfs,
            self.smf, self.upf,
        )
        registry = {nf.name: nf for nf in core_nfs}
        for nf in core_nfs[1:]:
            nf.register_with(self.nrf)
        for udm in self.udms:
            udm.discover(NFType.UDR, registry)
        for ausf in self.ausfs:
            ausf.discover(NFType.UDM, registry)
        for amf in self.amfs:
            amf.discover(NFType.AUSF, registry)
            amf.discover(NFType.SMF, registry)
        self.smf.discover(NFType.UPF, registry)

        # UE→slice pinning, shared by every layer of the deployment.
        self.router: Optional[ControlPlaneRouter] = None
        self._udm_by_shard: Dict[str, Udm] = {}
        if replicas > 1:
            ring = supi_ring(replicas, seed=CONTROL_PLANE_RING_SEED)
            amf_by_shard = dict(zip(shard_labels(replicas), self.amfs))
            self.router = ControlPlaneRouter(ring, amf_by_shard)
            self._udm_by_shard = dict(zip(shard_labels(replicas), self.udms))

        # P-AKA slice.
        self.deployment = PakaDeployment(host, self.engine, self.sbi)
        self.paka: Optional[PakaSlice] = None
        if config.isolation is not None:
            self.paka = self.deployment.deploy(
                config.isolation,
                enclave_size=config.enclave_size,
                max_threads=config.max_threads,
                preheat=config.preheat,
                exitless=config.exitless,
                size_overrides=config.enclave_size_overrides,
                replicas=replicas,
            )
            # Module k belongs to slice k: the shard's NF talks only to
            # its own P-AKA module (long-term key state stays per-slice).
            for udm, module in zip(self.udms, self.paka.replica_groups["eudm"]):
                assert isinstance(module, EudmPakaModule)
                udm.attach_module(module)
            for ausf, module in zip(self.ausfs, self.paka.replica_groups["eausf"]):
                assert isinstance(module, EausfPakaModule)
                ausf.attach_module(module)
            for amf, module in zip(self.amfs, self.paka.replica_groups["eamf"]):
                assert isinstance(module, EamfPakaModule)
                amf.attach_module(module)

        # RAN.  A sharded deployment hands the gNB the SUPI router so N2
        # traffic enters at the UE's own slice.
        self.gnb = Gnb(
            "gnb-0", host, self.amf, plmn=config.mcc + config.mnc,
            airlink=config.airlink, router=self.router,
        )

    # ------------------------------------------------------------- factory

    @classmethod
    def build(cls, config: Optional[TestbedConfig] = None) -> "Testbed":
        config = config or TestbedConfig()
        host = paper_testbed_host(
            seed=config.seed, event_log_capacity=config.event_log_capacity
        )
        return cls(config, host)

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
        # Shard-aware provisioning: the key goes into the eUDM module of
        # the slice that will serve this SUPI (the only module that will
        # ever generate its vectors).
        udm = (
            self.udm
            if self.router is None
            else self._udm_by_shard[self.router.shard_for(str(supi))]
        )
        if udm.offload_module is not None:
            udm.provision_module_key(str(supi), k)
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
        """The module HTTP servers (for metric collection), one entry per
        deployed replica (``eudm`` for slice 0, ``eudm#1`` … beyond)."""
        if self.paka is None:
            return {}
        servers: Dict[str, object] = {}
        for short_name, group in self.paka.replica_groups.items():
            for k, module in enumerate(group):
                key = short_name if k == 0 else f"{short_name}#{k}"
                servers[key] = module.server
        return servers

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
        if self.paka is not None:
            for module in self.paka.modules.values():
                module.runtime.idle(duration_s, advance_clock=False)
        self.host.clock.advance_s(duration_s)
        self.host.tick()

    def teardown(self) -> None:
        if self.paka is not None:
            self.paka.teardown(self.engine)
        for nf in (
            self.upf, self.smf, *reversed(self.amfs), *reversed(self.ausfs),
            *reversed(self.udms), self.udr, self.nrf,
        ):
            nf.shutdown()
