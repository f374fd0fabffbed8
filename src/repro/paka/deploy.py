"""P-AKA deployment: build, shield and launch the three modules.

Reproduces the paper's §IV-C pipeline: OAI-style module images are built,
graminized with GSC (preheat on, 4 threads, 512 MB EPC by default),
signed, loaded through the PAL under aesmd launch control, and started as
containers on the OAI docker bridge.  ``IsolationMode.CONTAINER`` skips
the shielding and runs the identical module code natively — the paper's
baseline.

Deployment policy (§IV-B): 3GPP requires long-term keys to remain in the
UDM's secure environment, so each module must be co-located with its
parent VNF on the same physical host; :func:`enforce_colocation` raises
when an operator violates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.container.engine import Container, ContainerEngine
from repro.container.image import ContainerImage, oai_base_image
from repro.container.network import BridgeNetwork
from repro.gramine.gsc import GscConfig, build_gsc_image, sign_gsc_image
from repro.gramine.libos import GramineEnclaveRuntime
from repro.gramine.manifest import GramineManifest
from repro.gramine.pal import PlatformAdaptationLayer
from repro.hw.host import PhysicalHost
from repro.paka.modules import EamfPakaModule, EausfPakaModule, EudmPakaModule, PakaModule
from repro.runtime.native import NativeRuntime
from repro.securevm.machine import SecureVm, SecureVmSpec
from repro.securevm.runtime import SecureVmRuntime
from repro.sgx.aesm import AesmDaemon
from repro.sgx.enclave import Enclave
from repro.sgx.epc import EpcManager
from repro.sim.clock import TimeSpan


class IsolationMode(Enum):
    CONTAINER = "container"  # plain docker container (baseline)
    SGX = "sgx"  # GSC / Gramine / SGX enclave (P-AKA)
    SECURE_VM = "secure-vm"  # SEV/TDX-style confidential VM (§IV-C tradeoff)


class DeploymentPolicyError(Exception):
    """A 3GPP deployment policy was violated."""


def enforce_colocation(parent_host: PhysicalHost, module_host: PhysicalHost) -> None:
    """§IV-B: P-AKA modules must share the physical host of their parent."""
    if parent_host.name != module_host.name:
        raise DeploymentPolicyError(
            f"P-AKA module on host {module_host.name!r} but parent VNF on "
            f"{parent_host.name!r}: long-term keys must remain in the "
            f"UDM's secure environment (TS 33.501)"
        )


# Module image bulk sizes (MB).  GSC hashes ~the whole rootfs as trusted
# files, so these sizes set the enclave load times of Fig 7.
_MODULE_BULK_MB = {"eudm": 3165, "eausf": 3120, "eamf": 3075}
_MODULE_CLASSES = {
    "eudm": EudmPakaModule,
    "eausf": EausfPakaModule,
    "eamf": EamfPakaModule,
}


@dataclass
class PakaSlice:
    """The deployed slice of three P-AKA modules."""

    mode: IsolationMode
    modules: Dict[str, PakaModule]
    containers: Dict[str, Container]
    enclaves: Dict[str, Enclave] = field(default_factory=dict)
    vms: Dict[str, "SecureVm"] = field(default_factory=dict)
    load_spans: Dict[str, TimeSpan] = field(default_factory=dict)
    # All instances per module name when deployed with replicas > 1
    # (modules[name] is the first replica).
    replica_groups: Dict[str, List[PakaModule]] = field(default_factory=dict)

    @property
    def shielded(self) -> bool:
        return self.mode in (IsolationMode.SGX, IsolationMode.SECURE_VM)

    def module(self, name: str) -> PakaModule:
        try:
            return self.modules[name]
        except KeyError:
            raise KeyError(f"no P-AKA module {name!r} (have {sorted(self.modules)})")

    def teardown(self, engine: ContainerEngine) -> None:
        for module in self.modules.values():
            module.server.stop()
        for container in self.containers.values():
            engine.remove(container.name)
        self.modules.clear()
        self.containers.clear()


class PakaDeployment:
    """Factory for P-AKA slices on one host."""

    def __init__(
        self,
        host: PhysicalHost,
        engine: ContainerEngine,
        network: BridgeNetwork,
        signing_key: bytes = b"operator-signing-key-0001-sgx-paka",
        platform_id: str = "platform-0",
    ) -> None:
        self.host = host
        self.engine = engine
        self.network = network
        self.signing_key = signing_key
        self.epc_manager = EpcManager(host.total_epc_bytes, host.cpu)
        self.aesmd = AesmDaemon(platform_id)
        self.pal = PlatformAdaptationLayer(host, self.epc_manager, self.aesmd)
        self._instance = 0

    def default_manifest(self, entrypoint: str) -> GramineManifest:
        """The paper's manifest: preheat on, 4 threads, 512 MB, stats."""
        return GramineManifest(
            entrypoint=entrypoint,
            enclave_size="512M",
            max_threads=4,
            preheat_enclave=True,
            debug=True,  # the paper builds with debug to collect stats
            enable_stats=True,
        )

    def build_module_image(self, short_name: str) -> ContainerImage:
        image, _ = oai_base_image(
            f"{short_name}-aka", bulk_mb=_MODULE_BULK_MB[short_name]
        )
        return image

    def deploy(
        self,
        mode: IsolationMode,
        module_names: Optional[List[str]] = None,
        enclave_size: str = "512M",
        max_threads: int = 4,
        preheat: bool = True,
        exitless: bool = False,
        size_overrides: Optional[Dict[str, str]] = None,
        replicas: int = 1,
    ) -> PakaSlice:
        """Deploy the requested modules (default: all three).

        ``size_overrides`` resizes individual modules (the paper's Fig 8
        sweep varies only the eUDM enclave while the others stay at the
        default).  ``replicas`` deploys N instances of each module —
        the horizontal scaling the paper's §V-B7 points out the
        microservice design enables.
        """
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        names = module_names or ["eudm", "eausf", "eamf"]
        overrides = size_overrides or {}
        self._instance += 1
        slice_ = PakaSlice(mode=mode, modules={}, containers={})
        for short_name in names:
            group: List[PakaModule] = []
            for replica in range(replicas):
                key = short_name if replicas == 1 else f"{short_name}#{replica}"
                self._deploy_one(
                    slice_,
                    short_name,
                    mode,
                    overrides.get(short_name, enclave_size),
                    max_threads,
                    preheat,
                    exitless,
                    instance_key=key,
                )
                group.append(slice_.modules[key])
            slice_.replica_groups[short_name] = group
            if replicas > 1:
                slice_.modules[short_name] = group[0]
        return slice_

    def _deploy_one(
        self,
        slice_: PakaSlice,
        short_name: str,
        mode: IsolationMode,
        enclave_size: str,
        max_threads: int,
        preheat: bool,
        exitless: bool,
        instance_key: Optional[str] = None,
    ) -> None:
        key = instance_key or short_name
        image = self.build_module_image(short_name)
        container_name = f"{key.replace('#', '-')}-paka-{self._instance}"

        if mode is IsolationMode.SGX:
            manifest = self.default_manifest(image.entrypoint)
            manifest = GramineManifest(
                entrypoint=manifest.entrypoint,
                enclave_size=enclave_size,
                max_threads=max_threads,
                preheat_enclave=preheat,
                debug=manifest.debug,
                enable_stats=manifest.enable_stats,
            )
            gsc = sign_gsc_image(build_gsc_image(image, manifest), self.signing_key)

            def factory(cname: str, host: PhysicalHost) -> GramineEnclaveRuntime:
                enclave, span = self.pal.load_enclave(gsc.build_info)
                slice_.enclaves[key] = enclave
                slice_.load_spans[key] = span
                runtime = GramineEnclaveRuntime(
                    cname, host, enclave, gsc.manifest, exitless=exitless
                )
                runtime.start()
                return runtime

            container = self.engine.run(
                gsc.image, name=container_name, runtime_factory=factory
            )
        elif mode is IsolationMode.SECURE_VM:
            # SEV/TDX path: the unmodified image boots inside a
            # confidential VM — no graminizing, no trusted-file
            # measurement, a ~10 s guest boot instead.
            def vm_factory(cname: str, host: PhysicalHost) -> SecureVmRuntime:
                vm = SecureVm(host, SecureVmSpec(name=cname))
                slice_.load_spans[key] = vm.boot()
                slice_.vms[key] = vm
                return SecureVmRuntime(cname, host, vm)

            container = self.engine.run(
                image, name=container_name, runtime_factory=vm_factory
            )
        else:
            container = self.engine.run(
                image,
                name=container_name,
                runtime_factory=lambda cname, host: NativeRuntime(cname, host),
            )

        enforce_colocation(self.host, container.host)
        module_class = _MODULE_CLASSES[short_name]
        module = module_class(
            name=f"{key.replace('#', '-')}-paka-srv-{self._instance}",
            runtime=container.runtime,
            network=self.network,
        )
        module.start()
        slice_.modules[key] = module
        slice_.containers[key] = container
