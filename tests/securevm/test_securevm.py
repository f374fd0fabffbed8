"""Secure-VM backend: boot, costs, TCB semantics, deployment."""

import json

import pytest

from repro.hw.host import paper_testbed_host
from repro.paka.deploy import IsolationMode
from repro.securevm.machine import SecureVm, SecureVmSpec
from repro.securevm.runtime import GUEST_KERNEL_ACTOR, SecureVmRuntime
from repro.testbed import Testbed, TestbedConfig


@pytest.fixture
def vm(host):
    machine = SecureVm(host, SecureVmSpec(name="eudm-vm"))
    machine.boot()
    return machine


@pytest.fixture
def runtime(host, vm):
    return SecureVmRuntime("eudm", host, vm)


class TestMachine:
    def test_boot_takes_seconds_not_a_minute(self, vm):
        assert 5.0 < vm.boot_span.seconds < 20.0

    def test_boot_produces_launch_measurement(self, vm):
        assert vm.launch_measurement is not None
        assert len(vm.launch_measurement) == 32

    def test_double_boot_rejected(self, vm):
        with pytest.raises(RuntimeError):
            vm.boot()

    def test_tcb_includes_guest_os(self):
        assert "guest-kernel" in SecureVm.TCB_COMPONENTS
        assert "guest-userspace" in SecureVm.TCB_COMPONENTS

    def test_runtime_requires_booted_vm(self, host):
        cold = SecureVm(host, SecureVmSpec(name="cold"))
        with pytest.raises(RuntimeError):
            SecureVmRuntime("x", host, cold)


class TestRuntime:
    def test_shielded_without_sgx_stats(self, runtime):
        assert runtime.shielded
        assert runtime.sgx_stats is None

    def test_io_syscalls_cost_vm_exits(self, runtime, host):
        t0 = host.clock.now_ns
        runtime.syscall("clock_gettime")
        in_guest = host.clock.now_ns - t0
        t0 = host.clock.now_ns
        runtime.syscall("sendmsg", bytes_out=256)
        with_exit = host.clock.now_ns - t0
        assert with_exit > in_guest + 1_500  # ~5.2k extra cycles

    def test_batch_and_profile_run_through_the_base_per_call_reference(
        self, runtime, host
    ):
        specs = [("clock_gettime", 0, 0), ("sendmsg", 256, 0), ("recvmsg", 0, 512)]
        t0 = host.clock.now_ns
        for name, bytes_out, bytes_in in specs:
            runtime.syscall(name, bytes_out, bytes_in)
        per_call = host.clock.now_ns - t0
        t0 = host.clock.now_ns
        runtime.syscall_batch(iter(specs))
        assert host.clock.now_ns - t0 == per_call
        handle = runtime.compile_syscalls(specs)
        t0 = host.clock.now_ns
        runtime.syscall_profile(handle)
        assert host.clock.now_ns - t0 == per_call

    def test_syscalls_cheaper_than_sgx_ocalls(self, host):
        """The headline §IV-C point: no enclave transition per syscall."""
        from tests.gramine.test_libos import make_runtime

        sgx = make_runtime(seed=31)
        t0 = sgx.host.clock.now_ns
        for _ in range(50):
            sgx.syscall("recvmsg", bytes_in=256)
        sgx_cost = sgx.host.clock.now_ns - t0

        vm = SecureVm(host, SecureVmSpec(name="m"))
        vm.boot()
        runtime = SecureVmRuntime("m", host, vm)
        t0 = host.clock.now_ns
        for _ in range(50):
            runtime.syscall("recvmsg", bytes_in=256)
        vm_cost = host.clock.now_ns - t0
        # Virtio I/O still pays VM exits, so the gap is large but not
        # unbounded: comfortably under two-thirds of the OCALL cost.
        assert vm_cost < sgx_cost * 0.65

    def test_host_side_view_is_ciphertext(self, runtime):
        runtime.store_secret("kausf", bytes(range(32)))
        for actor in ("hypervisor", "container-engine", "host-root"):
            view = runtime.memory_view(actor)
            assert bytes(range(32)).hex().encode() not in view

    def test_guest_kernel_exploit_reads_plaintext(self, runtime):
        """The TCB cost: the kernel is *inside* the trust domain."""
        runtime.store_secret("kausf", bytes(range(32)))
        view = json.loads(runtime.memory_view(GUEST_KERNEL_ACTOR).decode())
        assert view["kausf"] == bytes(range(32)).hex()

    def test_shutdown_destroys_vm(self, runtime):
        runtime.shutdown()
        assert runtime.vm.destroyed
        with pytest.raises(RuntimeError):
            runtime.compute(1)


class TestDeployment:
    def test_full_registration_through_secure_vm(self):
        testbed = Testbed.build(
            TestbedConfig(isolation=IsolationMode.SECURE_VM, seed=111)
        )
        assert testbed.paka.shielded
        assert set(testbed.paka.vms) == {"eudm", "eausf", "eamf"}
        ue = testbed.add_subscriber()
        outcome = testbed.register(ue)
        assert outcome.success
        assert ue.ue_address is not None

    def test_deploys_faster_than_gsc(self):
        vm_testbed = Testbed.build(
            TestbedConfig(isolation=IsolationMode.SECURE_VM, seed=112)
        )
        sgx_testbed = Testbed.build(TestbedConfig(isolation=IsolationMode.SGX, seed=112))
        vm_load = max(s.seconds for s in vm_testbed.paka.load_spans.values())
        sgx_load = min(s.seconds for s in sgx_testbed.paka.load_spans.values())
        assert vm_load < sgx_load / 3

    def test_latency_between_native_and_sgx(self):
        """Stable L_T ordering: container < secure VM < SGX."""
        from statistics import mean

        from repro.experiments.harness import MODULE_AKA_PATH

        def stable_lt(isolation, seed=113):
            testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=seed))
            for _ in range(6):
                ue = testbed.add_subscriber()
                assert testbed.register(ue, establish_session=False).success
            server = testbed.paka.modules["eudm"].server
            return mean(server.lt_us_by_path[MODULE_AKA_PATH["eudm"]][2:])

        container = stable_lt(IsolationMode.CONTAINER)
        secure_vm = stable_lt(IsolationMode.SECURE_VM)
        sgx = stable_lt(IsolationMode.SGX)
        assert container < secure_vm < sgx


class TestTcbAttack:
    def test_kernel_exploit_matrix(self):
        """Succeeds on container and secure VM, fails on SGX."""
        from repro.security.attacks import GuestKernelExploitAttack
        from repro.security.threat import Attacker

        outcomes = {}
        for isolation in (
            IsolationMode.CONTAINER,
            IsolationMode.SECURE_VM,
            IsolationMode.SGX,
        ):
            testbed = Testbed.build(TestbedConfig(isolation=isolation, seed=114))
            ue = testbed.add_subscriber()
            assert testbed.register(ue, establish_session=False).success
            attacker = Attacker("mallory", host=testbed.host, engine=testbed.engine)
            assert attacker.full_chain()
            result = GuestKernelExploitAttack().run(attacker, testbed)
            outcomes[isolation] = result.succeeded
        assert outcomes[IsolationMode.CONTAINER] is True
        assert outcomes[IsolationMode.SECURE_VM] is True
        assert outcomes[IsolationMode.SGX] is False
