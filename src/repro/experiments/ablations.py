"""Ablation experiments for the design choices DESIGN.md calls out.

The paper motivates several decisions qualitatively — preheat enabled,
exitless left off, Gramine over a native port, SGX over secure VMs, a
kernel TCP stack over mTCP/DPDK (§IV-C, §V-B7).  Each ablation here
turns one of those knobs and measures both sides of the tradeoff.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Optional

from repro.container.engine import ContainerEngine
from repro.experiments.harness import (
    MODULE_AKA_PATH,
    BandCheck,
    ExperimentReport,
    build_testbed,
    collect_module_latencies,
    warmed_testbed,
)
from repro.experiments.parallel import Arm, run_arms
from repro.experiments.stats import summarize
from repro.hw.host import paper_testbed_host
from repro.net.http import HttpClient, ServerSyscallProfile
from repro.net.sbi import EUDM_GENERATE_AV, REQUEST, write
from repro.paka.deploy import IsolationMode, PakaDeployment
from repro.runtime.native import NativeRuntime


def _collect_preheat_arm(
    preheat: bool, registrations: int, seed: int
) -> "Dict[str, object]":
    """One preheat-ablation arm: eUDM load time and response-time series."""
    testbed = build_testbed(IsolationMode.SGX, seed=seed, preheat=preheat)
    load_s = testbed.paka.load_spans["eudm"].seconds
    data = collect_module_latencies(testbed, registrations, skip=0)["eudm"]
    return {"load_s": load_s, "r_us": data["r_us"]}


def _collect_exitless_arm(
    exitless: bool, registrations: int, seed: int
) -> "Dict[str, object]":
    """One exitless-ablation arm: eUDM L_T series and transition deltas."""
    testbed = warmed_testbed(IsolationMode.SGX, seed=seed, exitless=exitless)
    before = testbed.paka.enclaves["eudm"].stats.snapshot()
    data = collect_module_latencies(testbed, registrations, skip=1)["eudm"]
    delta = testbed.paka.enclaves["eudm"].stats.delta(before)
    return {
        "lt_us": data["lt_us"],
        "eenters": float(delta.eenters),
        "ocalls": float(delta.ocalls),
    }


def _collect_backend_arm(
    isolation_value: str, registrations: int, seed: int
) -> "Dict[str, object]":
    """One HMEE-backend arm: latency series, deploy time and the
    guest-kernel TCB attack outcome."""
    from repro.security.attacks import GuestKernelExploitAttack
    from repro.security.threat import Attacker

    testbed = warmed_testbed(IsolationMode(isolation_value), seed=seed)
    data = collect_module_latencies(testbed, registrations, skip=1)["eudm"]
    deploy_s: Optional[float] = None
    if testbed.paka.load_spans:
        deploy_s = max(span.seconds for span in testbed.paka.load_spans.values())
    attacker = Attacker("mallory", host=testbed.host, engine=testbed.engine)
    if not attacker.full_chain():  # pragma: no cover - p ≈ 0.001
        raise RuntimeError("attacker chain failed")
    result = GuestKernelExploitAttack().run(attacker, testbed)
    return {
        "lt_us": data["lt_us"],
        "deploy_s": deploy_s,
        "kernel_exploit": bool(result.succeeded),
    }


def preheat_ablation(
    registrations: int = 40, seed: int = 120, jobs: int = 1
) -> ExperimentReport:
    """Preheat on vs off: load-time cost vs first-request cost.

    The paper enables ``sgx.preheat_enclave`` because it "shifts the cost
    of EPC page faults to the initialization phase, which is beneficial
    when a server is expected to start and receive connections after some
    time".  This ablation measures both sides of that shift.
    """
    report = ExperimentReport(
        experiment_id="A1/preheat", title="Preheat ablation: load vs first request"
    )
    arm_data = run_arms(
        [
            Arm(
                key="preheat" if preheat else "no-preheat",
                fn=_collect_preheat_arm,
                kwargs={
                    "preheat": preheat,
                    "registrations": registrations,
                    "seed": seed,
                },
            )
            for preheat in (True, False)
        ],
        jobs=jobs,
    )
    results: Dict[bool, Dict[str, float]] = {}
    for preheat in (True, False):
        label = "preheat" if preheat else "no-preheat"
        load_s = arm_data[label]["load_s"]
        r_us: List[float] = arm_data[label]["r_us"]
        results[preheat] = {
            "load_s": load_s,
            "r_initial_us": r_us[0],
            "r_stable_us": mean(r_us[3:]),
        }
        report.derived[f"{label}_load_s"] = load_s
        report.derived[f"{label}_r_initial_ms"] = r_us[0] / 1000.0
        report.series[f"{label}/R"] = summarize(f"{label} R", r_us[3:], "us")

    load_saving = results[True]["load_s"] - results[False]["load_s"]
    first_request_penalty = (
        results[False]["r_initial_us"] - results[True]["r_initial_us"]
    )
    report.derived["load_saving_s"] = load_saving
    report.derived["first_request_penalty_ms"] = first_request_penalty / 1000.0
    report.checks.append(
        BandCheck("preheat costs load time (s saved without)", load_saving, 0.2, 5.0)
    )
    report.checks.append(
        BandCheck(
            "no-preheat penalises the first request (ms)",
            first_request_penalty / 1000.0,
            20.0,
            400.0,
        )
    )
    report.checks.append(
        BandCheck(
            "stable response unaffected by preheat (ratio)",
            results[False]["r_stable_us"] / results[True]["r_stable_us"],
            0.95,
            1.05,
        )
    )
    return report


def exitless_ablation(
    registrations: int = 60, seed: int = 121, jobs: int = 1
) -> ExperimentReport:
    """Gramine's exitless mode: fewer transitions, faster OCALL path.

    The paper notes exitless "offloads OCALL execution to an untrusted
    helper thread... improving OCALL performance" but is "insecure for
    production usage as of now" — so it stays off in the main results.
    """
    report = ExperimentReport(
        experiment_id="A2/exitless", title="Exitless ablation: transitions vs latency"
    )
    arm_data = run_arms(
        [
            Arm(
                key="exitless" if exitless else "transitioning",
                fn=_collect_exitless_arm,
                kwargs={
                    "exitless": exitless,
                    "registrations": registrations,
                    "seed": seed,
                },
            )
            for exitless in (False, True)
        ],
        jobs=jobs,
    )
    for exitless in (False, True):
        label = "exitless" if exitless else "transitioning"
        report.derived[f"{label}_eenters"] = arm_data[label]["eenters"]
        report.derived[f"{label}_ocalls"] = arm_data[label]["ocalls"]
        report.series[f"{label}/LT"] = summarize(
            f"{label} L_T", arm_data[label]["lt_us"], "us"
        )

    speedup = report.series["transitioning/LT"].mean / report.series["exitless/LT"].mean
    report.derived["exitless_lt_speedup"] = speedup
    report.checks.append(
        BandCheck("exitless speeds up L_T (factor)", speedup, 1.1, 2.5)
    )
    report.checks.append(
        BandCheck(
            "exitless removes per-request EENTERs",
            report.derived["exitless_eenters"],
            0,
            0.02 * max(report.derived["transitioning_eenters"], 1),
        )
    )
    report.checks.append(
        BandCheck(
            "OCALLs still happen logically (ratio)",
            report.derived["exitless_ocalls"]
            / max(report.derived["transitioning_ocalls"], 1),
            0.9,
            1.1,
        )
    )
    report.notes = "exitless is not production-safe; main results keep it off"
    return report


def hmee_backend_comparison(
    registrations: int = 60, seed: int = 122, jobs: int = 1
) -> ExperimentReport:
    """SGX vs secure VM (SEV/TDX) vs plain container — §IV-C's tradeoff.

    Measures deployment time and stable latency per backend and executes
    the guest-kernel TCB attack against each.  Backends are independent
    testbeds, so ``jobs > 1`` measures them in parallel.
    """
    report = ExperimentReport(
        experiment_id="A3/hmee-backends",
        title="HMEE backend comparison: container vs SGX vs secure VM",
    )
    backends = (
        IsolationMode.CONTAINER,
        IsolationMode.SECURE_VM,
        IsolationMode.SGX,
    )
    arm_data = run_arms(
        [
            Arm(
                key=isolation.value,
                fn=_collect_backend_arm,
                kwargs={
                    "isolation_value": isolation.value,
                    "registrations": registrations,
                    "seed": seed,
                },
            )
            for isolation in backends
        ],
        jobs=jobs,
    )
    lt_means: Dict[str, float] = {}
    for isolation in backends:
        label = isolation.value
        data = arm_data[label]
        report.series[f"{label}/LT"] = summarize(f"{label} L_T", data["lt_us"], "us")
        lt_means[label] = report.series[f"{label}/LT"].mean
        if data["deploy_s"] is not None:
            report.derived[f"{label}_deploy_s"] = data["deploy_s"]
        report.rows.append(
            {
                "backend": label,
                "stable_LT_us": round(lt_means[label], 1),
                "kernel_exploit_steals_keys": data["kernel_exploit"],
            }
        )
        report.derived[f"{label}_kernel_exploit"] = float(data["kernel_exploit"])

    report.checks.append(
        BandCheck(
            "latency ordering container < secure-vm (ratio)",
            lt_means["secure-vm"] / lt_means["container"],
            1.02,
            1.6,
        )
    )
    report.checks.append(
        BandCheck(
            "latency ordering secure-vm < sgx (ratio)",
            lt_means["sgx"] / lt_means["secure-vm"],
            1.2,
            2.2,
        )
    )
    report.checks.append(
        BandCheck(
            "secure VM deploys much faster than GSC (ratio)",
            report.derived["sgx_deploy_s"] / report.derived["secure-vm_deploy_s"],
            3.0,
            20.0,
        )
    )
    report.checks.append(
        BandCheck("kernel exploit beats container", report.derived["container_kernel_exploit"], 1, 1)
    )
    report.checks.append(
        BandCheck("kernel exploit beats secure VM (large TCB)",
                  report.derived["secure-vm_kernel_exploit"], 1, 1)
    )
    report.checks.append(
        BandCheck("kernel exploit loses to SGX (small TCB)",
                  report.derived["sgx_kernel_exploit"], 0, 0)
    )
    return report


def userlevel_tcp_ablation(requests: int = 120, seed: int = 123) -> ExperimentReport:
    """mTCP/DPDK-style user-level networking inside the enclave (§V-B7).

    Compares the Pistache-style kernel-socket server against the same
    module with a user-level TCP profile: per-request OCALLs collapse,
    total latency drops, in exchange for more in-enclave code (TCB).
    """
    from repro.paka.modules import EudmPakaModule

    report = ExperimentReport(
        experiment_id="A4/userlevel-tcp",
        title="User-level TCP stack inside the enclave (mTCP/DPDK style)",
    )
    results = {}
    for label, profile in (
        ("kernel-tcp", None),
        ("userlevel-tcp", ServerSyscallProfile.userlevel_tcp()),
    ):
        host = paper_testbed_host(seed=seed)
        engine = ContainerEngine(host)
        network = engine.create_network("oai-bridge")
        deployment = PakaDeployment(host, engine, network)
        slice_ = deployment.deploy(IsolationMode.SGX, module_names=["eudm"])
        module = slice_.module("eudm")
        if profile is not None:
            # Rebind the server with the user-level profile.
            module.server.stop()
            module = EudmPakaModule(
                name=f"eudm-mtcp-{seed}", runtime=module.runtime,
                network=network, profile=profile,
            )
            module.start()
        module.provision_direct("imsi-001010000000001", bytes(16))
        client = HttpClient(f"vnf-{label}", NativeRuntime(f"vnf-{label}", host), network)
        connection = client.connect(module.server)
        payload = write(EUDM_GENERATE_AV, {
            "supi": "imsi-001010000000001", "opc": bytes(16), "rand": b"\x11" * 16,
            "sqn": (1).to_bytes(6, "big"), "amfField": b"\x80\x00",
            "snn": "5G:mnc001.mcc001.3gppnetwork.org",
        }, REQUEST)
        stats_before = slice_.enclaves["eudm"].stats.snapshot()
        for _ in range(requests):
            response = client.request(connection, "POST", EUDM_GENERATE_AV, body=payload)
            if not response.ok:
                raise RuntimeError(f"{label}: eUDM answered {response.status}")
        delta = slice_.enclaves["eudm"].stats.delta(stats_before)
        r_series = client.response_times_by_server[module.server.name][3:]
        results[label] = {
            "r_us": mean(r_series),
            "ocalls_per_request": delta.ocalls / requests,
        }
        report.series[f"{label}/R"] = summarize(f"{label} R", r_series, "us")
        report.derived[f"{label}_ocalls_per_request"] = delta.ocalls / requests

    speedup = results["kernel-tcp"]["r_us"] / results["userlevel-tcp"]["r_us"]
    report.derived["userlevel_tcp_speedup"] = speedup
    report.checks.append(
        BandCheck("user-level TCP speeds up responses (factor)", speedup, 1.3, 4.0)
    )
    report.checks.append(
        BandCheck(
            "user-level TCP collapses per-request OCALLs",
            results["userlevel-tcp"]["ocalls_per_request"],
            0.0,
            0.15 * results["kernel-tcp"]["ocalls_per_request"],
        )
    )
    report.notes = (
        "pulling the TCP stack into the enclave enlarges the TCB — the "
        "paper weighs this against the performance gain in §V-B7"
    )
    return report
