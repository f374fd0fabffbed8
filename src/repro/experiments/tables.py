"""Table reproductions: Table I, Table II, Table III, Table V."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.container.image import ContainerImage, ImageLayer
from repro.experiments.figures import (
    PAPER_LF_RATIO,
    PAPER_LT_RATIO,
    PAPER_R_RATIO,
    PAPER_RI_RS,
    figure9_functional_total_latency,
    figure10_response_time,
)
from repro.experiments.harness import (
    MODULE_NAMES,
    BandCheck,
    ExperimentReport,
    build_testbed,
)
from repro.experiments.session_setup import session_setup_experiment
from repro.gramine.gsc import build_gsc_image, sign_gsc_image
from repro.gramine.manifest import GramineManifest
from repro.hw.host import paper_testbed_host
from repro.paka.deploy import IsolationMode, PakaDeployment
from repro.paka.endpoints import EAMF_CONTRACT, EAUSF_CONTRACT, EUDM_CONTRACT
from repro.ran.gnbsim import GnbSim
from repro.security.keyissues import evaluate_key_issues
from repro.sgx.aesm import AesmDaemon
from repro.sgx.epc import EpcManager
from repro.gramine.pal import PlatformAdaptationLayer


def table1_enclave_io() -> ExperimentReport:
    """Table I: the enclave I/O contracts (validated statically)."""
    report = ExperimentReport(
        experiment_id="E9/TableI",
        title="5G-AKA functions and parameters loaded into SGX enclaves",
    )
    for contract in (EUDM_CONTRACT, EAUSF_CONTRACT, EAMF_CONTRACT):
        report.rows.append(
            {
                "module": contract.module,
                "inputs": ", ".join(f"{p.name}({p.nbytes})" for p in contract.inputs),
                "outputs": ", ".join(f"{p.name}({p.nbytes})" for p in contract.outputs),
                "executes": "/".join(contract.executes),
                "total_bytes": contract.total_bytes,
            }
        )
    report.checks.append(
        BandCheck("eUDM input bytes", EUDM_CONTRACT.input_bytes, 40, 40, paper_value=40)
    )
    report.checks.append(
        BandCheck("eUDM output bytes", EUDM_CONTRACT.output_bytes, 80, 80, paper_value=80)
    )
    report.checks.append(
        BandCheck("eAMF total bytes", EAMF_CONTRACT.total_bytes, 64, 64, paper_value=64)
    )
    report.notes = (
        "HXRES* is 16 bytes (TS 33.501 A.5) and SNN a ~32-byte string; the "
        "paper's Table I lists 8 and 2 — see DESIGN.md §2"
    )
    return report


def table2_overheads(registrations: int = 120, seed: int = 20) -> ExperimentReport:
    """Table II: the consolidated overhead factors per module."""
    fig9 = figure9_functional_total_latency(registrations=registrations, seed=seed)
    fig10 = figure10_response_time(registrations=registrations, seed=seed + 1)
    setup = session_setup_experiment(registrations=max(20, registrations // 4), seed=seed + 2)

    report = ExperimentReport(
        experiment_id="E3+E4+E6/TableII",
        title="SGX overhead across the isolated modules",
    )
    for name in MODULE_NAMES:
        report.rows.append(
            {
                "module": name,
                "L_F": round(fig9.derived[f"{name}_LF_ratio"], 2),
                "L_T": round(fig9.derived[f"{name}_LT_ratio"], 2),
                "R_S^SGX/R^C": round(fig10.derived[f"{name}_R_ratio"], 2),
                "R_I^SGX/R_S^SGX": round(fig10.derived[f"{name}_Ri_over_Rs"], 2),
                "paper_L_F": PAPER_LF_RATIO[name],
                "paper_L_T": PAPER_LT_RATIO[name],
                "paper_R": PAPER_R_RATIO[name],
                "paper_Ri_Rs": PAPER_RI_RS[name],
            }
        )
    report.checks.extend(fig9.checks)
    report.checks.extend(fig10.checks)
    report.derived.update(
        {
            "session_setup_ms": setup.derived["sgx_setup_ms"],
            "sgx_added_ms": setup.derived["sgx_added_ms"],
            "sgx_share_percent": setup.derived["sgx_share_percent"],
        }
    )
    report.checks.extend(setup.checks)
    return report


# Table III measurement window: the slice sits idle for this long in
# total while the campaign runs (servers block in epoll between UEs).
TABLE3_IDLE_WINDOW_S = 100.0


def table3_sgx_stats(
    max_ues: int = 3, iterations: int = 5, seed: int = 30
) -> ExperimentReport:
    """Table III: EENTER/EEXIT/AEX per number of registered UEs.

    For each UE count 1..``max_ues``, run ``iterations`` fresh campaigns
    and average the counters; also measure the empty-workload enclave.
    """
    report = ExperimentReport(
        experiment_id="E5/TableIII",
        title="SGX operational statistics of the P-AKA modules",
    )
    # Per-registration deltas split as in the paper's methodology: the
    # "difference of subsequent registrations" excludes each campaign's
    # first registration, which additionally carries the one-time lazy
    # warmup burst (the same burst Fig 10b measures as R_initial).
    subsequent_deltas: Dict[str, List[float]] = {name: [] for name in MODULE_NAMES}
    first_deltas: Dict[str, List[float]] = {name: [] for name in MODULE_NAMES}
    aex_by_count: Dict[str, List[float]] = {name: [] for name in MODULE_NAMES}

    for ue_count in range(1, max_ues + 1):
        totals = {name: {"eenters": 0.0, "eexits": 0.0, "aexs": 0.0} for name in MODULE_NAMES}
        for iteration in range(iterations):
            testbed = build_testbed(
                IsolationMode.SGX, seed=seed + 1000 * ue_count + iteration
            )
            sim = GnbSim(testbed)
            idle_slice = TABLE3_IDLE_WINDOW_S / (ue_count + 1)
            testbed.idle(idle_slice)
            campaign = sim.register_ues(
                ue_count,
                establish_session=False,
                inter_registration_idle_s=idle_slice,
            )
            for name in MODULE_NAMES:
                stats = campaign.final_stats[name]
                totals[name]["eenters"] += stats.eenters
                totals[name]["eexits"] += stats.eexits
                totals[name]["aexs"] += stats.aexs
                deltas = campaign.per_registration_stats[name]
                if deltas:
                    first_deltas[name].append(deltas[0].eenters)
                for delta in deltas[1:]:
                    subsequent_deltas[name].append(delta.eenters)
        for name in MODULE_NAMES:
            row = {
                "module": name,
                "ues": ue_count,
                "EENTERs": round(totals[name]["eenters"] / iterations),
                "EEXITs": round(totals[name]["eexits"] / iterations),
                "AEXs": round(totals[name]["aexs"] / iterations),
            }
            aex_by_count[name].append(totals[name]["aexs"] / iterations)
            report.rows.append(row)

    # Empty workload: a GSC enclave with no server, idling over the same
    # window with a single active thread.
    empty = _empty_workload_stats(seed=seed, window_s=TABLE3_IDLE_WINDOW_S)
    report.rows.append(
        {
            "module": "empty workload",
            "ues": 0,
            "EENTERs": empty["eenters"],
            "EEXITs": empty["eexits"],
            "AEXs": empty["aexs"],
        }
    )

    for name in MODULE_NAMES:
        deltas = subsequent_deltas[name]
        if not deltas:
            raise ValueError("need max_ues >= 2 for subsequent-registration deltas")
        mean_delta = sum(deltas) / len(deltas)
        report.derived[f"{name}_eenter_per_registration"] = mean_delta
        report.derived[f"{name}_first_registration_eenters"] = (
            sum(first_deltas[name]) / len(first_deltas[name])
        )
        report.checks.append(
            BandCheck(f"{name} EENTERs per registration", mean_delta, 75, 105,
                      paper_value=90)
        )
        aexs = aex_by_count[name]
        spread = (max(aexs) - min(aexs)) / max(aexs)
        report.checks.append(
            BandCheck(f"{name} AEX independent of UE count (rel. spread)",
                      spread, 0.0, 0.02)
        )
        report.checks.append(
            BandCheck(f"{name} AEX magnitude", aexs[0], 120_000, 160_000,
                      paper_value=140_370)
        )
    report.checks.append(
        BandCheck("empty workload AEXs", empty["aexs"], 40_000, 60_000,
                  paper_value=49_674)
    )
    report.checks.append(
        BandCheck("empty workload EENTERs", empty["eenters"], 500, 1_000,
                  paper_value=762)
    )
    # The paper: Pistache alone costs ≈650 EENTERs at startup — the
    # difference between a module's baseline and the empty workload.
    return report


def _empty_workload_stats(seed: int, window_s: float) -> Dict[str, int]:
    """Load a no-op GSC enclave and let it idle: Table III's last row."""
    host = paper_testbed_host(seed=seed)
    epc = EpcManager(host.total_epc_bytes, host.cpu)
    aesmd = AesmDaemon("platform-empty")
    pal = PlatformAdaptationLayer(host, epc, aesmd)

    image = ContainerImage(
        repository="scratch/empty-workload",
        tag="v1",
        layers=[ImageLayer("base", opaque_bytes=720 * 1024**2)],
        entrypoint="/bin/true",
    )
    manifest = GramineManifest(
        entrypoint="/bin/true", enclave_size="512M", max_threads=4,
        preheat_enclave=True, debug=True, enable_stats=True,
    )
    gsc = sign_gsc_image(build_gsc_image(image, manifest), b"empty-signer")
    enclave, _ = pal.load_enclave(gsc.build_info)

    from repro.gramine.libos import GramineEnclaveRuntime

    runtime = GramineEnclaveRuntime("empty", host, enclave, gsc.manifest)
    runtime.start()
    # An empty main blocks in pause(): only one thread attracts interrupts.
    enclave.run_idle(window_s, active_threads=1)
    host.clock.advance_s(window_s)
    return {
        "eenters": enclave.stats.eenters,
        "eexits": enclave.stats.eexits,
        "aexs": enclave.stats.aexs,
    }


def table5_key_issues(seed: int = 50) -> ExperimentReport:
    """Table V: execute the KI catalogue against both deployments."""
    container = build_testbed(IsolationMode.CONTAINER, seed=seed)
    hmee = build_testbed(IsolationMode.SGX, seed=seed)
    verdicts = evaluate_key_issues(container, hmee)
    report = ExperimentReport(
        experiment_id="E8/TableV", title="Key Issues summary (TR 33.848)"
    )
    for verdict in verdicts:
        report.rows.append(verdict.row())
    effective = sum(1 for v in verdicts if v.hmee_effective)
    report.derived["kis_mitigated"] = float(effective)
    report.checks.append(
        BandCheck("all 13 KIs mitigated by HMEE", effective, 13, 13, paper_value=13)
    )
    report.checks.append(
        BandCheck(
            "attacks succeed against plain containers",
            sum(1 for v in verdicts if v.attack_on_container.succeeded),
            13,
            13,
        )
    )
    return report
