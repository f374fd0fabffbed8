"""Horizontal scaling of the P-AKA modules (§V-B7).

The paper: "Since our design is microservice-based, it inherently
supports horizontal scaling.  Therefore, network operators can scale the
enclave worker nodes and SGX-capable host pools on demand."  This
experiment deploys R replicas of the eUDM module, drives each replica and
measures its per-request occupancy, and derives the aggregate
registration capacity — which should scale ≈linearly in R until the
host's physical EPC is oversubscribed.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List

from repro.container.engine import ContainerEngine
from repro.experiments.harness import BandCheck, ExperimentReport
from repro.experiments.stats import summarize
from repro.hw.host import paper_testbed_host
from repro.net.http import HttpClient
from repro.net.sbi import EUDM_GENERATE_AV, REQUEST, write
from repro.paka.deploy import IsolationMode, PakaDeployment
from repro.runtime.native import NativeRuntime

_SUPI = "imsi-001010000000001"
_PAYLOAD = write(EUDM_GENERATE_AV, {
    "supi": _SUPI, "opc": bytes(16), "rand": b"\x11" * 16, "sqn": (1).to_bytes(6, "big"),
    "amfField": b"\x80\x00", "snn": "5G:mnc001.mcc001.3gppnetwork.org",
}, REQUEST)


def _drive_replicas(
    replicas: int,
    requests_per_replica: int,
    seed: int,
    enclave_size: str = "512M",
) -> Dict[str, float]:
    """Deploy R eUDM replicas, drive each, return occupancy statistics."""
    host = paper_testbed_host(seed=seed)
    engine = ContainerEngine(host)
    network = engine.create_network("oai-bridge")
    deployment = PakaDeployment(host, engine, network)
    slice_ = deployment.deploy(
        IsolationMode.SGX,
        module_names=["eudm"],
        replicas=replicas,
        enclave_size=enclave_size,
    )
    client = HttpClient("lb-vnf", NativeRuntime("lb-vnf", host), network)

    busy_means: List[float] = []
    group = slice_.replica_groups["eudm"]
    for module in group:
        module.provision_direct(_SUPI, bytes(16))
        connection = client.connect(module.server)
        for _ in range(requests_per_replica):
            response = client.request(
                connection, "POST", EUDM_GENERATE_AV, body=_PAYLOAD
            )
            if not response.ok:
                raise RuntimeError(
                    f"{module.name}: eUDM answered {response.status}"
                )
        busy_means.append(mean(module.server.busy_us[3:]))

    mean_busy_us = mean(busy_means)
    # Each replica serves one request per busy window; replicas work in
    # parallel on distinct cores, so capacity adds.
    capacity_rps = replicas * 1e6 / mean_busy_us
    total_epc = sum(
        enclave.epc_region.resident_pages for enclave in slice_.enclaves.values()
    ) * 4096
    return {
        "mean_busy_us": mean_busy_us,
        "capacity_rps": capacity_rps,
        "epc_resident_bytes": float(total_epc),
    }


def horizontal_scaling_experiment(
    replica_counts: "tuple[int, ...]" = (1, 2, 4),
    requests_per_replica: int = 40,
    seed: int = 140,
) -> ExperimentReport:
    """Capacity vs replica count, plus the EPC-oversubscription ceiling."""
    report = ExperimentReport(
        experiment_id="A5/horizontal-scaling",
        title="Horizontal scaling of the eUDM P-AKA module",
    )
    capacities: Dict[int, float] = {}
    for replicas in replica_counts:
        result = _drive_replicas(replicas, requests_per_replica, seed + replicas)
        capacities[replicas] = result["capacity_rps"]
        report.rows.append(
            {
                "replicas": replicas,
                "mean_busy_us": round(result["mean_busy_us"], 1),
                "capacity_rps": round(result["capacity_rps"]),
            }
        )
        report.derived[f"capacity_{replicas}r_rps"] = result["capacity_rps"]

    low, high = min(replica_counts), max(replica_counts)
    scaling_efficiency = (capacities[high] / capacities[low]) / (high / low)
    report.derived["scaling_efficiency"] = scaling_efficiency
    report.checks.append(
        BandCheck(
            f"capacity scales ~linearly {low}->{high} replicas (efficiency)",
            scaling_efficiency,
            0.85,
            1.1,
        )
    )

    # Oversubscription: preheated 4G enclaves × 6 replicas = 24G demanded
    # of a 16G EPC — eviction churn inflates per-request occupancy.
    oversubscribed = _drive_replicas(
        6, max(10, requests_per_replica // 2), seed + 100, enclave_size="4G"
    )
    fitting = _drive_replicas(
        2, max(10, requests_per_replica // 2), seed + 101, enclave_size="4G"
    )
    report.derived["oversubscribed_busy_us"] = oversubscribed["mean_busy_us"]
    report.derived["fitting_busy_us"] = fitting["mean_busy_us"]
    inflation = oversubscribed["mean_busy_us"] / fitting["mean_busy_us"]
    report.derived["epc_oversubscription_inflation"] = inflation
    report.checks.append(
        BandCheck("EPC oversubscription inflates occupancy", inflation, 1.02, 10.0)
    )
    report.notes = (
        "replicas add capacity linearly while the host's EPC holds; past "
        "it, paging erodes the gain — sizing guidance for SGX host pools"
    )
    return report
