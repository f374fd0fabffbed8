"""E-ATTACK campaign: determinism and the disarmed-control contract."""

from repro.experiments.export import report_to_json
from repro.experiments.harness import warmed_testbed
from repro.experiments.survivability import (
    DEFENSES,
    run_storm_arm,
    survivability_experiment,
)
from repro.obs.analytics import slowest_traces_digest
from repro.paka.deploy import IsolationMode

QUICK = dict(legit=6, horizon_s=2.0, seed=29)


def test_defense_registry_shape():
    assert DEFENSES == (
        "none", "bucket", "guard", "breaker", "all", "governed"
    )


def test_campaign_report_is_byte_identical_per_seed():
    kwargs = dict(
        attack_rates=(0.0, 400.0), defenses=("none", "breaker"), **QUICK
    )
    first = report_to_json(survivability_experiment(**kwargs))
    second = report_to_json(survivability_experiment(**kwargs))
    assert first == second


def test_disarmed_arm_spends_attack_free_nanoseconds():
    """The rate-0 'none' arm builds no plane and arms no admission: its
    final clock must equal a plain paced run of the same legit grid."""
    row = run_storm_arm("none", 0.0, **QUICK)
    assert row["attack_events"] == 0
    assert row["legit_success_rate"] == 1.0

    testbed = warmed_testbed(IsolationMode.SGX, seed=QUICK["seed"])
    assert testbed.amf.admission is None  # default testbeds stay disarmed
    ues = [testbed.add_subscriber() for _ in range(QUICK["legit"])]
    for index, ue in enumerate(ues):
        if index % 4 != 3:
            assert testbed.register(ue, establish_session=False).success
    # (the campaign's scraper is pull-only and its timeline idles are
    # replayed here via the same grid)
    from repro.obs.scrape import Scraper

    scraper = Scraper.for_testbed(testbed).install(testbed.host)
    clock = testbed.host.clock
    start_ns = clock.now_ns
    gap_ns = int(QUICK["horizon_s"] / QUICK["legit"] * 1_000_000_000)
    for index, ue in enumerate(ues):
        target_ns = start_ns + index * gap_ns
        if clock.now_ns < target_ns:
            testbed.idle((target_ns - clock.now_ns) / 1_000_000_000)
        testbed.gnb.register(
            ue, establish_session=False, initial=index % 4 == 3
        )
    scraper.uninstall(testbed.host)
    assert clock.now_ns == row["final_clock_ns"]


def test_armed_idle_defenses_cost_zero_simulated_time():
    """Admission control is clockless arithmetic: with no storm, every
    defended arm — including the quiescent governor — lands on the
    disarmed arm's exact final clock."""
    reference = run_storm_arm("none", 0.0, **QUICK)["final_clock_ns"]
    for defense in ("bucket", "guard", "breaker", "all", "governed"):
        row = run_storm_arm(defense, 0.0, **QUICK)
        assert row["final_clock_ns"] == reference, defense
        assert row["legit_success_rate"] == 1.0
        if defense == "governed":
            assert row["governor"]["actions"] == []  # never armed


def test_governed_arm_detects_and_recovers():
    kwargs = dict(legit=12, horizon_s=5.0, seed=29)
    undefended = run_storm_arm("none", 400.0, **kwargs)
    governed = run_storm_arm("governed", 400.0, **kwargs)
    # The PR 8 blind spot, closed: the collapse now pages on the
    # sojourn SLO inside the storm window...
    assert undefended["sojourn_alerts_fired"] >= 1
    assert undefended["first_sojourn_alert_s"] < kwargs["horizon_s"]
    # ...and the governor turns the page into armed defenses.
    actions = governed["governor"]["actions"]
    assert actions and actions[0]["action"] == "arm"
    assert set(actions[0]["defenses"]) == {"source", "gnb"}
    assert governed["detect_latency_s"] == actions[0]["at_s"]
    assert (
        governed["legit_success_rate"] > undefended["legit_success_rate"]
    )


def test_governed_arm_is_byte_identical_per_seed():
    kwargs = dict(legit=12, horizon_s=5.0, seed=29)
    first = run_storm_arm("governed", 400.0, **kwargs)
    second = run_storm_arm("governed", 400.0, **kwargs)
    # Bit-identical everything: the sojourn histogram samples, the
    # classifier-driven governor actions, and the final clock.
    assert first == second


def test_storm_arm_degrades_then_defense_recovers():
    undefended = run_storm_arm("none", 400.0, **QUICK)
    defended = run_storm_arm("guard", 400.0, **QUICK)
    assert undefended["legit_success_rate"] < 1.0
    assert defended["legit_success_rate"] > undefended["legit_success_rate"]
    assert defended["shed_total"] > 0
    assert defended["eenter_burn"] < undefended["eenter_burn"]


def test_traced_arm_matches_untraced_golden_clock():
    """Arming distributed tracing must not move the simulated clock or
    any campaign figure: the traced row minus its ``_trace_*`` extras is
    the untraced row."""
    untraced = run_storm_arm("none", 400.0, **QUICK)
    traced = run_storm_arm("none", 400.0, trace_sample=4, **QUICK)
    extras = {k for k in traced if k.startswith("_") and k != "_sojourns_ms"}
    assert extras == {"_trace_store", "_alerts", "_module_servers",
                      "_module_runtimes"}
    assert {k: v for k, v in traced.items() if k not in extras} == untraced


def test_traced_collapse_alerts_cite_stored_exemplar_traces():
    """The E-TRACE2 acceptance path: a queueing-collapse sojourn alert
    carries exemplar trace ids, at least one resolves to a complete
    cross-NF tree in the arm's trace store, and the slowest-traces
    digest of that store is rooted and tail-kept."""
    row = run_storm_arm("none", 400.0, legit=12, horizon_s=5.0, seed=29,
                   trace_sample=8)
    sojourn_alerts = [
        alert for alert in row["_alerts"]
        if alert["slo"].startswith("registration-sojourn")
    ]
    assert sojourn_alerts
    cited = {
        tid for alert in sojourn_alerts for tid in alert["exemplar_trace_ids"]
    }
    assert cited
    store = row["_trace_store"]
    stored = {r["trace_id"] for r in store["records"]}
    resolved = cited & stored
    assert resolved
    record = next(r for r in store["records"] if r["trace_id"] in resolved)
    assert record["root"]["kind"] == "registration"
    assert record["root"]["children"]

    # Cross-NF: the resolved tree has a server span for every module.
    def walk(node):
        yield node
        for child in node["children"]:
            yield from walk(child)

    servers = {
        node["tags"]["server"] for node in walk(record["root"])
        if node["kind"] == "sbi.server"
    }
    assert set(row["_module_servers"].values()) <= servers

    # The collapse keeps tail (failed / past-deadline) traces, and every
    # digest entry's critical path starts at the registration root and
    # accounts for the whole trace there.
    assert store["kept_tail"] >= 1
    digest = slowest_traces_digest(
        store, top=10, module_servers=row["_module_servers"],
        module_runtimes=row["_module_runtimes"],
    )
    assert digest["slowest"]
    for entry in digest["slowest"]:
        root_frame = entry["critical_path"][0]
        assert root_frame["kind"] == "registration"
        assert root_frame["ns"] == entry["duration_ns"]
