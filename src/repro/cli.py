"""Command-line interface: ``python -m repro <command>``.

Runs any of the paper's experiments (or the ablations) from a terminal
and prints the same report the benchmarks record, so a downstream user
can regenerate a single figure without touching pytest:

.. code-block:: console

   $ python -m repro fig9 --registrations 250
   $ python -m repro table3 --max-ues 10
   $ python -m repro register --isolation sgx
   $ python -m repro list

Every subcommand is one row of :data:`COMMANDS` — name, handler, help,
argument specs — and :func:`build_parser` registers them all from that
table; :func:`main` calls the row's handler.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import (
    ablations,
    availability,
    figures,
    migration,
    scaling,
    session_setup,
    sweeps,
    tables,
)
from repro.experiments.export import report_to_json
from repro.experiments.harness import ExperimentReport, build_testbed
from repro.experiments.render import render_report_figures
from repro.experiments.shard import sharded_campaign
from repro.experiments.survivability import (
    DEFENSES,
    run_storm_arm,
    survivability_experiment,
)
from repro.obs.analytics import slowest_traces_digest
from repro.obs.export import registry_to_json, registry_to_prometheus_text
from repro.obs.profile import profile_registration
from repro.obs.trace import format_span_tree, span_from_dict
from repro.paka.deploy import IsolationMode
from repro.testbed import Testbed

Args = argparse.Namespace


def _registrations(args: Args) -> Dict[str, Any]:
    return {"registrations": args.registrations}


def _registrations_jobs(args: Args) -> Dict[str, Any]:
    return {"registrations": args.registrations, "jobs": args.jobs}


def _no_arguments(args: Args) -> Dict[str, Any]:
    return {}


# name -> (description, experiment, its keyword arguments from the flags)
_EXPERIMENTS: Dict[
    str,
    Tuple[str, Callable[..., ExperimentReport], Callable[[Args], Dict[str, Any]]],
] = {
    "fig7": (
        "Enclave load time (Fig 7)", figures.figure7_enclave_load_time,
        lambda args: {"iterations": args.iterations},
    ),
    "fig8": (
        "Thread/EPC sweep (Fig 8)", sweeps.figure8_threads_epc_sweep,
        _registrations_jobs,
    ),
    "fig9": (
        "Functional/total latency (Fig 9, Table II)",
        figures.figure9_functional_total_latency, _registrations_jobs,
    ),
    "fig10": (
        "Response times (Fig 10, Table II)", figures.figure10_response_time,
        _registrations_jobs,
    ),
    "fig11": (
        "OTA feasibility (Fig 11, Table IV)", figures.figure11_ota_feasibility,
        _no_arguments,
    ),
    "table1": (
        "Enclave I/O contracts (Table I)", tables.table1_enclave_io,
        _no_arguments,
    ),
    "table2": (
        "Consolidated overheads (Table II)", tables.table2_overheads,
        _registrations,
    ),
    "table3": (
        "SGX statistics (Table III)", tables.table3_sgx_stats,
        lambda args: {"max_ues": args.max_ues, "iterations": args.iterations},
    ),
    "table5": ("Key issues (Table V)", tables.table5_key_issues, _no_arguments),
    "setup": (
        "End-to-end session setup", session_setup.session_setup_experiment,
        _registrations,
    ),
    "ablation-preheat": (
        "Preheat ablation", ablations.preheat_ablation, _registrations_jobs,
    ),
    "ablation-exitless": (
        "Exitless ablation", ablations.exitless_ablation, _registrations_jobs,
    ),
    "ablation-backends": (
        "HMEE backend comparison", ablations.hmee_backend_comparison,
        _registrations_jobs,
    ),
    "ablation-mtcp": (
        "User-level TCP ablation", ablations.userlevel_tcp_ablation,
        lambda args: {"requests": max(40, args.registrations)},
    ),
    "scaling": (
        "Horizontal scaling of P-AKA replicas",
        scaling.horizontal_scaling_experiment,
        lambda args: {"requests_per_replica": max(15, args.registrations // 4)},
    ),
    "migration": (
        "Slice migration service gap per backend",
        migration.migration_experiment, _no_arguments,
    ),
    "availability": (
        "Registration availability under injected faults",
        availability.availability_experiment,
        lambda args: {"registrations": max(40, args.registrations)},
    ),
}


def _print_report(report: ExperimentReport, as_json: bool) -> int:
    print(report_to_json(report) if as_json else report.format())
    if not report.all_checks_ok:
        for check in report.failed_checks():
            print("  FAILED " + check.format(), file=sys.stderr)
        return 1
    return 0


def _testbed(args: Args, warmup: int) -> Testbed:
    """The ``--isolation`` / ``--seed`` testbed, ``warmup`` registrations in."""
    isolation = (
        None if args.isolation == "monolithic" else IsolationMode(args.isolation)
    )
    testbed = build_testbed(isolation, seed=args.seed)
    for _ in range(warmup):
        testbed.register(testbed.add_subscriber())
    return testbed


def _outcome_payload(outcome: Any) -> Dict[str, Any]:
    return {
        "success": outcome.success,
        "session_setup_ms": outcome.session_setup_ms,
        "nas_exchanges": outcome.nas_exchanges,
    }


def _cmd_list(_: Args) -> int:
    width = max(len(name) for name in _EXPERIMENTS)
    for name, (description, _run, _kwargs) in _EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}")
    return 0


def _cmd_experiment(args: Args) -> int:
    _description, experiment, kwargs = _EXPERIMENTS[args.command]
    report = experiment(**kwargs(args))
    print(report.format())
    if report.series and args.plot:
        print()
        print(render_report_figures(report))
    if not report.all_checks_ok:
        print("\nFAILED paper-shape checks:", file=sys.stderr)
        for check in report.failed_checks():
            print("  " + check.format(), file=sys.stderr)
        return 1
    return 0


def _cmd_register(args: Args) -> int:
    testbed = _testbed(args, warmup=0)
    successes = 0
    for _ in range(args.count):
        ue = testbed.add_subscriber()
        outcome = testbed.register(ue)
        successes += outcome.success
        print(
            f"  {ue.usim.supi}: "
            + (
                f"registered as {outcome.guti} in {outcome.session_setup_ms:.2f} ms"
                if outcome.success
                else f"FAILED ({outcome.failure_cause})"
            )
        )
    print(f"{successes}/{args.count} registrations succeeded")
    return 0 if successes == args.count else 1


def _cmd_trace(args: Args) -> int:
    """Trace one registration and print the span tree + breakdown."""
    trace = _testbed(args, args.warmup).trace_registration()
    if args.json:
        payload = {
            "schema": 1,
            "outcome": _outcome_payload(trace.outcome),
            "breakdown": trace.breakdown,
            "stats_delta": {
                name: {
                    "eenters": delta.eenters,
                    "eexits": delta.eexits,
                    "ocalls": delta.ocalls,
                    "aexs": delta.aexs,
                }
                for name, delta in trace.stats_delta.items()
            },
            "spans": trace.root.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if trace.outcome.success else 1
    print("\n".join(format_span_tree(trace.root)))
    if trace.breakdown:
        print()
        print("Per-module decomposition (Fig 9 / Table II / Table III):")
        print(
            f"  {'module':<8} {'L_F us':>9} {'L_T us':>9} {'L_N us':>9} "
            f"{'R us':>9} {'EENTER':>7} {'EEXIT':>7}"
        )
        for module, row in trace.breakdown.items():
            print(
                f"  {module:<8} {row['lf_us']:>9.2f} {row['lt_us']:>9.2f} "
                f"{row['ln_us']:>9.2f} {row['r_us']:>9.2f} "
                f"{row['eenters']:>7} {row['eexits']:>7}"
            )
    return 0 if trace.outcome.success else 1


def _cmd_profile(args: Args) -> int:
    """Fold one traced registration into a cycle-attribution flame graph."""
    profile, trace = profile_registration(_testbed(args, args.warmup))
    status = 0 if trace.outcome.success else 1
    if args.collapsed:
        # Folded stacks, pipe into flamegraph.pl / load into speedscope.
        print(profile.collapsed(), end="")
        return status
    if args.json:
        payload = {
            "outcome": _outcome_payload(trace.outcome),
            "total_ns": profile.total_ns,
            "modules": profile.modules,
            "breakdown": trace.breakdown,
            "stacks": [
                {"stack": list(stack), "ns": profile.stacks[stack]}
                for stack in sorted(profile.stacks)
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return status
    print(
        f"registration folded: {profile.total_ns / 1e6:.2f} ms over "
        f"{len(profile.stacks)} stacks"
    )
    if profile.modules:
        print("Per-module SGX cost attribution (Table III from the fold):")
        print(
            f"  {'module':<8} {'EENTER':>7} {'EEXIT':>7} {'OCALLs':>7} "
            f"{'trans us':>9} {'shield us':>10} {'copy us':>9} {'host us':>9}"
        )
        for module, row in sorted(profile.modules.items()):
            print(
                f"  {module:<8} {row['eenters']:>7} {row['eexits']:>7} "
                f"{row['ocalls']:>7} {row['transition_us']:>9.1f} "
                f"{row['shield_us']:>10.1f} {row['copy_us']:>9.1f} "
                f"{row['host_us']:>9.1f}"
            )
    print("(use --collapsed for flamegraph.pl input, --json for the full fold)")
    return status


def _cmd_metrics(args: Args) -> int:
    """Run registrations and export the testbed's metrics registry."""
    registry = _testbed(args, args.registrations).collect_metrics()
    if args.format == "prom":
        print(registry_to_prometheus_text(registry), end="")
    else:
        print(registry_to_json(registry))
    return 0


def _cmd_monitor(args: Args) -> int:
    """Monitor one availability fault arm: scraper + Tsdb + SLO alerts."""
    payload = availability.monitored_arm(
        factor=args.factor,
        registrations=args.registrations,
        horizon_s=args.horizon,
        seed=args.seed,
        cadence_s=args.cadence,
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    row = payload["row"]
    monitor = payload["monitor"]
    print(
        f"fault arm x{row['fault_factor']:g}: "
        f"{row['successes']}/{row['attempts']} registrations succeeded "
        f"({monitor['scrapes']} scrapes @ {monitor['cadence_s']:g}s, "
        f"{monitor['series']} series, {len(monitor['fault_windows'])} "
        f"fault windows)"
    )
    print("SLOs:")
    for slo in monitor["slos"]:
        print(f"  {slo}")
    if monitor["alerts"]:
        print("alerts (simulated seconds from arm start):")
        for alert in monitor["alerts"]:
            resolved = (
                f"resolved {alert['resolved_at_s']:9.3f}s"
                if alert["resolved_at_s"] is not None
                else "still firing"
            )
            print(
                f"  [{alert['window']:<4}] {alert['slo']:<24} "
                f"fired {alert['fired_at_s']:9.3f}s  {resolved}  "
                f"peak burn {alert['peak_burn']:.1f}x"
            )
    else:
        print("alerts: none fired")
    print(
        f"{monitor['alerts_in_fault_windows']} alert(s) fired inside an "
        "injected fault window"
    )
    return 0


def _cmd_capacity(args: Args) -> int:
    """Partitioned mass-registration campaign (E-CAP / E-SCALE)."""
    result = sharded_campaign(
        ues=args.ues,
        shards=args.shards,
        jobs=args.jobs,
        seed=args.seed,
        monitor_cadence_s=args.monitor_cadence,
    )
    return _print_report(result.report, args.json)


def _cmd_attack(args: Args) -> int:
    """Adversarial signaling campaign: storms × admission defenses (E-ATTACK)."""
    if args.defenses:
        defenses = tuple(name.strip() for name in args.defenses.split(","))
    elif args.govern:
        defenses = ("none", "governed")
    else:
        defenses = DEFENSES
    unknown = [name for name in defenses if name not in DEFENSES]
    if unknown:
        print(
            f"unknown defense(s) {', '.join(unknown)}; "
            f"choose from {', '.join(DEFENSES)}",
            file=sys.stderr,
        )
        return 2
    report = survivability_experiment(
        legit=args.legit,
        horizon_s=args.horizon,
        seed=args.seed,
        attack_rates=args.rates,
        defenses=defenses,
    )
    return _print_report(report, args.json)


def _cmd_traces(args: Args) -> int:
    """Distributed-trace analytics over a traced survivability arm."""
    row = run_storm_arm(
        args.defense,
        args.rate,
        legit=args.legit,
        horizon_s=args.horizon,
        seed=args.seed,
        trace_sample=args.sample,
    )
    store_dump = row["_trace_store"]

    if args.trace_id:
        record = next(
            (r for r in store_dump["records"] if r["trace_id"] == args.trace_id),
            None,
        )
        if record is None:
            print(
                f"trace {args.trace_id} not in store "
                f"({len(store_dump['records'])} kept of "
                f"{store_dump['seen']} seen)",
                file=sys.stderr,
            )
            return 2
        if args.json:
            print(json.dumps(
                {"schema": 1, "trace": record}, indent=2, sort_keys=True,
            ))
            return 0
        print(
            f"trace {record['trace_id']} supi={record['supi']} "
            f"attempt={record['attempt']} reason={record['reason']} "
            f"sojourn={record['sojourn_ns'] / 1e6:.3f} ms"
        )
        print("\n".join(format_span_tree(span_from_dict(record["root"]))))
        return 0

    digest = slowest_traces_digest(
        store_dump,
        top=args.slowest,
        module_servers=row["_module_servers"],
        module_runtimes=row["_module_runtimes"],
    )
    if args.json:
        print(json.dumps(digest, indent=2, sort_keys=True))
        return 0

    print(
        f"arm: defense={args.defense} rate={args.rate:g}/s "
        f"legit={args.legit} horizon={args.horizon:g}s seed={args.seed}"
    )
    print(
        f"store: {digest['seen']} seen, {digest['kept']} kept "
        f"({digest['kept_tail']} tail + {digest['kept_head']} head), "
        f"{digest['evicted']} evicted"
    )
    sojourn_alerts = [
        alert for alert in row["_alerts"]
        if alert["slo"].startswith("registration-sojourn")
    ]
    cited = sorted(
        {tid for alert in sojourn_alerts for tid in alert["exemplar_trace_ids"]}
    )
    print(
        f"alerts: {len(row['_alerts'])} fired, {len(sojourn_alerts)} "
        f"sojourn, {len(cited)} exemplar trace ids cited"
    )
    print(f"\nslowest {len(digest['slowest'])} traces:")
    for rank, entry in enumerate(digest["slowest"], start=1):
        mark = " *" if entry["trace_id"] in cited else ""
        print(
            f"  {rank:>2}. {entry['trace_id'][:16]} "
            f"{entry['duration_ns'] / 1e6:>9.3f} ms  "
            f"{entry['reason']:<13} supi={entry['supi']} "
            f"attempt={entry['attempt']}{mark}"
        )
        path = entry["critical_path"]
        hot = max(path, key=lambda frame: frame["self_ns"])
        chain = " > ".join(frame["name"] for frame in path[:6])
        if len(path) > 6:
            chain += " > ..."
        print(f"      path: {chain}")
        print(
            f"      hottest frame: {hot['name']} ({hot['kind']}) "
            f"self {hot['self_ns'] / 1e6:.3f} ms of "
            f"{hot['ns'] / 1e6:.3f} ms"
        )
    if cited:
        print("\n  * cited as an exemplar by a sojourn SLO alert")
    return 0


# ----------------------------------------------------------- argument specs

Argument = Tuple[Tuple[str, ...], Dict[str, Any]]


def _arg(*flags: str, **spec: Any) -> Argument:
    """One ``add_argument`` call, as data."""
    return flags, spec


def _checked(
    number: Callable[[str], Any], ok: Callable[[Any], bool], expected: str
) -> Callable[[str], Any]:
    """argparse ``type=``: a ``number`` (``int`` / ``float``) that is ``ok``."""

    def parse(text: str) -> Any:
        try:
            value = number(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _positive(number: Callable[[str], Any]) -> Callable[[str], Any]:
    # ``inf`` parses as a float but is no duration or rate a campaign can
    # schedule; ``nan`` fails every comparison, so both are refused here.
    return _checked(number, lambda v: 0 < v < math.inf, f"a positive {number.__name__}")


def _at_least(minimum: int) -> Callable[[str], int]:
    return _checked(int, lambda v: v >= minimum, f"an int >= {minimum}")


_NON_NEGATIVE = _checked(float, lambda v: 0 <= v < math.inf, "a finite float >= 0")


def _rates(text: str) -> Tuple[float, ...]:
    """argparse ``type=``: comma-separated non-negative floats."""
    try:
        rates = tuple(float(rate) for rate in text.split(","))
    except ValueError:
        rates = ()
    if not rates or not all(0 <= rate < math.inf for rate in rates):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite rates >= 0, got {text!r}"
        )
    return rates


def _seed(default: int) -> Argument:
    return _arg("--seed", type=int, default=default)


def _json(help_text: str) -> Argument:
    return _arg("--json", action="store_true", help=help_text)


def _warmup(what: str) -> Argument:
    return _arg(
        "--warmup", type=_at_least(0), default=1,
        help=f"untraced registrations before the {what} one (steady state)",
    )


_ISOLATION = _arg(
    "--isolation",
    choices=["monolithic", "container", "sgx", "secure-vm"],
    default="sgx",
)

_EXPERIMENT_ARGUMENTS: Tuple[Argument, ...] = (
    _arg("--registrations", type=_positive(int), default=60),
    _arg("--iterations", type=_positive(int), default=5),
    _arg("--max-ues", type=_at_least(2), default=3),
    _arg(
        "--plot", action="store_true",
        help="render the measured distributions as ASCII box plots",
    ),
    _arg(
        "--jobs", type=_at_least(0), default=1, metavar="N",
        help="run independent experiment arms over N worker processes "
        "(0 = one per CPU); results are byte-identical to --jobs 1 "
        "because every arm owns its own seeded testbed",
    ),
)

#: Every subcommand: (name, handler, help, *argument specs).
COMMANDS: Tuple[Tuple[Any, ...], ...] = (
    ("list", _cmd_list, "list available experiments"),
    (
        "register", _cmd_register, "register UEs through a testbed",
        _ISOLATION, _arg("--count", type=_positive(int), default=1), _seed(0),
    ),
    (
        "trace", _cmd_trace,
        "trace one registration: span tree + Fig 9 / Table III breakdown",
        _ISOLATION, _seed(0), _warmup("traced"),
        _json("emit the span tree and breakdown as JSON"),
    ),
    (
        "metrics", _cmd_metrics,
        "run registrations and export the metrics registry",
        _ISOLATION, _seed(0), _arg("--registrations", type=_positive(int), default=3),
        _arg(
            "--format", choices=["json", "prom"], default="json",
            help="export format: JSON document or Prometheus exposition text",
        ),
    ),
    (
        "monitor", _cmd_monitor,
        "continuously monitor one fault arm: scraper + Tsdb + SLO "
        "burn-rate alerts with simulated timestamps",
        _arg(
            "--factor", type=_NON_NEGATIVE, default=2.0,
            help="fault-rate multiplier (x BASELINE_RATES; 0 = fault-free)",
        ),
        _arg("--registrations", type=_positive(int), default=120),
        _arg(
            "--horizon", type=_positive(float), default=180.0,
            help="arm duration in simulated seconds",
        ),
        _seed(23),
        _arg(
            "--cadence", type=_positive(float), default=1.0,
            help="scrape cadence in simulated seconds",
        ),
        _json(
            "emit the row, SLOs, alerts and fault windows as JSON "
            "(byte-identical for a fixed seed)"
        ),
    ),
    (
        "profile", _cmd_profile,
        "fold one traced registration into a cycle-attribution "
        "flame graph (collapsed-stack output)",
        _ISOLATION, _seed(0), _warmup("profiled"),
        _arg(
            "--collapsed", action="store_true",
            help="emit folded stacks for flamegraph.pl / speedscope",
        ),
        _json("emit the fold (stacks + per-module totals) as JSON"),
    ),
    (
        "capacity", _cmd_capacity,
        "partitioned mass-registration campaign: shard the UE "
        "population over replica control-plane slices and merge the "
        "per-shard simulations into one report",
        _arg("--ues", type=_positive(int), default=10_000),
        _arg(
            "--shards", type=_positive(int), default=4,
            help="control-plane shards (1 = the unsharded E-CAP campaign)",
        ),
        _arg(
            "--jobs", type=_at_least(0), default=1, metavar="N",
            help="worker processes for the shard arms (0 = one per "
            "schedulable CPU); the merged report is byte-identical for any N",
        ),
        _seed(7),
        _arg(
            "--monitor-cadence", type=_positive(float), default=None, metavar="S",
            help="install a per-shard scraper at this simulated cadence and "
            "merge the Tsdb series (shard label added); default off",
        ),
        _json("emit the merged report as JSON (byte-identical per seed)"),
    ),
    (
        "attack", _cmd_attack,
        "adversarial signaling campaign: seeded storms (SUCI replay, "
        "forged-AUTS resync, NAS fuzz, botnet registration) against the "
        "AMF's admission defenses; prints survivability curves",
        _arg(
            "--legit", type=_positive(int), default=30,
            help="legitimate UEs paced over the horizon per arm",
        ),
        _arg(
            "--horizon", type=_positive(float), default=12.0,
            help="arm duration in simulated seconds",
        ),
        _seed(29),
        _arg(
            "--rates", type=_rates, default="0,240,400", metavar="R,R,...",
            help="attack arrival rates per second (comma-separated; 0 = "
            "disarmed control arm)",
        ),
        _arg(
            "--defenses", default=None, metavar="D,D,...",
            help="admission configs to sweep (subset of none,bucket,guard,"
            "breaker,all,governed; default all of them)",
        ),
        _arg(
            "--govern", action="store_true",
            help="sweep only the undefended and alert-armed (governed) arms",
        ),
        _json("emit the report as JSON (byte-identical per seed)"),
    ),
    (
        "traces", _cmd_traces,
        "distributed-trace analytics: run a traced survivability "
        "arm, rank the slowest stored traces with critical paths, and "
        "resolve alert-cited exemplar trace ids to full cross-NF trees",
        _arg(
            "--defense", choices=list(DEFENSES), default="none",
            help="admission config for the traced arm",
        ),
        _arg(
            "--rate", type=_NON_NEGATIVE, default=400.0,
            help="attack arrival rate per second (400 = queueing collapse)",
        ),
        _arg("--legit", type=_positive(int), default=12),
        _arg("--horizon", type=_positive(float), default=5.0),
        _seed(29),
        _arg(
            "--sample", type=_positive(int), default=8, metavar="N",
            help="head-sample 1 in N healthy traces (failed/deadline traces "
            "are always kept)",
        ),
        _arg(
            "--slowest", type=_positive(int), default=10, metavar="N",
            help="rank the N slowest stored traces in the digest",
        ),
        _arg(
            "--trace-id", default=None, metavar="ID",
            help="resolve one trace id to its full span tree instead of "
            "the ranked digest",
        ),
        _json(
            "emit the digest (or resolved trace) as JSON "
            "(byte-identical per seed)"
        ),
    ),
) + tuple(
    (name, _cmd_experiment, description, *_EXPERIMENT_ARGUMENTS)
    for name, (description, _run, _kwargs) in _EXPERIMENTS.items()
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Towards Shielding 5G Control Plane "
        "Functions' (DSN 2024): run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, *arguments in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=handler)
        for flags, spec in arguments:
            command.add_argument(*flags, **spec)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # output piped into head/less and closed
        return 0


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
