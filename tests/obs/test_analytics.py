"""Trace analytics: the integer-ns fold and its µs view, critical paths,
the slowest-traces digest."""

import json

import pytest

from repro.experiments.harness import warmed_testbed
from repro.obs.analytics import _walk as _walk_dicts
from repro.obs.analytics import (
    critical_path,
    registration_breakdown,
    registration_breakdown_ns,
    slowest_traces_digest,
)
from repro.obs.collect import module_maps
from repro.obs.trace import Span, TraceStore, Tracer, span_from_dict
from repro.paka.deploy import IsolationMode


def _traced(seed=7, registrations=2, store=None):
    testbed = warmed_testbed(IsolationMode.SGX, seed=seed)
    tracer = Tracer(testbed.host.clock, trace_seed=seed, store=store)
    testbed.host.tracer = tracer
    for _ in range(registrations):
        outcome = testbed.register(
            testbed.add_subscriber(), establish_session=False
        )
        assert outcome.success
    testbed.host.tracer = None
    module_servers = {
        name: module.server.name
        for name, module in sorted(testbed.paka.modules.items())
    }
    module_runtimes = {
        name: module.runtime.name
        for name, module in sorted(testbed.paka.modules.items())
    }
    return tracer, module_servers, module_runtimes


def _traced_store(seed=7, registrations=2):
    tracer, module_servers, module_runtimes = _traced(
        seed, registrations, TraceStore(sample_every=1)
    )
    return tracer.store, module_servers, module_runtimes


def test_breakdown_ns_agrees_exactly_with_the_float_breakdown():
    """The view's contract: the float-µs table is the integer-ns table
    divided by 1000 — ``us[m][k_us] == ns[m][k_ns] / 1000.0`` exactly,
    counts copied, same keys in the same order — whether the tree
    arrives as a stored dict, a rebuilt live span, or the tracer's own
    root with its OCALL bursts still unread."""
    store, module_servers, module_runtimes = _traced_store()
    # Same seed, no store: the same registrations, left on the tracer.
    lazy_roots = _traced()[0].roots
    assert len(store) == len(lazy_roots) == 2
    for record, lazy_root in zip(store.to_dict()["records"], lazy_roots):
        ns = registration_breakdown_ns(
            record["root"], module_servers, module_runtimes
        )
        for tree in (record["root"], span_from_dict(record["root"]), lazy_root):
            us = registration_breakdown(tree, module_servers, module_runtimes)
            assert list(us) == list(ns) == list(module_servers)
            for module, row_ns in ns.items():
                assert list(us[module]) == [
                    key[:-3] + "_us" if key.endswith("_ns") else key
                    for key in row_ns
                ]
                for (key, value), figure in zip(
                    row_ns.items(), us[module].values()
                ):
                    assert value > 0, (module, key)
                    if key.endswith("_ns"):
                        assert figure == value / 1000.0, (module, key)
                    else:
                        assert figure == value, (module, key)
                assert row_ns["lt_ns"] - row_ns["lf_ns"] == row_ns["ln_ns"]


def test_breakdown_ns_accepts_live_spans_and_dict_trees():
    store, module_servers, module_runtimes = _traced_store(registrations=1)
    record = store.get(store.trace_ids()[0])
    from_dict = registration_breakdown_ns(
        record["root"], module_servers, module_runtimes
    )
    from_span = registration_breakdown_ns(
        span_from_dict(record["root"]), module_servers, module_runtimes
    )
    assert from_dict == from_span


@pytest.mark.parametrize(
    "isolation, exitless",
    [
        (IsolationMode.SGX, False),
        (IsolationMode.CONTAINER, False),
        (IsolationMode.SGX, True),
        (None, False),
    ],
    ids=["sgx", "container", "exitless", "monolithic"],
)
def test_the_live_fold_reads_bursts_unread_and_equals_the_dict_fold(
    isolation, exitless
):
    testbed = warmed_testbed(isolation, seed=7, exitless=exitless)
    root = testbed.trace_registration().root
    tree = root.to_dict()  # a read-only view: builds no span
    servers, runtimes = module_maps(testbed)
    # Every other server on the tree is a row of its own, so a monolithic
    # core is folded too.
    for node in _walk_dicts(tree):
        server = node["tags"].get("server")
        if server is not None and server not in servers.values():
            servers[server] = server
    bursts = [node for node in root.walk_unread() if node.__class__ is not Span]
    live = registration_breakdown_ns(root, servers, runtimes)
    assert live == registration_breakdown_ns(tree, servers, runtimes)
    assert [node for node in root.walk_unread() if node.__class__ is not Span] == bursts
    assert sum(row["requests"] for row in live.values()) > 0
    if isolation is IsolationMode.SGX:
        assert bursts
        assert sum(row["ocalls"] for row in live.values()) > 0
        transition_ns = sum(row["transition_ns"] for row in live.values())
        assert (transition_ns > 0) == (not exitless)


def test_critical_path_descends_the_longest_child():
    tree = {
        "name": "root", "kind": "registration", "start_ns": 0, "end_ns": 100,
        "tags": {}, "children": [
            {"name": "short", "kind": "nas", "start_ns": 0, "end_ns": 30,
             "tags": {}, "children": []},
            {"name": "long", "kind": "nas", "start_ns": 30, "end_ns": 90,
             "tags": {}, "children": [
                 {"name": "leaf", "kind": "sbi.request", "start_ns": 40,
                  "end_ns": 80, "tags": {}, "children": []},
             ]},
        ],
    }
    path = critical_path(tree)
    assert [frame["name"] for frame in path] == ["root", "long", "leaf"]
    assert path[0]["ns"] == 100
    assert path[0]["self_ns"] == 100 - 30 - 60
    assert path[1]["self_ns"] == 60 - 40
    assert path[2]["self_ns"] == path[2]["ns"] == 40


def test_critical_path_ties_break_on_earliest_start():
    tree = {
        "name": "root", "kind": "registration", "start_ns": 0, "end_ns": 100,
        "tags": {}, "children": [
            {"name": "second", "kind": "nas", "start_ns": 50, "end_ns": 90,
             "tags": {}, "children": []},
            {"name": "first", "kind": "nas", "start_ns": 10, "end_ns": 50,
             "tags": {}, "children": []},
        ],
    }
    assert [f["name"] for f in critical_path(tree)] == ["root", "first"]


def test_digest_is_deterministic_and_ranked_by_duration():
    store, module_servers, module_runtimes = _traced_store(registrations=3)
    dump = store.to_dict()
    digest = slowest_traces_digest(
        dump, top=10, module_servers=module_servers,
        module_runtimes=module_runtimes,
    )
    assert digest["schema"] == 1
    assert digest["seen"] == 3 and digest["kept"] == 3
    durations = [entry["duration_ns"] for entry in digest["slowest"]]
    assert durations == sorted(durations, reverse=True)
    for entry in digest["slowest"]:
        assert entry["critical_path"][0]["kind"] == "registration"
        assert entry["critical_path"][0]["ns"] == entry["duration_ns"]
        assert set(entry["modules_ns"]) == set(module_servers)
    # Pure function of the record set: byte-identical on re-computation.
    again = slowest_traces_digest(
        dump, top=10, module_servers=module_servers,
        module_runtimes=module_runtimes,
    )
    assert json.dumps(digest, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_digest_top_limits_entries_but_not_counters():
    store, module_servers, module_runtimes = _traced_store(registrations=3)
    digest = slowest_traces_digest(store.to_dict(), top=1)
    assert len(digest["slowest"]) == 1
    assert digest["seen"] == 3 and digest["kept"] == 3
    assert "modules_ns" not in digest["slowest"][0]
