"""Profiler exactness: folded stacks agree with the span-derived tables."""

import pytest

from repro.experiments.harness import warmed_testbed
from repro.obs.analytics import registration_breakdown_ns, us_view
from repro.obs.flame import (
    collapsed_text,
    parse_collapsed_text,
    sanitize_frame,
    totals_by_frame,
)
from repro.obs.profile import (
    MODULE_KEYS,
    fold_registration,
    profile_registration,
)
from repro.obs.trace import Span
from repro.testbed import IsolationMode


def test_sanitize_frame_strips_structural_characters():
    assert sanitize_frame("a;b c\td\ne") == "a:b_c_d_e"
    assert sanitize_frame("") == "_"


def test_collapsed_text_round_trips_and_sorts():
    stacks = {("b", "y"): 3, ("a", "x"): 5, ("a",): 0}
    text = collapsed_text(stacks)
    assert text == "a;x 5\nb;y 3\n"  # zero-value stacks are skipped
    assert parse_collapsed_text(text) == {("a", "x"): 5, ("b", "y"): 3}
    assert collapsed_text({}) == ""
    with pytest.raises(ValueError):
        parse_collapsed_text("justonetoken\n")


def test_totals_by_frame_aggregates_leaves():
    stacks = {("a", "x"): 5, ("b", "x"): 2, ("b",): 1}
    assert totals_by_frame(stacks) == {"x": 7, "b": 1}


def _synthetic_ocall_tree():
    # registration(1000) > ocall(600, components 100+50+25+125=300).
    root = Span("registration", "registration", 0)
    root.end_ns = 1_000
    ocall = Span(
        "sendmsg",
        "sgx.ocall",
        100,
        runtime="eudm-rt",
        transition_ns=100,
        shield_ns=50,
        copy_ns=25,
        host_ns=125,
    )
    ocall.end_ns = 700
    root.children.append(ocall)
    return root


def test_fold_splits_ocalls_into_component_subframes():
    profile = fold_registration(
        _synthetic_ocall_tree(),
        module_servers={"eudm": "eudm-srv"},
        module_runtimes={"eudm": "eudm-rt"},
    )
    ocall_frame = "eudm:ocall:sendmsg"
    assert profile.stacks[("registration", ocall_frame, "transition")] == 100
    assert profile.stacks[("registration", ocall_frame, "shield")] == 50
    assert profile.stacks[("registration", ocall_frame, "copy")] == 25
    assert profile.stacks[("registration", ocall_frame, "host")] == 125
    # The untagged remainder of the OCALL span stays on the OCALL frame,
    # and the registration keeps its own self time: totals are lossless.
    assert profile.stacks[("registration", ocall_frame)] == 600 - 300
    assert profile.stacks[("registration",)] == 1_000 - 600
    assert profile.total_ns == 1_000
    assert profile.module_transition_ns("eudm") == 100
    assert profile.modules == {"eudm": {
        "ocalls": 1, "eenters": 1, "eexits": 1,
        "transition_ns": 100, "shield_ns": 50, "copy_ns": 25, "host_ns": 125,
        "transition_us": 0.1, "shield_us": 0.05, "copy_us": 0.025,
        "host_us": 0.125,
    }}


def test_profile_matches_trace_breakdown_bit_for_bit():
    """The acceptance contract on a real SGX registration: the profile's
    per-module rows *are* the fold's rows (so they are what ``repro
    trace`` prints), and the one number the profiler derives on its own
    — transition self-time summed back out of the collapsed stacks —
    equals the fold's ``transition_ns``."""
    testbed = warmed_testbed(IsolationMode.SGX, seed=7)
    profile, trace = profile_registration(testbed, establish_session=False)
    assert trace.outcome.success
    # The fold is lossless: self times sum back to the root interval.
    assert profile.total_ns == profile.root.ns
    # Collapsed text round-trips to the identical stack map.
    assert parse_collapsed_text(profile.collapsed()) == profile.stacks
    # Every shielded module shows Table III activity.
    assert sorted(profile.modules) == ["eamf", "eausf", "eudm"]
    modules = testbed.paka.modules
    rows = registration_breakdown_ns(
        profile.root,
        {name: m.server.name for name, m in modules.items()},
        {name: m.runtime.name for name, m in modules.items()},
    )
    for module, row in profile.modules.items():
        table3 = {key: rows[module][key] for key in MODULE_KEYS}
        assert row == {**table3, **us_view(table3)}, module
        assert all(row[key] == trace.breakdown[module][key]
                   for key in us_view(table3)), module
        assert row["eenters"] > 0 and row["eenters"] == row["eexits"], module
        assert row["ocalls"] >= row["eenters"], module
        assert row["transition_us"] > 0, module
        assert profile.module_transition_ns(module) == row["transition_ns"]


def test_modules_without_ocalls_are_omitted():
    profile, trace = profile_registration(
        warmed_testbed(IsolationMode.CONTAINER, seed=7)
    )
    assert trace.outcome.success and set(trace.breakdown) == {
        "eamf", "eausf", "eudm"
    }
    assert profile.modules == {}
    assert profile.total_ns == profile.root.ns


def test_profile_is_deterministic_per_seed():
    first = profile_registration(warmed_testbed(IsolationMode.SGX, seed=11))[0]
    second = profile_registration(warmed_testbed(IsolationMode.SGX, seed=11))[0]
    assert first.collapsed() == second.collapsed()
    assert first.modules == second.modules
