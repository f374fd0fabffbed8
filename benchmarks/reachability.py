"""Reachability census: which functions under ``src/repro`` does anything
but a test run?

Every function defined under ``src/repro`` (AST, keyed on ``(file, first
line)`` -- decorators included, as ``co_firstlineno`` counts them) is
matched against the ``call`` events ``sys.setprofile`` sees in each
*context*, one fresh process apiece:

* ``tier-1:tests/...``       the tier-1 suite, per test file
* ``benchmarks:...``         ``pytest benchmarks --quick --benchmark-disable``
                             (pytest-benchmark switches the profiler off
                             inside ``benchmark(...)`` otherwise), per file
* ``cli:<row> ...``          every row of ``repro.cli.COMMANDS``
* ``example:<file>``         every script under ``examples/``
* ``hostbench:<workload>:<phase>``  each worker, ``measure`` and ``layers``
* ``host_perf:...``          the three CI invocations, at census scale

Every context but ``tier-1`` is a *product* context.  A function no
product context reaches must sit in ``reachability_allowlist.txt`` with a
reason of an allowed kind, or go -- with the tests that exist only for it.

    PYTHONPATH=src python benchmarks/reachability.py            # census
    PYTHONPATH=src python benchmarks/reachability.py --check    # + verdict

Both write ``benchmarks/results/reachability.json`` (sorted, byte-stable
for a tree); ``--check`` also prints ``file:line qualname <- contexts``
for every function that is neither product-reached nor allowlisted and
exits 1 if there is one.  Tier-1 under the profiler takes ~8 min; CI's
``census`` job runs ``--check`` beside the other jobs.  Forked workers
are not followed (a child leaves with ``os._exit`` and dumps nothing):
every context but hostbench's ``sharded-4x2`` runs ``--jobs 1``, and
there the caller runs the same claim loop as its child.
Python 3.9-compatible (no ``sys.monitoring``).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import threading
from typing import Any, Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
RESULT = os.path.join(ROOT, "benchmarks", "results", "reachability.json")
ALLOWLIST = os.path.join(ROOT, "benchmarks", "reachability_allowlist.txt")

#: kind -> what a reason of that kind must be.
ALLOWED_KINDS = {
    "abstract": "abstract interface method",
    "repr": "__repr__",
    "decoder": "decoder / parse-back oracle",
    "rejects-malformed": "rejection of malformed input",
    "accessor": "test-only read accessor of at most 5 lines",
    "paper": "paper section reproduced only by that test, named",
}
ACCESSOR_MAX_LINES = 5
_NAMES_PAPER = re.compile(r"§|\bSec(tion)?\b|\bTable\b|\bFig(ure)?\b")

Key = Tuple[str, int]

# ------------------------------------------------------------ the instrument

_seen: Set[Key] = set()


def _hook(frame: Any, event: str, arg: Any) -> None:
    if event == "call":
        code = frame.f_code
        _seen.add((code.co_filename, code.co_firstlineno))


class _PerTestFile:
    """pytest plugin: the calls of each test land in its file's context."""

    def __init__(self, prefix: str, reached: Dict[str, Set[Key]]) -> None:
        self.prefix, self.reached = prefix, reached

    def pytest_runtest_logstart(self, nodeid: str, location: Tuple[Any, ...]) -> None:
        global _seen
        _seen = self.reached.setdefault(f"{self.prefix}:{location[0]}", set())


def run_context(out: str, context: str, kind: str, argv: List[str]) -> int:
    """Child side: run one context under the hook, dump what it reached."""
    global _seen
    import cProfile

    # cProfile (hostbench's layers phase) takes the profiler slot and
    # clears it on disable(); take it back.
    disable = cProfile.Profile.disable

    def disable_and_rearm(self: Any) -> None:
        disable(self)
        sys.setprofile(_hook)

    cProfile.Profile.disable = disable_and_rearm  # type: ignore[method-assign]
    reached: Dict[str, Set[Key]] = {}
    _seen = reached.setdefault(context, set())
    os.chdir(ROOT)
    sys.argv = argv
    threading.setprofile(_hook)
    sys.setprofile(_hook)
    try:
        if kind == "pytest":
            import pytest

            status = int(pytest.main(argv[1:], plugins=[_PerTestFile(context, reached)]))
        elif kind == "module":
            runpy.run_module(argv[0], run_name="__main__", alter_sys=True)
            status = 0
        else:
            sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
            runpy.run_path(argv[0], run_name="__main__")
            status = 0
    except SystemExit as exit_:
        status = exit_.code if isinstance(exit_.code, int) else int(bool(exit_.code))
    finally:
        sys.setprofile(None)
    prefix = PACKAGE + os.sep
    dump = {
        name: sorted(
            [os.path.relpath(file, ROOT), line]
            for file, line in keys if file.startswith(prefix)
        )
        for name, keys in reached.items()
    }
    with open(out, "w") as handle:
        json.dump(dump, handle)
    return status


# -------------------------------------------------------------- the contexts

_PYTEST = ["pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
_SMALL = ["--registrations", "30", "--iterations", "2", "--max-ues", "2"]
_STORM = ["--legit", "8", "--horizon", "3", "--rates", "0,400"]
#: Invocations of the CLI rows that are not plain experiments; the CI
#: command lines at census scale, text and ``--json`` where they differ.
_CLI: Dict[str, List[List[str]]] = {
    "list": [[]],
    "register": [["--count", "2"], ["--isolation", "container"],
                 ["--isolation", "secure-vm"]],
    "trace": [[], ["--json"]],
    "metrics": [[], ["--format", "prom"]],
    "monitor": [["--registrations", "30", "--horizon", "45"],
                ["--registrations", "30", "--horizon", "45", "--json"]],
    "profile": [[], ["--collapsed"], ["--json"]],
    "capacity": [["--ues", "120", "--shards", "2"],
                 ["--ues", "120", "--shards", "2", "--monitor-cadence", "1", "--json"]],
    "attack": [_STORM + ["--defenses", "none,all"],
               ["--govern", "--legit", "12", "--horizon", "5", "--rates", "0,400", "--json"]],
    # The last overflows the arm's 2 048-trace store: the eviction path.
    "traces": [[], ["--json"], ["--trace-id", "TOP"],
               ["--legit", "2100", "--horizon", "210", "--rate", "0", "--sample", "1", "--json"]],
}
_HOSTBENCH = ("attach-sgx", "attach-container", "attach-sgx-pure", "observed",
              "storm-defended", "sharded-4x2")
_HOST_PERF = {
    "capacity": ["--capacity", "150"],
    "sharded": ["--sharded-capacity", "160", "--sharded-shards", "4",
                "--sharded-jobs", "1", "--sharded-gate", "1e9"],
}


def contexts() -> List[Tuple[str, str, List[str]]]:
    """``(context, kind, argv)`` for every run of the census."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "benchmarks")]
    from host_perf import OVERHEAD_GATES
    from repro.cli import COMMANDS

    digest = subprocess.run(
        [sys.executable, "-m", "repro", "traces", "--json"], check=True,
        env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE,
    ).stdout
    top = json.loads(digest)["slowest"][0]["trace_id"]  # what CI resolves
    rows: List[Tuple[str, str, List[str]]] = [
        ("tier-1", "pytest", _PYTEST + ["tests"]),
        ("benchmarks", "pytest", _PYTEST + [
            "benchmarks", "--ignore=benchmarks/hostbench", "--quick",
            "--jobs", "1", "--benchmark-disable"]),
    ]
    for name, *_ in COMMANDS:
        for flags in _CLI.get(name, [_SMALL, _SMALL + ["--plot"]]):
            argv = ["repro", name] + [top if flag == "TOP" else flag for flag in flags]
            rows.append((" ".join([f"cli:{name}"] + flags), "module", argv))
    for example in sorted(os.listdir(os.path.join(ROOT, "examples"))):
        if example.endswith(".py"):
            rows.append((f"example:{example}", "path", [f"examples/{example}"]))
    for workload in _HOSTBENCH:
        for phase in ("measure", "layers"):
            rows.append((f"hostbench:{workload}:{phase}", "path", [
                "benchmarks/hostbench/worker.py", "--workload", workload, "--seed", "7",
                "--seconds", "0.3", "--trace", str(int(phase == "layers")), "--phase", phase]))
    gates = [arg for name in OVERHEAD_GATES for arg in ("--gate", f"{name}=1e9")]
    for name, flags in {"gates": gates, **_HOST_PERF}.items():
        rows.append((f"host_perf:{name}", "path", ["benchmarks/host_perf.py"] + flags))
    return rows


# ---------------------------------------------------------------- the census


def defined_functions() -> Dict[Key, Dict[str, Any]]:
    """Every ``def`` under ``src/repro``: qualname and lines past the docstring."""
    table: Dict[Key, Dict[str, Any]] = {}

    def visit(node: ast.AST, file: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                body = child.body[0]
                documented = isinstance(body, ast.Expr) and isinstance(
                    getattr(body.value, "value", None), str)
                lines = child.end_lineno - first + 1
                if documented:
                    lines -= body.end_lineno - body.lineno + 1
                table[(file, first)] = {"qualname": name, "lines": lines}
            visit(child, file, name)

    for folder, _dirs, files in sorted(os.walk(PACKAGE)):
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(folder, filename)
                with open(path) as handle:
                    visit(ast.parse(handle.read()), os.path.relpath(path, ROOT), "")
    return table


def read_allowlist() -> Dict[str, Tuple[str, str]]:
    """``file::qualname`` -> ``(kind, reason)``; lines are ``kind | id | reason``."""
    allowed: Dict[str, Tuple[str, str]] = {}
    with open(ALLOWLIST) as handle:
        for number, line in enumerate(handle, start=1):
            if line.strip() and not line.startswith("#"):
                kind, ident, reason = (part.strip() for part in line.split("|", 2))
                if kind not in ALLOWED_KINDS or not reason:
                    raise SystemExit(f"{ALLOWLIST}:{number}: kind must be one of "
                                     f"{sorted(ALLOWED_KINDS)}, with a reason")
                allowed[ident] = (kind, reason)
    return allowed


def run_contexts() -> Dict[str, Set[Key]]:
    """Run every context in a fresh process: context -> functions it called."""
    reached: Dict[str, Set[Key]] = {}
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}
    for context, kind, argv in contexts():
        print(f"census: {context}", file=sys.stderr, flush=True)
        with tempfile.TemporaryDirectory() as scratch:
            out = os.path.join(scratch, "reached.json")
            status = subprocess.run(
                [sys.executable, __file__, "--run", out, context, kind] + argv,
                env=env, stdout=subprocess.DEVNULL,
            ).returncode
            # An argparse error exits 2 having run nothing: a context that
            # did not finish says nothing about what is reachable.
            if status != 0:
                raise SystemExit(f"census: {context} exited {status}")
            with open(out) as handle:
                for name, keys in json.load(handle).items():
                    reached.setdefault(name, set()).update((f, n) for f, n in keys)
    return reached


def fold(reached: Dict[str, Set[Key]]) -> Dict[str, Any]:
    """The census document: every function no product context reached."""
    functions = defined_functions()
    allowed = read_allowlist()
    rows = []
    for (file, line), entry in sorted(functions.items()):
        where = sorted(name for name, keys in reached.items() if (file, line) in keys)
        if all(name.startswith("tier-1") for name in where):
            kind, reason = allowed.get(f"{file}::{entry['qualname']}", (None, None))
            rows.append({"file": file, "line": line, **entry, "contexts": where,
                         "allowed": kind and f"{kind}: {reason}"})
    return {
        "summary": {
            "functions": len(functions),
            "product_reached": len(functions) - len(rows),
            "tests_only": sum(1 for row in rows if row["contexts"]),
            "unreached": sum(1 for row in rows if not row["contexts"]),
            "allowlisted": sum(1 for row in rows if row["allowed"]),
        },
        "contexts": {name: len(keys & functions.keys()) for name, keys in sorted(reached.items())},
        "not_product_reached": rows,
    }


def violations(document: Dict[str, Any]) -> List[str]:
    """What ``--check`` refuses: unallowed rows, and allowlist lines that
    no longer hold (function gone or product-reached, an accessor grown
    past its bound, a ``paper`` reason naming no section)."""
    problems = []
    unused = set(read_allowlist())
    for row in document["not_product_reached"]:
        ident = f"{row['file']}::{row['qualname']}"
        unused.discard(ident)
        kind, _, reason = (row["allowed"] or "").partition(": ")
        if not kind:
            problems.append(f"{row['file']}:{row['line']} {row['qualname']} <- "
                            + (", ".join(row["contexts"]) or "nothing"))
        elif kind == "accessor" and row["lines"] > ACCESSOR_MAX_LINES:
            problems.append(f"{ident}: an accessor of {row['lines']} lines")
        elif kind == "paper" and not _NAMES_PAPER.search(reason):
            problems.append(f"{ident}: 'paper' reason names no section, table or figure")
    problems.extend(f"{ident}: allowlisted but product-reached or gone"
                    for ident in sorted(unused))
    return problems


def main(argv: List[str]) -> int:
    if argv[:1] == ["--run"]:
        return run_context(argv[1], argv[2], argv[3], argv[4:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a function neither product-reached nor allowlisted")
    args = parser.parse_args(argv)
    document = fold(run_contexts())
    with open(RESULT, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(document["summary"], sort_keys=True))
    problems = violations(document) if args.check else []
    print("\n".join(problems), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
