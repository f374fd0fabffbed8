"""Every module under ``src/repro`` is imported by something that ships,
from the one place that defines it.

Static (AST import graph, no execution): a module passes when a file
outside ``tests/`` -- ``src/``, ``benchmarks/``, ``examples/`` -- imports
it directly.  There is no second path to a name: a package ``__init__``
under ``src/repro`` is a docstring and nothing else, so a re-export
cannot stand in for a caller.  The function-level census is
``benchmarks/reachability.py``; this is the sub-second part of it that
tier-1 can afford.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: pathlib.Path, modules):
    """The modules ``path`` imports."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: relative imports are not resolved here"
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                imported.add(submodule if submodule in modules else node.module)
    return imported


def test_package_inits_bind_no_name():
    offenders = []
    for path in sorted((SRC / "repro").rglob("__init__.py")):
        tree = ast.parse(path.read_text())
        code = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
        if code:
            offenders.append(str(path.relative_to(SRC)))
    assert not offenders, (
        "a package __init__ is a docstring and nothing else (import a name "
        f"from the module that defines it): {offenders}"
    )


def test_every_module_is_imported_outside_tests():
    sources = sorted(SRC.rglob("*.py"))
    modules = {_module_name(path): path for path in sources}
    shipped = sources + sorted(
        path for top in ("benchmarks", "examples") for path in (ROOT / top).rglob("*.py")
    )
    used = set()
    for path in shipped:
        used |= _imports(path, modules)
    unreached = sorted(
        name for name, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py") and name not in used
    )
    assert not unreached, (
        "imported by no file outside tests/ (delete it with its tests, or "
        f"give it a caller): {unreached}"
    )
