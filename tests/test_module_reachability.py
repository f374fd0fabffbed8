"""Every module under ``src/repro`` is imported by something that ships.

Static (AST import graph, no execution): a module passes when a file
outside ``tests/`` -- ``src/``, ``benchmarks/``, ``examples/`` -- imports
it directly, or when its package's ``__init__`` re-exports one of its
names *and* some file outside ``tests/`` imports that name from the
package.  A package ``__init__`` importing its own submodule is a
re-export, not a use: a module only its own unit test and an unused
re-export reach fails here.  The function-level census is
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
    """``(modules imported, (package, name) pairs imported from a package)``."""
    imported, names = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: relative imports are not resolved here"
            for alias in node.names:
                if f"{node.module}.{alias.name}" in modules:
                    imported.add(f"{node.module}.{alias.name}")
                else:
                    imported.add(node.module)
                    names.add((node.module, alias.name))
    return imported, names


def test_every_module_is_imported_outside_tests():
    sources = sorted(SRC.rglob("*.py"))
    modules = {_module_name(path): path for path in sources}
    shipped = sources + sorted(
        path for top in ("benchmarks", "examples") for path in (ROOT / top).rglob("*.py")
    )
    used, wanted, reexports = set(), set(), {}
    for path in shipped:
        imported, names = _imports(path, modules)
        if path.name == "__init__.py" and SRC in path.parents:
            # name re-exported by this package -> the module it came from
            reexports[_module_name(path)] = {
                name: base for base, name in names if base in modules
            }
        else:
            used |= imported
            wanted |= names
    for package, name in wanted:
        origin = reexports.get(package, {}).get(name)
        if origin:
            used.add(origin)
    unreached = sorted(
        name for name, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py") and name not in used
    )
    assert not unreached, (
        "imported by no file outside tests/ (delete it with its tests, or "
        f"give it a caller): {unreached}"
    )
