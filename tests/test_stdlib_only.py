import ast
import functools
import importlib
import sys
from pathlib import Path

import tropical_kummer

PACKAGE = Path(tropical_kummer.__file__).resolve().parent


def _import_nodes():
    """(file, node) for every import statement in the runtime package."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.name, node


def _imports():
    """(file, line, module) for every absolute import in the runtime package."""
    for path, node in _import_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield path, node.lineno, name


def test_runtime_imports_only_the_standard_library():
    foreign = []
    for path, lineno, name in _imports():
        top = name.split(".")[0]
        if top != "tropical_kummer" and top not in sys.stdlib_module_names:
            foreign.append((path, lineno, name))
    assert foreign == []


def test_runtime_does_not_import_dataclasses():
    # Importing it pulls in inspect, ast, dis and tokenize, and each decorated
    # class then execs its generated methods: about 1 ms a class per start.
    # typing costs 3-4 ms of a start for annotations that are strings anyway
    # (`from __future__ import annotations`).
    slow = ("dataclasses", "typing")
    assert [i for i in _imports() if i[2].split(".")[0] in slow] == []


def test_private_names_cross_modules_only_where_pinned():
    # The integer layer (`numerators`, `form`) is public in `exact`.  Only the
    # box walk and its certificate cross, from `theta` to `nonarch.safe_cutoff`
    # and `tropicalize_series`, so the oracle's premise is one inequality.
    crossing = {
        (path, f"{node.module}.{alias.name}")
        for path, node in _import_nodes()
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert crossing == {
        ("nonarch.py", "theta._box_minimum"),
        ("nonarch.py", "theta._certifies"),
    }


def test_public_names_resolve_once():
    names = tropical_kummer.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(tropical_kummer, n)] == []
    namespace = {}
    exec("from tropical_kummer import *", namespace)
    assert set(names) <= set(namespace)


def test_public_names_are_read_by_the_program():
    # A public name earns its place when the package or a script reads it;
    # the tests alone do not keep one.  `__init__` only re-exports.
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (Path(__file__).resolve().parents[1] / "scripts").glob("*.py")
    read = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [n for n in tropical_kummer.__all__ if n not in read] == []


def test_no_module_level_caches():
    # The README's "no module-level caches", which perfbench's fresh state per
    # batch also assumes: memos live on a surface (`lazy`) or an instance.
    # Class attributes count too; `__main__` is skipped, it runs the CLI.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"tropical_kummer.{path.stem}")
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for name, value in vars(owner).items():
                cache = isinstance(value, functools._lru_cache_wrapper)
                if cache or hasattr(value, "cache_clear"):
                    found.append((path.stem, getattr(owner, "__name__", ""), name))
    assert found == []
