import ast
import sys
from pathlib import Path

import tropical_kummer

PACKAGE = Path(tropical_kummer.__file__).resolve().parent


def _imports():
    """(file, line, module) for every absolute import in the runtime package."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


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


def test_public_names_resolve_once():
    names = tropical_kummer.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(tropical_kummer, n)] == []
    namespace = {}
    exec("from tropical_kummer import *", namespace)
    assert set(names) <= set(namespace)
