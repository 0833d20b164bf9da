import ast
import sys
from pathlib import Path

import tropical_kummer

PACKAGE = Path(tropical_kummer.__file__).resolve().parent


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "tropical_kummer" and top not in sys.stdlib_module_names:
                    foreign.append((path.name, node.lineno, name))
    assert foreign == []


def test_public_names_resolve_once():
    names = tropical_kummer.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(tropical_kummer, n)] == []
    namespace = {}
    exec("from tropical_kummer import *", namespace)
    assert set(names) <= set(namespace)
