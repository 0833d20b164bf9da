import ast
import functools
import importlib
import random
import re
import sys
from fractions import Fraction as F
from inspect import isfunction, signature
from pathlib import Path

import reference

import tropical_kummer
from tropical_kummer import FormalThetaSeries, Vec2, Vec3
from tropical_kummer import kummer, lattice, nonarch, theta, verify

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
    # The integer layer (`numerators`, `form`) is public in `exact`, the
    # characteristic norms `lattice.char_norms` are public, and the box walk
    # `theta.box_step` is public.  Its certificate `_certifies` stays in
    # `theta` with the one radius rule that passes it, `cutoff_step`, so no
    # private name crosses a module.
    crossing = {
        (path, f"{node.module}.{alias.name}")
        for path, node in _import_nodes()
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert crossing == set()


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


def test_reference_imports_only_value_types_and_errors():
    # tests/reference.py states the paper's definitions apart from the fast
    # paths: from the package it takes `exact`'s value types and the errors.
    tree = ast.parse(Path(__file__).with_name("reference.py").read_text("utf-8"))
    values = {f"tropical_kummer.exact.{name}" for name in ("Vec2", "Vec3", "Mat2")}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names += [f"{module}.{alias.name}" for alias in node.names]
    assert [
        name
        for name in names
        if name.split(".")[0] not in sys.stdlib_module_names
        and name not in values
        and not name.startswith("tropical_kummer.errors.")
    ] == []


# The descent, the box walk and its wrappers, and the cutoff rule.
FAST_PATHS = (
    "descend",
    "box_step",
    "theta_eval_bruteforce",
    "tropicalize_step",
    "cutoff_step",
    "safe_cutoff",
)


def test_reference_runs_without_the_fast_paths(monkeypatch):
    # With the fast paths and the series terms made to raise, every reference
    # function still returns, called with the arguments its parameter names
    # ask for.
    def fast_path(*args):
        raise AssertionError("the reference reached a fast path")

    for module in (tropical_kummer, lattice, theta, nonarch, kummer, verify):
        for name in FAST_PATHS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fast_path)
    monkeypatch.setattr(FormalThetaSeries, "support", property(fast_path))
    square = [Vec3(0, 0, 0), Vec3(1, 1, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)]
    x = Vec2(F(1, 3), F(-2, 7))
    given = dict(x=x, y=x, s=x, v=x, yp=Vec2(1, 0) - x, reach=2, radius=2, cutoff=2)
    given.update(ceiling=5, c=(1, 1), faces=[((0, 0, 1), 0, square)])
    given["p"] = Vec3(F(1, 2), F(1, 3), 0)
    given.update(rng=random.Random(0), bound=3)
    public = [f for n, f in vars(reference).items() if isfunction(f) and n[0] != "_"]
    for gram in ([[2, -1], [-1, 2]], [[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]]):
        rel = [Vec2(*r) for r, _, _ in reference.surface_fields(gram)["descent"]]
        given.update(gram=gram, rows=gram, r1=rel[0], r2=rel[1], vectors=rel)
        for f in public:
            f(*(given[name] for name in signature(f).parameters))


def test_verify_does_not_descend():
    # `verify` evaluates theta through `theta.theta_step` and `theta_eval`: the
    # shift, descent and value formula is stated once, in `theta`.
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "theta_step" in names
    assert "descend" not in names


# Each rule that takes a value out of the integer layer, as `ast.unparse`
# writes it: the scale gram_den (2 den)^2, the characteristic index, a point
# built from its numerators and a vector rendered as exact strings.
_RULES = {
    "scale": r"4 \* ([\w.]+\.)?gram_den",
    "index": r"([\w.]+\.)?j1 \+ 2 \* ([\w.]+\.)?j2",
    "point": r"Vec2(\._of)?\(Fraction\(.+\), Fraction\(.+\)\)",
    "render": r"\[str\((\w+)\) for \1 in .+\.as_tuple\(\)\]",
}


def _rule_sites() -> dict[str, list[str]]:
    """Per rule, `module.name` of the innermost def or class around each
    runtime expression that writes it."""
    found = {rule: [] for rule in _RULES}

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.expr):
            text = ast.unparse(node)
            for rule, pattern in _RULES.items():
                if re.fullmatch(pattern, text):
                    found[rule].append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_each_rule_out_of_the_integer_layer_is_written_once():
    # `verify`'s lift row restates the scale on purpose: it checks the
    # printed constant against the stored Gram, apart from `step_scale`.
    assert _rule_sites() == {
        "scale": ["theta.step_scale", "verify._series_lift"],
        "index": ["theta.ThetaCharacteristic"],
        "point": ["exact.point"],
        "render": ["exact.as_strings"],
    }


def _methods():
    """(`module.Class`, def) for every method written in a runtime class body."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}", item


def test_field_coercion_is_written_once():
    # The rational value types' public constructors coerce through one
    # `__init__`; arithmetic and the kernels build through the non-coercing `_of`.
    def coerces(method):
        return any(
            isinstance(n, ast.Call) and getattr(n.func, "id", None) == "to_fraction"
            for n in ast.walk(method)
        )

    sites = [w for w, m in _methods() if m.name == "__init__" and coerces(m)]
    assert sites == ["exact._Rational"]


def test_vector_arithmetic_is_written_once():
    ops = ("__add__", "__sub__", "__neg__", "__rmul__")
    sites = {op: [] for op in ops}
    for where, method in _methods():
        if where.startswith("exact.") and method.name in ops:
            sites[method.name].append(where)
    assert sites == {op: ["exact._Vector"] for op in ops}
