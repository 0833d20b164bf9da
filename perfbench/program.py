"""Loading the program under test from the checkout's ``src`` directory.

The benchmark never installs the package: it puts ``<root>/src`` first on
``sys.path`` for in-process workloads and on ``PYTHONPATH`` for spawned
ones, and refuses to run when that directory does not hold the package.
"""

from __future__ import annotations

import compileall
import hashlib
import importlib
import os
import sys
from pathlib import Path

PACKAGE = "tropical_kummer"
MODULES = ("exact", "lattice", "theta", "kummer", "nonarch", "verify", "cli")


class ProgramMissingError(RuntimeError):
    """The checkout does not contain the program's sources."""


def source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise ProgramMissingError(f"no {PACKAGE} package under {src}")
    return src


def build(root: Path) -> None:
    """Byte-compile the package so no timed import pays for compilation."""
    src = source_dir(root)
    if not compileall.compile_dir(str(src / PACKAGE), quiet=1):
        raise ProgramMissingError(f"{PACKAGE} does not compile")


def spawn_env(root: Path) -> dict:
    """Environment for a child interpreter that imports the checkout's package."""
    env = dict(os.environ)
    src = str(source_dir(root))
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def source_digest(root: Path) -> str:
    """SHA-256 over the package's source files, to identify the code measured."""
    h = hashlib.sha256()
    pkg = source_dir(root) / PACKAGE
    for path in sorted(pkg.rglob("*.py")):
        h.update(path.relative_to(pkg).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Program:
    """The imported package: its modules plus the caches it keeps.

    ``load`` drops any earlier import first, so calling it several times
    measures a full package import each time.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        for name in MODULES:
            setattr(self, name, modules[f"{PACKAGE}.{name}"])
        self.pkg = modules[PACKAGE]
        # Functions memoized with functools.lru_cache, found by attribute so
        # the benchmark keeps working when the program adds or drops caches.
        caches = {}
        for mod in modules.values():
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    caches[id(obj)] = obj
        self._caches = tuple(caches.values())

    @classmethod
    def load(cls, root: Path) -> "Program":
        src = str(source_dir(root))
        if sys.path[0] != src:
            sys.path.insert(0, src)
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        importlib.import_module(PACKAGE)
        for name in MODULES:
            importlib.import_module(f"{PACKAGE}.{name}")
        loaded = Path(sys.modules[PACKAGE].__file__).resolve()
        if not loaded.is_relative_to(Path(src).resolve()):
            raise ProgramMissingError(f"{PACKAGE} was imported from {loaded}")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        return cls(modules)

    def clear_caches(self) -> None:
        """Empty every program cache, as a fresh process would start."""
        for fn in self._caches:
            fn.cache_clear()
