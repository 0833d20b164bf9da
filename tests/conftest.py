import inspect
import textwrap
from fractions import Fraction

import pytest

from tropical_kummer import lagrange_reduce, make_surface


@pytest.fixture(scope="session")
def hexagonal():
    """The symmetric hexagonal example: all theta constants equal 1/2."""
    return make_surface([[2, -1], [-1, 2]])


@pytest.fixture(scope="session")
def skew_hexagonal():
    """Irreducible with distinct relevant-vector norms (2, 3, 3)."""
    return make_surface([[2, -1], [-1, 3]])


@pytest.fixture(scope="session")
def unit_square():
    """Product type: orthogonal period basis."""
    return make_surface([[1, 0], [0, 1]])


@pytest.fixture(scope="session")
def hidden_product():
    """Product type that needs a nontrivial reduction step."""
    return make_surface([[5, 3], [3, 2]])


@pytest.fixture
def fractions_built(monkeypatch):
    """A function that returns how many `Fraction`s were built (through
    `Fraction.__new__`) since its last call, or since the fixture was set up."""
    built, new = [0], Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    def take():
        count, built[0] = built[0], 0
        return count

    monkeypatch.setattr(Fraction, "__new__", counted)
    return take


def with_fields(surface, **changed):
    """`surface` rebuilt with the `changed` fields (a broken kernel's data);
    every other required field is carried over, and the lazy cache is fresh."""
    kept = (n for n in surface._fields if n not in surface._defaults)
    return type(surface)(**{**{n: getattr(surface, n) for n in kept}, **changed})


def cut_descent(surface):
    """The surface with its descent scanning only +-u and +-v (a broken kernel)."""
    rb = lagrange_reduce(surface)
    keep = {r.as_tuple() for r in (rb.u, rb.v, -rb.u, -rb.v)}
    return with_fields(
        surface, descent=tuple(entry for entry in surface.descent if entry[0] in keep)
    )


def cut_descend(descend):
    """`descend` run on `cut_descent(surface)`: patched into one module's
    binding, it breaks the descent behind that module alone."""
    return lambda surface, *t: descend(cut_descent(surface), *t)


def source_mutant(module, name, *edits):
    """`module.name` rebuilt from its source with each (old, new) of `edits`
    made, each `old` found once: a broken kernel that reads the module's
    globals, for `monkeypatch` to bind."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    for old, new in edits:
        assert source.count(old) == 1, (name, old)
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(compile(source, module.__file__, "exec"), namespace)
    return namespace[name]
