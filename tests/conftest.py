import inspect
import textwrap
from itertools import product

import pytest

from tropical_kummer import (
    PrincipallyPolarizedSurface,
    lagrange_reduce,
    make_surface,
    verify,
)
from tropical_kummer.sampling import rng_for


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


def cut_descent(surface):
    """The surface with its descent scanning only +-u and +-v (a broken kernel)."""
    rb = lagrange_reduce(surface)
    keep = {r.as_tuple() for r in (rb.u, rb.v, -rb.u, -rb.v)}
    return PrincipallyPolarizedSurface(
        surface.gram,
        surface.int_gram,
        surface.gram_den,
        tuple(entry for entry in surface.descent if entry[0] in keep),
        surface.char_vectors,
        surface.conorms,
        surface.candidates,
    )


def cut_descend(descend):
    """`descend` run on `cut_descent(surface)`: patched into one module's
    binding, it breaks the descent behind that module alone."""
    return lambda surface, *t: descend(cut_descent(surface), *t)


@pytest.fixture(scope="session")
def row_passes():
    """Run one row of the `verify` table on surfaces; assert that it passes.

    ``samples`` is the suite size the row's case-count rule reads.
    """

    def run(name, *surfaces, samples, seed):
        (check,) = [c for c in verify.CHECKS if c.name == name]
        for surface in surfaces:
            result = verify.run_check(check, surface, seed, samples)
            assert result.status == verify.PASS, (surface.gram.describe(), result)

    return run


@pytest.fixture
def row_matches(monkeypatch):
    """Run a row of the `verify` table beside its `Fraction` statement.

    Both draw the same cases from the same rng: a per-case row 50 cases at
    seeds 7 and 8 (only the row gets its setup), a whole check at seeds 7
    and 8 with 40 samples.  Each must return what the other does: None or
    the same counterexample, or the same report tuple.  `fault`, if given,
    is (module, name, wrap): the attribute is patched to wrap(itself) while
    both run once more on the first surface.  Both the holding and the
    failing returns must occur.
    """

    def run(name, statement, surfaces, fault=None):
        (check,) = [c for c in verify.CHECKS if c.name == name]
        holds = set()

        def compare(s):
            if check.key is None:
                for seed in (7, 8):
                    got, want = check.fn(s, seed, 40), statement(s, seed, 40)
                    assert got == want, (s.gram.describe(), seed)
                    holds.add(got[2] is None)
                return
            extra = () if check.setup is None else (check.setup(s),)
            for seed, k in product((7, 8), range(50)):
                want = statement(s, rng_for(seed, check.key, k))
                got = check.fn(s, rng_for(seed, check.key, k), *extra)
                assert got == want, (s.gram.describe(), seed, k)
                holds.add(got is None)

        for s in surfaces:
            compare(s)
        if fault is not None:
            module, attr, wrap = fault
            monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
            compare(surfaces[0])
            monkeypatch.undo()
        assert holds == {True, False}  # both the holding and the failing returns

    return run


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
