import pytest

from tropical_kummer import (
    PrincipallyPolarizedSurface,
    lagrange_reduce,
    make_surface,
    verify,
)


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
    )


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
