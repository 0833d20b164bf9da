"""The integer draws of `sampling` against the `Fraction` draws they replaced.

Each integer draw must return the twin's values as integers and leave the
generator where the twin leaves it, so every `verify` report stays the same.
"""

import random

import pytest
import reference

from tropical_kummer.exact import numerators
from tropical_kummer.sampling import (
    random_integer_vector,
    random_numerators,
    random_pair,
    random_point,
    random_unimodular,
    random_unimodular_entries,
)

DRAWS = 2000

# name: (the integer draw, its public view, the reference twin, the twin
# read as integers); each called as (rng, bound).
KINDS = {
    "point": (random_numerators, random_point, reference.draw_point, numerators),
    "integer-vector": (
        random_pair,
        random_integer_vector,
        reference.draw_integer_vector,
        lambda v: numerators(v)[:2],
    ),
    "unimodular": (
        lambda rng, _: random_unimodular_entries(rng),
        lambda rng, _: random_unimodular(rng),
        lambda rng, _: reference.draw_unimodular(rng),
        lambda m: (m.a, m.b, m.c, m.d),
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_integer_draws_are_the_fraction_draws(kind):
    integer, view, twin, read = KINDS[kind]
    for k in range(DRAWS):
        bound = 2 + k % 4  # the suite draws within bounds 2 to 5
        twin_rng, integer_rng, view_rng = (random.Random(k) for _ in range(3))
        want = twin(twin_rng, bound)
        got = integer(integer_rng, bound)
        assert all(type(n) is int for n in got)
        assert got == read(want)
        assert view(view_rng, bound) == want
        state = twin_rng.getstate()
        assert integer_rng.getstate() == state and view_rng.getstate() == state
