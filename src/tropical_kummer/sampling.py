"""Deterministic per-index randomness for sampling-based checks.

Every sample k is derived from (seed, k) alone, so sample counts can vary
and evaluation order (or parallelism) cannot change any drawn value.

Each draw rule is stated once, on integers: `random_numerators` draws a point
as its numerators over one common denominator, `random_pair` an integer
vector and `random_unimodular_entries` an element of GL_2(Z).
`random_point` (`exact.point` of the numerators), `random_integer_vector`
and `random_unimodular` are their `Vec2` and `Mat2` views: the same `rng`
calls in the same order, so the same values and the same generator state.
"""

from __future__ import annotations

import hashlib
import math
import random

from .exact import Mat2, Vec2, point
from .lattice import (
    PrincipallyPolarizedSurface,
    SurfaceClass,
    classify,
    make_surface,
)


def rng_for(seed: int, *index) -> random.Random:
    """A Random stream keyed by (seed, index...), stable across platforms."""
    key = ":".join([str(seed), *map(str, index)])
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


_MAX_DEN = 12  # the largest denominator of a drawn fraction
_UNIMODULAR_STEPS = 6  # elementary operations per random unimodular matrix


def random_numerators(rng: random.Random, bound: int) -> tuple[int, int, int]:
    """A point drawn as `exact.numerators` writes it, (t0, t1, den) in lowest
    terms: per coordinate a denominator d in [1, _MAX_DEN], then a numerator
    in [-bound d, bound d]."""
    randrange = rng.randrange
    d0 = randrange(1, _MAX_DEN + 1)
    n0 = randrange(-bound * d0, bound * d0 + 1)
    d1 = randrange(1, _MAX_DEN + 1)
    n1 = randrange(-bound * d1, bound * d1 + 1)
    den = math.lcm(d0, d1)
    t0, t1 = n0 * (den // d0), n1 * (den // d1)
    g = math.gcd(t0, t1, den)
    return t0 // g, t1 // g, den // g


def random_point(rng: random.Random, bound: int) -> Vec2:
    return point(*random_numerators(rng, bound))


def random_pair(rng: random.Random, bound: int) -> tuple[int, int]:
    return rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1)


def random_integer_vector(rng: random.Random, bound: int = 4) -> Vec2:
    return Vec2(*random_pair(rng, bound))


def random_gram(rng: random.Random, max_entry: int = 6) -> Mat2:
    """A random integer symmetric positive-definite 2x2 matrix."""
    a = rng.randint(1, max_entry)
    d = rng.randint(1, max_entry)
    top = math.isqrt(a * d - 1)
    b = rng.randint(-top, top)
    return Mat2(a, b, b, d)


def random_surface(
    rng: random.Random, max_entry: int = 6
) -> PrincipallyPolarizedSurface:
    return make_surface(random_gram(rng, max_entry))


def random_irreducible_surface(
    rng: random.Random, max_entry: int = 6
) -> PrincipallyPolarizedSurface:
    while True:
        surface = random_surface(rng, max_entry)
        if classify(surface) is SurfaceClass.IRREDUCIBLE:
            return surface


def random_unimodular_entries(rng: random.Random) -> tuple[int, int, int, int]:
    """A random element of GL_2(Z), rows (a b) and (c d), by row operations."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_UNIMODULAR_STEPS):
        op = rng.randrange(3)
        if op == 0:
            a, b, c, d = c, d, a, b
        elif op == 1:
            a, b = -a, -b
        else:
            k = rng.randrange(-2, 3)
            c, d = c + k * a, d + k * b
    return a, b, c, d


def random_unimodular(rng: random.Random) -> Mat2:
    """`random_unimodular_entries` as a `Mat2`."""
    return Mat2(*random_unimodular_entries(rng))
