"""Deterministic per-index randomness for sampling-based checks.

Every sample k is derived from (seed, k) alone, so sample counts can vary
and evaluation order (or parallelism) cannot change any drawn value.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

from .exact import Mat2, Vec2
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


def random_fraction(rng: random.Random, bound: int) -> Fraction:
    den = rng.randint(1, _MAX_DEN)
    num = rng.randint(-bound * den, bound * den)
    return Fraction(num, den)


def random_point(rng: random.Random, bound: int) -> Vec2:
    return Vec2(random_fraction(rng, bound), random_fraction(rng, bound))


def random_integer_vector(rng: random.Random, bound: int = 4) -> Vec2:
    return Vec2(rng.randint(-bound, bound), rng.randint(-bound, bound))


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


def random_unimodular(rng: random.Random) -> Mat2:
    """A random element of GL_2(Z) built from elementary operations."""
    m = [[1, 0], [0, 1]]
    for _ in range(_UNIMODULAR_STEPS):
        op = rng.randrange(3)
        if op == 0:
            m[0], m[1] = m[1], m[0]
        elif op == 1:
            m[0] = [-m[0][0], -m[0][1]]
        else:
            k = rng.randint(-2, 2)
            m[1] = [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]
    return Mat2(m[0][0], m[0][1], m[1][0], m[1][1])
