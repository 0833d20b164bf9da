"""Exact rational vectors, 2x2 matrices, and integer-matrix predicates.

Every quantity in this package is a ``fractions.Fraction``; floats appear
only in the decimal formatting used for mesh export.  Rationals serialize
as ``"p/q"`` (or ``"n"`` for integers), which is exactly ``str(Fraction)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

from .errors import NonSymmetricError

RationalLike = Union[Fraction, int, str]


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def fraction_decimal(q: Fraction, digits: int) -> str:
    """Round q to `digits` fractional digits, exactly (no float round-trip)."""
    if digits < 1:
        raise ValueError("digits must be positive")
    scaled = round(q * 10**digits)  # exact round-half-even on Fractions
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


@dataclass(frozen=True)
class Vec2:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", to_fraction(self.x))
        object.__setattr__(self, "y", to_fraction(self.y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __rmul__(self, scalar) -> "Vec2":
        s = to_fraction(scalar)
        return Vec2(s * self.x, s * self.y)

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def sup_norm(self) -> Fraction:
        return max(abs(self.x), abs(self.y))

    def as_tuple(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)


ZERO2 = Vec2(0, 0)


@dataclass(frozen=True)
class Vec3:
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", to_fraction(self.x))
        object.__setattr__(self, "y", to_fraction(self.y))
        object.__setattr__(self, "z", to_fraction(self.z))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __rmul__(self, scalar) -> "Vec3":
        s = to_fraction(scalar)
        return Vec3(s * self.x, s * self.y, s * self.z)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Mat2:
    """2x2 rational matrix with rows (a b) and (c d)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, to_fraction(getattr(self, name)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    def rows(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return ((self.a, self.b), (self.c, self.d))

    def describe(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def is_symmetric(self) -> bool:
        return self.b == self.c

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def mul_vec(self, v: Vec2) -> Vec2:
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def mul_mat(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)


def gram_eval(gram: Mat2, x: Vec2, y: Vec2) -> Fraction:
    """The bilinear form value x^T (gram) y, for any 2x2 matrix.

    Runs on integer numerators over the least common denominators of the
    matrix, x and y, and builds one `Fraction` for the value.
    """
    a, da = gram.a.as_integer_ratio()
    b, db = gram.b.as_integer_ratio()
    c, dc = gram.c.as_integer_ratio()
    d, dd = gram.d.as_integer_ratio()
    x0, dx0 = x.x.as_integer_ratio()
    x1, dx1 = x.y.as_integer_ratio()
    y0, dy0 = y.x.as_integer_ratio()
    y1, dy1 = y.y.as_integer_ratio()
    dm, dx, dy = math.lcm(da, db, dc, dd), math.lcm(dx0, dx1), math.lcm(dy0, dy1)
    a, b, c, d = a * (dm // da), b * (dm // db), c * (dm // dc), d * (dm // dd)
    x0, x1 = x0 * (dx // dx0), x1 * (dx // dx1)
    y0, y1 = y0 * (dy // dy0), y1 * (dy // dy1)
    num = x0 * (a * y0 + b * y1) + x1 * (c * y0 + d * y1)
    return Fraction(num, dm * dx * dy)


def is_positive_definite(gram: Mat2) -> bool:
    """Sylvester criterion for a symmetric 2x2 matrix, exact."""
    if not gram.is_symmetric():
        raise NonSymmetricError(f"matrix {gram.describe()} is not symmetric")
    return gram.a > 0 and gram.det() > 0


def is_unimodular(rows: Iterable[Sequence[int]]) -> bool:
    """True iff the m x 2 integer matrix has rank 2 and a torsion-free cokernel.

    Equivalently: the gcd of all 2x2 minors is 1.
    """
    mat = [tuple(int(e) for e in r) for r in rows]
    if any(len(r) != 2 for r in mat) or len(mat) < 2:
        raise ValueError("expected an m x 2 integer matrix with m >= 2")
    g = 0
    for (p, q), (r, s) in combinations(mat, 2):
        g = math.gcd(g, abs(p * s - q * r))
    return g == 1
