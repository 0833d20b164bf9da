"""Exact rational vectors, 2x2 matrices, and the integer layer beneath them.

Every quantity in this package is a ``fractions.Fraction``; floats appear
only in the decimal formatting used for mesh export.  Rationals serialize
as ``"p/q"`` (or ``"n"`` for integers), exactly ``str(Fraction)``, by `as_strings`.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations

from .errors import NonSymmetricError

RationalLike = Fraction | int | str


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, a Fraction, or a "p/q" string to an exact Fraction."""
    if type(value) is int:  # first: isinstance(int, Fraction) asks the ABC machinery
        return Fraction(value)
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


_set = object.__setattr__  # sets a field past a frozen value type's __setattr__


def fraction_decimal(q: Fraction, digits: int) -> str:
    """Round q to `digits` fractional digits, exactly (no float round-trip)."""
    if type(digits) is not int:
        raise ValueError(f"digits must be an int, got {digits!r}")
    if digits < 1:
        raise ValueError("digits must be positive")
    scaled = round(q * 10**digits)  # exact round-half-even on Fractions
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


class _ValueType(type):
    """Builds a value type from its class body; see `Value`."""

    def __new__(mcls, name, bases, ns, frozen: bool = True):
        ns["_fields"] = fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {n: ns.pop(n) for n in fields if n in ns}
        ns.setdefault("__slots__", fields)
        if fields:  # every value type but the base
            shown = ns.setdefault("_shown", fields)
            get = operator.attrgetter(*shown)
            ns["_key"] = staticmethod(get if len(shown) > 1 else lambda o: (get(o),))
        if not frozen:
            ns.update(__setattr__=_set, __delattr__=object.__delattr__, __hash__=None)
        return super().__new__(mcls, name, bases, ns)


class Value(metaclass=_ValueType):
    """Base of the value types: their annotated fields are their ``__slots__``.

    A field's value in the class body is its default (``list`` or ``dict``
    there gives a fresh one).  The ``_shown`` fields (default: all) are
    compared, hashed and shown by ``repr``.  Instances are frozen unless the
    class is declared ``frozen=False`` (then unhashable).  The standard
    library's decorator would generate these methods at 1 ms a class per import.
    """

    def __init__(self, *args, **kwargs):
        for name, value in zip(self._fields, self._bind(args, kwargs)):
            _set(self, name, value)

    def _bind(self, args: tuple, kwargs: dict):
        """The constructor's arguments as field values, in field order."""
        names = self._fields
        if kwargs or len(args) != len(names):  # bind keywords, then defaults
            values = dict(zip(names, args), **kwargs)
            if len(values) < len(args) + len(kwargs) or not values.keys() <= set(names):
                raise TypeError(f"{type(self).__qualname__}() takes {', '.join(names)}")
            args = [values[n] if n in values else self._default(n) for n in names]
        return args

    @classmethod
    def _of(cls, *values):
        """The private constructor: the fields as given, with no coercion."""
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            _set(self, name, value)
        return self

    def _default(self, name: str):
        if name not in self._defaults:
            raise TypeError(f"{type(self).__qualname__}() needs {name!r}")
        default = self._defaults[name]
        return default() if default in (list, dict) else default

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._key(self) == other._key(other) if same else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class _Rational(Value):
    """Base of the rational value types: the public constructor binds its
    arguments as `Value`'s does, then coerces each field with `to_fraction`."""

    def __init__(self, *args, **kwargs):
        for name, value in zip(self._fields, self._bind(args, kwargs)):
            _set(self, name, to_fraction(value))


class _Vector(_Rational):
    """Base of `Vec2` and `Vec3`: componentwise arithmetic over the fields.

    Each vector unrolls its own `_of`: vectors are built on every request.
    """

    def as_tuple(self) -> tuple[Fraction, ...]:
        return self._key(self)  # a vector shows all its fields, in order

    def __add__(self, other):
        return self._of(*map(operator.add, self.as_tuple(), other.as_tuple()))

    def __sub__(self, other):
        return self._of(*map(operator.sub, self.as_tuple(), other.as_tuple()))

    def __neg__(self):
        return self._of(*map(operator.neg, self.as_tuple()))

    def __rmul__(self, scalar):
        s = to_fraction(scalar)
        return self._of(*[s * c for c in self.as_tuple()])


class Vec2(_Vector):
    x: Fraction
    y: Fraction

    @classmethod
    def _of(cls, x, y):  # unrolled `Value._of`
        self = object.__new__(cls)
        _set(self, "x", x)
        _set(self, "y", y)
        return self

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def sup_norm(self) -> Fraction:
        return max(abs(self.x), abs(self.y))


ZERO2 = Vec2(0, 0)


class Vec3(_Vector):
    x: Fraction
    y: Fraction
    z: Fraction

    @classmethod
    def _of(cls, x, y, z):  # unrolled, as `Vec2._of`
        self = object.__new__(cls)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)
        return self


class Mat2(_Rational):
    """2x2 rational matrix with rows (a b) and (c d)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    def rows(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return ((self.a, self.b), (self.c, self.d))

    def describe(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def mul_vec(self, v: Vec2) -> Vec2:
        return Vec2._of(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def mul_mat(self, other: "Mat2") -> "Mat2":
        return Mat2._of(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def transpose(self) -> "Mat2":
        return Mat2._of(self.a, self.c, self.b, self.d)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("matrix is singular")
        return Mat2._of(self.d / det, -self.b / det, -self.c / det, self.a / det)


def numerators(x: Vec2) -> tuple[int, int, int]:
    """(t0, t1, den) with x = (t0, t1) / den over the least common denominator."""
    (a, b), (c, d) = x.x.as_integer_ratio(), x.y.as_integer_ratio()
    den = math.lcm(b, d)
    return a * (den // b), c * (den // d), den


def point(t0: int, t1: int, den: int) -> Vec2:
    """The point (t0, t1) / den: `numerators` read back into a `Vec2`."""
    return Vec2._of(Fraction(t0, den), Fraction(t1, den))


def as_strings(v: Vec2 | Vec3) -> list[str]:
    """A vector's coordinates as exact strings, ``"p/q"`` or ``"n"``."""
    return [str(c) for c in v.as_tuple()]


def integer_gram(
    gram: Mat2 | Sequence[Sequence[RationalLike]],
) -> tuple[tuple[int, int, int], int]:
    """(H, den): H = den * G as (h11, h12, h22), den the least common denominator.

    G is a `Mat2` or 2x2 rows.  Its entries are read in the order a, b, c, d,
    each as a lowest-terms ratio: an int as itself over 1, anything else
    through `to_fraction`, which raises on what `Mat2` refuses.  So rows
    build no `Fraction` from int entries, and raise as `Mat2.from_rows` does.
    """
    (a, b), (c, d) = gram.rows() if isinstance(gram, Mat2) else gram
    entries = a, b, c, d
    (a, da), (b, db), (c, dc), (d, dd) = [
        (e, 1) if type(e) is int else to_fraction(e).as_integer_ratio()
        for e in entries
    ]
    if (c, dc) != (b, db):  # ratios in lowest terms are equal only if equal
        raise NonSymmetricError(f"matrix {Mat2(*entries).describe()} is not symmetric")
    den = math.lcm(da, db, dd)
    return (a * (den // da), b * (den // db), d * (den // dd)), den


def form(h: tuple[int, int, int], s: tuple[int, int], t: tuple[int, int]) -> int:
    """s^T H t for the integer Gram H = (h11, h12, h22)."""
    return h[0] * s[0] * t[0] + h[1] * (s[0] * t[1] + s[1] * t[0]) + h[2] * s[1] * t[1]


def mul_vec(h: tuple[int, int, int], r: tuple[int, int]) -> tuple[int, int]:
    """H r for the integer Gram H = (h11, h12, h22): `Mat2.mul_vec` on integers."""
    return h[0] * r[0] + h[1] * r[1], h[1] * r[0] + h[2] * r[1]


def lex_positive(vec: tuple[int, ...]) -> tuple[int, ...]:
    """Whichever of vec, -vec has a positive first nonzero entry (vec if zero)."""
    for c in vec:  # a plain loop: this runs in every `make_surface`
        if c:
            return vec if c > 0 else tuple([-x for x in vec])
    return vec


def mean(ts: Sequence[tuple[int, int, int]]) -> tuple[int, int, int]:
    """The mean of `numerators` triples, over their lcm, in lowest terms as
    `numerators` writes it: equal points give equal triples."""
    den = math.lcm(*(d for _, _, d in ts))
    s0 = sum(t0 * (den // d) for t0, _, d in ts)
    s1 = sum(t1 * (den // d) for _, t1, d in ts)
    den *= len(ts)
    g = math.gcd(s0, s1, den)
    return s0 // g, s1 // g, den // g


def is_positive_form(h: tuple[int, int, int]) -> bool:
    """Sylvester's criterion for the integer form (h11, h12, h22)."""
    return h[0] > 0 and h[0] * h[2] - h[1] * h[1] > 0


def is_unimodular(rows: Iterable[Sequence[int]]) -> bool:
    """True iff the m x 2 integer matrix has rank 2 and a torsion-free cokernel.

    Equivalently: the gcd of all 2x2 minors is 1.  An entry that is neither an
    int nor a `Fraction` with denominator 1 (a bool too) raises `ValueError`.
    """
    mat = [tuple(r) for r in rows]
    if len(mat) < 2 or any(len(r) != 2 for r in mat) or not all(
        type(e) in (int, Fraction) and e.denominator == 1 for r in mat for e in r
    ):
        raise ValueError("expected an m x 2 integer matrix with m >= 2")
    g = 0
    for (p, q), (r, s) in combinations(mat, 2):
        g = math.gcd(g, int(p * s - q * r))
    return g == 1
