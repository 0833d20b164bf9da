"""Tropical descent data and tropicalized truncated theta series.

Fourier exponents are stored in coordinates with respect to the dual basis
induced by the polarization (the image of the period basis), where the
second-order descent map is twice the identity.  Pairing an exponent m with
a point v is then ``m . (G v)``, kept exact.

Only valuations are represented: for the even, symmetric normalization the
coefficient valuations are ``Q(u', u')`` and the lifting constant
contributes ``Q(c, c)/4`` for the characteristic representative ``c``.
A series is its surface, characteristic and cutoff N, nothing more: its
terms are closed forms in the surface's integer Gram, so `build_series` is
O(1).  The term at u' = a in the box |a_i| <= N evaluates at v to
<c + 2a, G v> + Q(a, a) + Q(c, a), and with the constant Q(c, c)/4 that is
Q(v + c/2 + a) - Q(v): tropicalization is the value of `theta.box_step`,
the row walk that says whether its own minimum is certified.  It prunes its
rows, so its work is O(N) only where the box binds, and its memory
O(1).  `tropicalize_step` returns that value's numerator over
gram_den (2 den)^2 at v = t/den, as `theta.theta_step` does, and
`tropicalize_series` builds one `Fraction` from it.  `support` lists the
terms one by one, only when read.  A series' certified cutoff is
`theta.safe_cutoff`, which this module re-exports for `cli` and `verify`.
Characteristics use the same reduced-basis indexing as the direct theta
evaluation, so the tropicalized series and `theta_eval` agree pointwise.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exact import Value, Vec2, form, integer_gram, numerators
from .lattice import PrincipallyPolarizedSurface, char_norms
from .theta import ThetaCharacteristic, box_step, safe_cutoff  # noqa: F401


class TropicalDescentDatum(Value):
    """A pair (lambda, gamma) satisfying the descent cocycle identity.

    `lambda_matrix` holds the dual-basis coordinates of the images of the
    period basis.  `pairing` is the symmetric bilinear form
    B(s, t) = <lambda(t), s> = 2 Q(s, t) in period coordinates, stored as the
    integer Gram den B = 2H of `exact.integer_gram`'s (H, den).  The datum is
    even: gamma has no linear part.  Both maps take integer pairs and return
    numerators over den.
    """

    lambda_matrix: tuple[tuple[int, int], tuple[int, int]]
    pairing: tuple[int, int, int]
    den: int

    def gamma(self, up: tuple[int, int]) -> int:
        return form(self.pairing, up, up) // 2  # exact: 2H has even entries

    def cocycle_defect(self, u1: tuple[int, int], u2: tuple[int, int]) -> int:
        """gamma(u1+u2) - gamma(u1) - gamma(u2) - <lambda(u2), u1>; zero always."""
        total = (u1[0] + u2[0], u1[1] + u2[1])
        gammas = self.gamma(total) - self.gamma(u1) - self.gamma(u2)
        return gammas - form(self.pairing, u1, u2)


def descent_datum(surface: PrincipallyPolarizedSurface) -> TropicalDescentDatum:
    """The datum of the second-order pair (2Q, 0): gamma(u') = Q(u', u').

    Its pairing 2H over den is read from the `Fraction` Gram, not from the
    surface's stored integer Gram, so the two can be checked against each other.
    """
    (h11, h12, h22), den = integer_gram(surface.gram)
    return TropicalDescentDatum(((2, 0), (0, 2)), (2 * h11, 2 * h12, 2 * h22), den)


class FormalThetaSeries(Value):
    """The theta series of a characteristic, truncated to a cutoff box.

    A series is exactly its inputs: its (2 cutoff + 1)^2 terms are closed
    forms in the surface's integer Gram, so it stores none of them.  It is
    frozen, so `constant_shift` and `support`, each computed once on first
    read, always match its inputs.
    """

    __slots__ = ("surface", "char", "cutoff", "__dict__")  # __dict__: the cached reads
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself
    surface: PrincipallyPolarizedSurface
    char: ThetaCharacteristic
    cutoff: int

    def __init__(self, surface, char, cutoff: int):
        if not isinstance(cutoff, int) or isinstance(cutoff, bool):
            raise ValueError(f"cutoff must be an int, got {cutoff!r}")
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        super().__init__(surface, char, cutoff)

    @functools.cached_property
    def constant_shift(self) -> Fraction:
        """The lifting constant Q(c, c) / 4 of c = 0, u, v or -w, by conorms."""
        h_c = char_norms(self.surface.conorms)[self.char.j1 + 2 * self.char.j2]
        return Fraction(h_c, 4 * self.surface.gram_den)

    @property
    def n_terms(self) -> int:
        return (2 * self.cutoff + 1) ** 2

    @functools.cached_property
    def support(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """Every (exponent, valuation) term of the box, one `Fraction` each."""
        surface, n = self.surface, self.cutoff
        cx, cy = self.char.vector(surface)
        terms = []
        for i in range(-n, n + 1):
            for j in range(-n, n + 1):
                # Q(u', u') + Q(c, u') = Q(u' + c, u') for u' = (i, j).
                num = form(surface.int_gram, (i + cx, j + cy), (i, j))
                val = Fraction(num, surface.gram_den)
                terms.append(((cx + 2 * i, cy + 2 * j), val))
        return tuple(terms)


def build_series(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    cutoff: int,
) -> FormalThetaSeries:
    """Truncate the theta series of a characteristic to a cutoff box.

    Term for u' = (i, j), |i|, |j| <= cutoff: exponent c + 2u' (dual
    coordinates of the class representative plus twice the lattice point),
    valuation Q(u', u') + Q(c, u').  The build is O(1): the terms are read
    off the integer Gram when the series is evaluated.
    """
    return FormalThetaSeries(surface, char, cutoff)


def tropicalize_step(series: FormalThetaSeries, t0: int, t1: int, den: int) -> int:
    """The tropicalization at v = t/den times gram_den (2 den)^2, an integer.

    <c + 2a, G v> + Q(a) + Q(c, a) + Q(c)/4 = Q(v + c/2 + a) - Q(v), so this
    is the numerator of the `theta.box_step` walk over the cutoff box; like
    `theta.theta_step`'s, it works over any common denominator.
    """
    return box_step(series.surface, series.char, t0, t1, den, series.cutoff)[0]


def tropicalize_series(series: FormalThetaSeries, v: Vec2) -> Fraction:
    """constant_shift + min over the support of (<exponent, v> + valuation)."""
    t0, t1, den = numerators(v)
    num = tropicalize_step(series, t0, t1, den)
    return Fraction(num, 4 * series.surface.gram_den * den * den)
