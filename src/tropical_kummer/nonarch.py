"""Tropical descent data and tropicalized truncated theta series.

Fourier exponents are stored in coordinates with respect to the dual basis
induced by the polarization (the image of the period basis), where the
second-order descent map is twice the identity.  Pairing an exponent m with
a point v is then ``m . (G v)``, kept exact.

Only valuations are represented: for the even, symmetric normalization the
coefficient valuations are ``Q(u', u')`` and the lifting constant
contributes ``Q(c, c)/4`` for the characteristic representative ``c``.
A series holds its valuations as integer numerators over the Gram's common
denominator.  `build_series` writes each of its 2N + 1 rows (one per first
exponent) in closed form from the integer Gram as ``(ex, lin, const)``, the
coefficients of the numerator ``h22 j^2 + lin j + const`` of the term with
second index j, so a build is O(N) and makes no term; its `support` is built
term by term only when read.  h22 > 0, so every row is convex and is
minimized in O(1).  A series built by hand from a support keeps its terms
and is scanned term by term.  Tropicalization reads ``G v`` from the
surface's integer Gram and builds a single `Fraction` for the result.
`safe_cutoff` is one `theta.certified_radius`, whatever the bound.
Characteristics use the same reduced-basis indexing as the direct theta
evaluation, so the tropicalized series and `theta_eval` agree pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptySupportError
from .exact import Mat2, Vec2, gram_eval
from .lattice import PrincipallyPolarizedSurface, numerators
from .theta import ThetaCharacteristic, certified_radius, char_vector


@dataclass(frozen=True)
class TropicalDescentDatum:
    """A pair (lambda, gamma) satisfying the descent cocycle identity.

    `lambda_matrix` holds the dual-basis coordinates of the images of the
    period basis; `pairing` is the symmetric bilinear form
    B(s, t) = <lambda(t), s> as a matrix in period coordinates.  The datum is
    even: gamma has no linear part.
    """

    lambda_matrix: tuple[tuple[int, int], tuple[int, int]]
    pairing: Mat2

    def gamma(self, up: Vec2) -> Fraction:
        return gram_eval(self.pairing, up, up) / 2

    def cocycle_defect(self, u1: Vec2, u2: Vec2) -> Fraction:
        """gamma(u1+u2) - gamma(u1) - gamma(u2) - <lambda(u2), u1>; zero always."""
        return (
            self.gamma(u1 + u2)
            - self.gamma(u1)
            - self.gamma(u2)
            - gram_eval(self.pairing, u1, u2)
        )


def descent_datum(surface: PrincipallyPolarizedSurface) -> TropicalDescentDatum:
    """The datum of the second-order pair (2Q, 0): gamma(u') = Q(u', u')."""
    g = surface.gram
    return TropicalDescentDatum(
        lambda_matrix=((2, 0), (0, 2)),
        pairing=Mat2(2 * g.a, 2 * g.b, 2 * g.c, 2 * g.d),
    )


class FormalThetaSeries:
    """Finite Fourier support with exact valuations, plus the lifting shift.

    A series built from an explicit `support` keeps its terms, which
    `tropicalize_series` scans.  `build_series` passes its rows
    ``(ex, lin, const)`` and no support; `support` is then the terms of its
    cutoff box, built on first read.
    """

    def __init__(
        self,
        surface: PrincipallyPolarizedSurface,
        support: tuple[tuple[tuple[int, int], Fraction], ...] | None,
        constant_shift: Fraction,
        char: ThetaCharacteristic,
        cutoff: int,
        *,
        rows: tuple[tuple[int, int, int], ...] | None = None,
    ):
        self.surface = surface
        self.constant_shift = constant_shift
        self.char = char
        self.cutoff = cutoff
        self._support = None if support is None else tuple(support)
        self._rows = rows  # see `build_series`; None for a hand-built series

    @property
    def support(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        if self._support is None:
            self._support = _box_terms(self.surface, self.char, self.cutoff)
        return self._support

    @property
    def n_terms(self) -> int:
        """The number of terms, read off the rows or the hand-built support."""
        if self._rows is None:
            return len(self._support)
        return len(self._rows) * (2 * self.cutoff + 1)


def build_series(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    cutoff: int,
) -> FormalThetaSeries:
    """Truncate the theta series of a characteristic to a cutoff box.

    Term for u' = (i, j): exponent c + 2u' (dual coordinates of the class
    representative plus twice the lattice point), valuation
    Q(u', u') + Q(c, u') over the Gram's common denominator.  Row i is
    written in closed form as (ex, lin, const) with ex = cx + 2i: its term j
    in [-cutoff, cutoff] has exponent (ex, cy + 2j) and valuation numerator
    h22 j^2 + lin j + const.  The build is O(cutoff) and makes no term.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    cx, cy = surface.char_vectors[char.j1 + 2 * char.j2]
    h11, h12, h22 = surface.int_gram
    rows = tuple(
        (cx + 2 * i, h12 * (2 * i + cx) + h22 * cy, h11 * i * (i + cx) + h12 * cy * i)
        for i in range(-cutoff, cutoff + 1)
    )
    return FormalThetaSeries(
        surface=surface,
        support=None,
        constant_shift=Fraction(
            h11 * cx * cx + 2 * h12 * cx * cy + h22 * cy * cy, 4 * surface.gram_den
        ),
        char=char,
        cutoff=cutoff,
        rows=rows,
    )


def _box_terms(
    surface: PrincipallyPolarizedSurface, char: ThetaCharacteristic, cutoff: int
) -> tuple[tuple[tuple[int, int], Fraction], ...]:
    """The terms of `build_series`, one `Fraction` each, term by term."""
    cx, cy = surface.char_vectors[char.j1 + 2 * char.j2]
    h11, h12, h22 = surface.int_gram
    terms = []
    for i in range(-cutoff, cutoff + 1):
        for j in range(-cutoff, cutoff + 1):
            num = (
                h11 * i * (i + cx)
                + h12 * (2 * i * j + cx * j + cy * i)
                + h22 * j * (j + cy)
            )
            terms.append(((cx + 2 * i, cy + 2 * j), Fraction(num, surface.gram_den)))
    return tuple(terms)


def tropicalize_series(series: FormalThetaSeries, v: Vec2) -> Fraction:
    """constant_shift + min over the support of (<exponent, v> + valuation).

    With G v = (gx, gy) / (gram_den * den), term j of a `build_series` row
    (ex, lin, const) is (A j^2 + B j + C) / (gram_den * den), A = den * h22 > 0,
    B = den * lin + 2 gy, C = den * const + ex gx + cy gy: minimized at the
    integer nearest the vertex, clamped to [-cutoff, cutoff].  A hand-built
    series is scanned on numerators over gram_den * den * lcm(its denominators).
    """
    surface = series.surface
    t0, t1, den = numerators(v)
    h11, h12, h22 = surface.int_gram
    gx, gy = h11 * t0 + h12 * t1, h12 * t0 + h22 * t1
    g_den = surface.gram_den * den
    if series._rows is None:
        terms = series.support
        if not terms:
            raise EmptySupportError("series has empty support")
        q = math.lcm(*(val.denominator for _, val in terms))
        low = min(
            q * (ex * gx + ey * gy) + g_den * (q // val.denominator) * val.numerator
            for (ex, ey), val in terms
        )
        return series.constant_shift + Fraction(low, g_den * q)
    n = series.cutoff
    cy = surface.char_vectors[series.char.j1 + 2 * series.char.j2][1]
    a = den * h22
    lows = []
    for ex, lin, const in series._rows:
        b = den * lin + 2 * gy
        j = min(max((a - b) // (2 * a), -n), n)
        lows.append((a * j + b) * j + den * const + ex * gx)
    return series.constant_shift + Fraction(min(lows) + cy * gy, g_den)


def safe_cutoff(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    region_bound: Fraction,
) -> int:
    """Smallest certified cutoff for all evaluation points ``|v|_inf <= bound``.

    The minimized quadratic at u' = 0 is at most
    M = (sum |G_ij|) * (bound + |c|_inf / 2)^2, while any u' outside the
    cutoff-R box keeps it above lam_low * (R + 1 - bound - |c|_inf / 2)^2
    with lam_low = `spectral_floor`; R is the smallest R >= 1 for which the
    latter exceeds the former: `certified_radius` with reach
    bound + |c|_inf / 2 and ceiling M.
    """
    bound = Fraction(region_bound)
    if bound < 0:
        raise ValueError("region_bound must be nonnegative")
    g = surface.gram
    c = char_vector(surface, char)
    reach = bound + c.sup_norm() / 2
    weight = abs(g.a) + abs(g.b) + abs(g.c) + abs(g.d)
    return certified_radius(surface, reach, weight * reach * reach)
