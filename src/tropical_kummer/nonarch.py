"""Tropical descent data and tropicalized truncated theta series.

Fourier exponents are stored in coordinates with respect to the dual basis
induced by the polarization (the image of the period basis), where the
second-order descent map is twice the identity.  Pairing an exponent m with
a point v is then ``m . (G v)``, kept exact.

Only valuations are represented: for the even, symmetric normalization the
coefficient valuations are ``Q(u', u')`` and the lifting constant
contributes ``Q(c, c)/4`` for the characteristic representative ``c``.
A series holds its valuations as integer numerators over one common
denominator.  `build_series` writes each of its 2N + 1 rows (one per first
exponent) in closed form from the integer Gram, as an integer quadratic in
the term's index along the row, so a build is O(N) and makes no term; its
`support` is built term by term only when read.  The quadratic's leading
coefficient is twice a diagonal Gram entry, so every row is convex and is
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
    `tropicalize_series` scans.  `build_series` passes its rows in closed
    form and no support; `support` is then the terms of its cutoff box,
    built on first read.
    """

    def __init__(
        self,
        surface: PrincipallyPolarizedSurface,
        support: tuple[tuple[tuple[int, int], Fraction], ...] | None,
        constant_shift: Fraction,
        char: ThetaCharacteristic,
        cutoff: int,
        *,
        rows: tuple[int, tuple, tuple, tuple] | None = None,
    ):
        self.surface = surface
        self.constant_shift = constant_shift
        self.char = char
        self.cutoff = cutoff
        self._support = None if support is None else tuple(support)
        if rows is None:  # built by hand: no rows, every term scanned
            ratios = [val.as_integer_ratio() for _, val in self._support]
            den = math.lcm(*(q for _, q in ratios))
            scanned = tuple(
                (ex, ey, p * (den // q))
                for ((ex, ey), _), (p, q) in zip(self._support, ratios)
            )
            rows = (den, (0, 0, 0), (), scanned)
        # The numerators over one denominator `den`: (den, (e0, n, a), rows,
        # scanned terms (ex, ey, num)); see `build_series` for the rows.
        self._rows = rows

    @property
    def support(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        if self._support is None:
            self._support = _box_terms(self.surface, self.char, self.cutoff)
        return self._support

    @property
    def n_terms(self) -> int:
        """The number of terms, read off the rows."""
        _, (_, n, _), rows, scanned = self._rows
        return n * len(rows) + len(scanned)


def build_series(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    cutoff: int,
) -> FormalThetaSeries:
    """Truncate the theta series of a characteristic to a cutoff box.

    Term for u' = (i, j) in the box: exponent c + 2u' (dual coordinates of
    the class representative plus twice the lattice point), valuation
    Q(u', u') + Q(c, u') over the Gram's common denominator.  Row i is
    written in closed form as (ex, b, c): its k-th term, k = j + cutoff, has
    exponent (ex, e0 + 2k) and twice its numerator is a k^2 + b k + c, where
    the row length n, e0 and a = 2 * h22 are shared by every row.  The build
    is O(cutoff) and makes no term.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    cx, cy = surface.char_vectors[char.j1 + 2 * char.j2]
    h11, h12, h22 = surface.int_gram
    rows = []
    for i in range(-cutoff, cutoff + 1):
        # The numerator is h22 j^2 + lin j + const, with j = k - cutoff.
        lin = h12 * (2 * i + cx) + h22 * cy
        const = h11 * i * (i + cx) + h12 * cy * i
        b = 2 * (lin - 2 * h22 * cutoff)
        c = 2 * ((h22 * cutoff - lin) * cutoff + const)
        rows.append((cx + 2 * i, b, c))
    return FormalThetaSeries(
        surface=surface,
        support=None,
        constant_shift=Fraction(
            h11 * cx * cx + 2 * h12 * cx * cy + h22 * cy * cy, 4 * surface.gram_den
        ),
        char=char,
        cutoff=cutoff,
        rows=(
            surface.gram_den,
            (cy - 2 * cutoff, 2 * cutoff + 1, 2 * h22),
            tuple(rows),
            (),
        ),
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

    Works on twice the terms' integer numerators: a row of `build_series` is
    a convex quadratic in the term's index along the row, minimized in O(1)
    at the index nearest its vertex, clamped to the row; scanned terms are
    evaluated one by one.
    """
    val_den, (e0, n, a), rows, scanned = series._rows
    if not rows and not scanned:
        raise EmptySupportError("series has empty support")
    t0, t1, vden = numerators(v)
    h11, h12, h22 = series.surface.int_gram
    g_den = series.surface.gram_den * vden  # G v = H t / g_den
    den = math.lcm(g_den, val_den)
    m, k = den // g_den, den // val_den
    gx, gy = (h11 * t0 + h12 * t1) * m, (h12 * t0 + h22 * t1) * m
    lows = [2 * (ex * gx + ey * gy + k * num) for ex, ey, num in scanned]
    qa = k * a
    for ex, b, c in rows:
        # Twice the term at index i is (qa i + qb) i + qc, with qa > 0.
        qb = 4 * gy + k * b
        i = min(max((qa - qb) // (2 * qa), 0), n - 1)
        lows.append((qa * i + qb) * i + 2 * (ex * gx + e0 * gy) + k * c)
    return series.constant_shift + Fraction(min(lows), 2 * den)


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
