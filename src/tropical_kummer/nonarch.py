"""Tropical descent data and tropicalized truncated theta series.

Fourier exponents are stored in coordinates with respect to the dual basis
induced by the polarization (the image of the period basis), where the
second-order descent map is twice the identity.  Pairing an exponent m with
a point v is then ``m . (G v)``, kept exact.

Only valuations are represented: for the even, symmetric normalization the
coefficient valuations are ``Q(u', u')`` and the lifting constant
contributes ``Q(c, c)/4`` for the characteristic representative ``c``.
A series also holds its valuations as integer numerators over one common
denominator, so tropicalization scans plain ints and builds a single
`Fraction` for the result.
Characteristics use the same reduced-basis indexing as the direct theta
evaluation, so the tropicalized series and `theta_eval` agree pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmptySupportError
from .exact import Mat2, Vec2, gram_eval
from .lattice import PrincipallyPolarizedSurface
from .theta import ThetaCharacteristic, char_vector


@dataclass(frozen=True)
class TropicalDescentDatum:
    """A pair (lambda, gamma) satisfying the descent cocycle identity.

    `lambda_matrix` holds the dual-basis coordinates of the images of the
    period basis; `pairing` is the symmetric bilinear form
    B(s, t) = <lambda(t), s> as a matrix in period coordinates; `ell` is the
    linear-form part (zero in every supported evaluation path).
    """

    lambda_matrix: tuple[tuple[int, int], tuple[int, int]]
    pairing: Mat2
    ell: Vec2

    def gamma(self, up: Vec2) -> Fraction:
        return gram_eval(self.pairing, up, up) / 2 - (
            self.ell.x * up.x + self.ell.y * up.y
        )

    def cocycle_defect(self, u1: Vec2, u2: Vec2) -> Fraction:
        """gamma(u1+u2) - gamma(u1) - gamma(u2) - <lambda(u2), u1>; zero always."""
        return (
            self.gamma(u1 + u2)
            - self.gamma(u1)
            - self.gamma(u2)
            - gram_eval(self.pairing, u1, u2)
        )

    def is_even(self) -> bool:
        return self.ell == Vec2(0, 0)


def descent_datum(surface: PrincipallyPolarizedSurface) -> TropicalDescentDatum:
    """The datum of the second-order pair (2Q, 0): gamma(u') = Q(u', u')."""
    g = surface.gram
    return TropicalDescentDatum(
        lambda_matrix=((2, 0), (0, 2)),
        pairing=Mat2(2 * g.a, 2 * g.b, 2 * g.c, 2 * g.d),
        ell=Vec2(0, 0),
    )


@dataclass(frozen=True)
class FormalThetaSeries:
    """Finite Fourier support with exact valuations, plus the lifting shift."""

    surface: PrincipallyPolarizedSurface
    support: tuple[tuple[tuple[int, int], Fraction], ...]
    constant_shift: Fraction
    char: ThetaCharacteristic
    cutoff: int
    # The support on one denominator: (den, ((ex, ey, den * valuation), ...)).
    _table: tuple[int, tuple[tuple[int, int, int], ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        den = math.lcm(*(val.denominator for _, val in self.support))
        table = tuple(
            (ex, ey, val.numerator * (den // val.denominator))
            for (ex, ey), val in self.support
        )
        object.__setattr__(self, "_table", (den, table))


def build_series(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    cutoff: int,
) -> FormalThetaSeries:
    """Truncate the theta series of a characteristic to a cutoff box.

    Term for u' in the box: exponent c + 2u' (dual coordinates of the class
    representative plus twice the lattice point), valuation
    Q(u', u') + Q(c, u'), computed as an integer over the Gram's common
    denominator.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    c = char_vector(surface, char)
    cx, cy = int(c.x), int(c.y)
    h11, h12, h22 = surface.int_gram
    gram_den = surface.gram_den
    terms = []
    for i in range(-cutoff, cutoff + 1):
        for j in range(-cutoff, cutoff + 1):
            num = (
                h11 * i * (i + cx)
                + h12 * (2 * i * j + cx * j + cy * i)
                + h22 * j * (j + cy)
            )
            terms.append(((cx + 2 * i, cy + 2 * j), Fraction(num, gram_den)))
    return FormalThetaSeries(
        surface=surface,
        support=tuple(terms),
        constant_shift=surface.q(c, c) / 4,
        char=char,
        cutoff=cutoff,
    )


def tropicalize_series(series: FormalThetaSeries, v: Vec2) -> Fraction:
    """constant_shift + min over the support of (<exponent, v> + valuation)."""
    if not series.support:
        raise EmptySupportError("series has empty support")
    gv = series.surface.gram.mul_vec(v)
    val_den, table = series._table
    # Clear denominators once so the minimum runs on plain integers.
    den = math.lcm(gv.x.denominator, gv.y.denominator, val_den)
    gx, gy, k = int(gv.x * den), int(gv.y * den), den // val_den
    best = min(ex * gx + ey * gy + k * val for ex, ey, val in table)
    return series.constant_shift + Fraction(best, den)


def safe_cutoff(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    region_bound: Fraction,
) -> int:
    """Smallest certified cutoff for all evaluation points ``|v|_inf <= bound``.

    The minimized quadratic at u' = 0 is at most
    M = (sum |G_ij|) * (bound + |c|_inf / 2)^2, while any u' outside the
    cutoff-R box keeps it above lam_low * (R + 1 - bound - |c|_inf / 2)^2
    with lam_low = det(G) / (G11 + G22); R is grown until the latter
    exceeds the former.
    """
    bound = Fraction(region_bound)
    if bound < 0:
        raise ValueError("region_bound must be nonnegative")
    g = surface.gram
    c = char_vector(surface, char)
    reach = bound + c.sup_norm() / 2
    weight = abs(g.a) + abs(g.b) + abs(g.c) + abs(g.d)
    upper = weight * reach * reach
    lam_low = g.det() / (g.a + g.d)
    radius = 1
    while True:
        margin = radius + 1 - reach
        if margin > 0 and lam_low * margin * margin > upper:
            return radius
        radius += 1
