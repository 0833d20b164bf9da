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
Q(v + c/2 + a) - Q(v): tropicalization is the value of `theta._box_minimum`,
the row walk that certifies its own minimum for `theta_eval_bruteforce`.  It
prunes its rows, so its work is O(N) only where the box binds, and its memory
O(1).  `support` lists the terms one by one, only when read.  `safe_cutoff`
is the one box radius rule, a closed form on the integer Gram; `verify`'s
brute-force oracle takes its boxes from it too.
Characteristics use the same reduced-basis indexing as the direct theta
evaluation, so the tropicalized series and `theta_eval` agree pointwise.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact import Mat2, Value, Vec2, gram_eval
from .lattice import PrincipallyPolarizedSurface, _hq
from .theta import ThetaCharacteristic, _box_minimum


class TropicalDescentDatum(Value):
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
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        super().__init__(surface, char, cutoff)

    @functools.cached_property
    def constant_shift(self) -> Fraction:
        """The lifting constant Q(c, c) / 4 of the characteristic vector c."""
        c = self.surface.char_vectors[self.char.j1 + 2 * self.char.j2]
        return Fraction(_hq(self.surface.int_gram, c, c), 4 * self.surface.gram_den)

    @property
    def n_terms(self) -> int:
        return (2 * self.cutoff + 1) ** 2

    @functools.cached_property
    def support(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """Every (exponent, valuation) term of the box, one `Fraction` each."""
        surface, n = self.surface, self.cutoff
        cx, cy = surface.char_vectors[self.char.j1 + 2 * self.char.j2]
        terms = []
        for i in range(-n, n + 1):
            for j in range(-n, n + 1):
                # Q(u', u') + Q(c, u') = Q(u' + c, u') for u' = (i, j).
                num = _hq(surface.int_gram, (i + cx, j + cy), (i, j))
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


def tropicalize_series(series: FormalThetaSeries, v: Vec2) -> Fraction:
    """constant_shift + min over the support of (<exponent, v> + valuation).

    <c + 2a, G v> + Q(a) + Q(c, a) + Q(c)/4 = Q(v + c/2 + a) - Q(v), so this
    is the value of the `theta._box_minimum` walk over the cutoff box.
    """
    return _box_minimum(series.surface, series.char, v, series.cutoff)[0]


def safe_cutoff(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    region_bound: Fraction,
) -> int:
    """Smallest certified cutoff for all evaluation points ``|v|_inf <= bound``.

    The shift v + c/2 has |.|_inf <= reach = bound + |c|_inf / 2, so the
    minimized quadratic at u' = 0 is at most M = (sum |G_ij|) reach^2, and
    any u' outside the cutoff-R box keeps it above lam_low (R + 1 - reach)^2,
    lam_low = det(G) / (G11 + G22).  R is the smallest R >= 1 with
    R + 1 - reach > T = sqrt(M / lam_low): floor(T + reach), or 1 if that is
    smaller, which is isqrt(floor(T^2)) + floor(reach) or one more, as
    floor(T + reach) <= floor(T) + floor(reach) + 1.  With H = gram_den G,
    bound = b/q and reach = r/p (r = 2b + q |c|_inf, p = 2q), T^2 is
    k / (p^2 det(H)), k = (h11 + 2|h12| + h22)(h11 + h22) r^2, and R passes
    the exact test if p (R + 1) - r > 0 and det(H) (p (R + 1) - r)^2 > k.
    """
    b, q = Fraction(region_bound).as_integer_ratio()
    if b < 0:
        raise ValueError("region_bound must be nonnegative")
    h11, h12, h22 = surface.int_gram
    cx, cy = surface.char_vectors[char.j1 + 2 * char.j2]
    r, p = 2 * b + q * max(abs(cx), abs(cy)), 2 * q
    det = h11 * h22 - h12 * h12
    k = (h11 + 2 * abs(h12) + h22) * (h11 + h22) * r * r
    radius = max(1, math.isqrt(k // (p * p * det)) + r // p)
    margin = p * (radius + 1) - r
    return radius if margin > 0 and det * margin * margin > k else radius + 1
