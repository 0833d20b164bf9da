"""Exact evaluation of the four tropical theta functions of second order.

A characteristic (j1, j2) is indexed against the reduced basis (u, v):
the function value at x is

    min over integer a of  Q(a + s, a + s) - Q(x, x),
    with the shift  s = x + (j1*u + j2*v)/2.

The minimum is found by the closest-vector descent on integer numerators:
for x = t/den, s is 2*t + den*c over 2*den, and one `Fraction` is built for
the value.  A brute-force enumeration oracle with a global-minimum
certificate, sharing no code with the descent, is provided alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ProductTypeError, RadiusTooSmallError
from .exact import Vec2
from .lattice import (
    HALF,
    PrincipallyPolarizedSurface,
    SurfaceClass,
    _hq,
    classify,
    descend,
    lagrange_reduce,
    numerators,
)


@dataclass(frozen=True)
class ThetaCharacteristic:
    j1: int
    j2: int

    def __post_init__(self):
        if self.j1 not in (0, 1) or self.j2 not in (0, 1):
            raise ValueError("characteristic indices must be 0 or 1")

    @classmethod
    def parse(cls, text: str) -> "ThetaCharacteristic":
        if len(text) != 2 or any(ch not in "01" for ch in text):
            raise ValueError(f"characteristic must be two bits, got {text!r}")
        return cls(int(text[0]), int(text[1]))

    def __str__(self) -> str:
        return f"{self.j1}{self.j2}"


# Fixed numbering b0..b3 of the four second-order characteristics.
CHARACTERISTICS = (
    ThetaCharacteristic(0, 0),
    ThetaCharacteristic(1, 0),
    ThetaCharacteristic(0, 1),
    ThetaCharacteristic(1, 1),
)


@dataclass(frozen=True)
class ThetaValue:
    value: Fraction
    minimizer: Vec2  # a lattice point attaining the minimum


def char_vector(
    surface: PrincipallyPolarizedSurface, char: ThetaCharacteristic
) -> Vec2:
    """The integer vector j1*u + j2*v in the reduced basis."""
    return Vec2(*surface.char_vectors[char.j1 + 2 * char.j2])


def theta_eval(
    surface: PrincipallyPolarizedSurface, char: ThetaCharacteristic, x: Vec2
) -> ThetaValue:
    t0, t1, den = numerators(x)
    cx, cy = surface.char_vectors[char.j1 + 2 * char.j2]
    s0, s1 = 2 * t0 + den * cx, 2 * t1 + den * cy
    n = descend(surface, s0, s1, 2 * den)
    h, t = surface.int_gram, (t0, t1)
    value = Fraction(_hq(h, n, n) - 4 * _hq(h, t, t), surface.gram_den * 4 * den * den)
    # n - s is 2*den times the lattice point that attains the minimum.
    minimizer = Vec2((n[0] - s0) // (2 * den), (n[1] - s1) // (2 * den))
    return ThetaValue(value=value, minimizer=minimizer)


def spectral_floor(surface: PrincipallyPolarizedSurface) -> Fraction:
    """lam_low = det(G) / (G11 + G22), so that Q(y, y) >= lam_low * ||y||_inf^2.

    The box certificate of `theta_eval_bruteforce` and `certified_radius`.
    """
    h11, h12, h22 = surface.int_gram
    return Fraction(h11 * h22 - h12 * h12, surface.gram_den * (h11 + h22))


def certified_radius(
    surface: PrincipallyPolarizedSurface, reach: Fraction, ceiling: Fraction
) -> int:
    """Smallest R >= 1 with lam_low * (R + 1 - reach)^2 > ceiling, R + 1 > reach.

    For a shift s with |s|_inf <= reach, every a outside the box |a_i| <= R
    has |a + s|_inf >= R + 1 - reach, so Q(a + s, a + s) exceeds `ceiling`
    (lam_low = `spectral_floor`).  For ceiling >= 0 the condition is
    R + 1 - reach > T with T = sqrt(ceiling / lam_low), so the smallest R is
    floor(T + reach), or 1 if that is smaller: q + floor(reach) or one more,
    where q = isqrt(floor(ceiling / lam_low)) = floor(T).  The exact test
    picks which.
    """
    lam_low = spectral_floor(surface)
    ratio = ceiling / lam_low
    radius = max(1, math.isqrt(ratio.numerator // ratio.denominator) + math.floor(reach))
    margin = radius + 1 - reach
    if margin > 0 and lam_low * margin * margin > ceiling:
        return radius
    return radius + 1


def theta_eval_bruteforce(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    x: Vec2,
    radius: int,
) -> ThetaValue:
    """Enumerate the box |a_i| <= radius and certify the minimum is global.

    The certificate uses the exact spectral lower bound of `spectral_floor`:
    every lattice point outside the box must exceed the box minimum, else
    RadiusTooSmallError.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    s = x + HALF * char_vector(surface, char)
    too_small = RadiusTooSmallError(
        f"radius {radius} cannot certify the minimum for shift {s.as_tuple()}"
    )
    margin = radius + 1 - s.sup_norm()
    if margin <= 0:  # the certificate fails whatever the box minimum
        raise too_small
    h11, h12, h22 = surface.int_gram
    t0, t1, den = numerators(s)

    best = None
    best_a = (0, 0)
    for a1 in range(-radius, radius + 1):
        y0 = den * a1 + t0
        for a2 in range(-radius, radius + 1):
            y1 = den * a2 + t1
            num = h11 * y0 * y0 + 2 * h12 * y0 * y1 + h22 * y1 * y1
            if best is None or num < best:
                best = num
                best_a = (a1, a2)

    box_min = Fraction(best, surface.gram_den * den * den)

    if spectral_floor(surface) * margin * margin <= box_min:
        raise too_small
    return ThetaValue(
        value=box_min - surface.norm(x), minimizer=Vec2(best_a[0], best_a[1])
    )


def theta_constants(
    surface: PrincipallyPolarizedSurface,
) -> tuple[Fraction, Fraction, Fraction]:
    """(theta_10, theta_01, theta_11) = (Q(u,u), Q(v,v), Q(w,w)) / 4."""
    if classify(surface) is not SurfaceClass.IRREDUCIBLE:
        raise ProductTypeError("theta constants are defined for hexagonal cells only")
    rb = lagrange_reduce(surface)
    quu, qvv, _ = rb.norms
    qww = surface.norm(rb.w)
    return (quu / 4, qvv / 4, qww / 4)
