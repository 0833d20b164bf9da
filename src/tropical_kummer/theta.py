"""Exact evaluation of the four tropical theta functions of second order.

A characteristic (j1, j2) is indexed against the reduced basis (u, v):
the function value at x is

    min over integer a of  Q(a + s, a + s) - Q(x, x),
    with the shift  s = x + (j1*u + j2*v)/2.

The minimum is found by the closest-vector descent on integer numerators:
for x = t/den, s is 2*t + den*c over 2*den, and one `Fraction` is built for
the value.  A brute-force oracle with a global-minimum certificate, sharing
no code with the descent, is provided alongside.  Its box walk also
tropicalizes the truncated series: <c + 2a, G x> + Q(a) + Q(c, a) + Q(c)/4
is Q(x + c/2 + a) - Q(x), so both take the same minimum over the same box.
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
    picks which, on integers: lam_low = det / scale, reach = r/p, ceiling = c/q.
    """
    h11, h12, h22 = surface.int_gram
    det, scale = h11 * h22 - h12 * h12, surface.gram_den * (h11 + h22)
    r, p = reach.as_integer_ratio()
    c, q = ceiling.as_integer_ratio()
    radius = max(1, math.isqrt(c * scale // (q * det)) + r // p)
    margin = p * (radius + 1) - r
    if margin > 0 and det * q * margin * margin > c * scale * p * p:
        return radius
    return radius + 1


def _box_minimum(surface, char, x, radius) -> tuple[Fraction, tuple[int, int]]:
    """min of Q(a + s) - Q(x) over |a_i| <= radius, and its first minimizer.

    Rows a1 are walked on integer numerators, s = (s0, s1) / d with d = 2 den,
    and y = d (a + s).  In a row, the numerator of Q(a + s) is a convex
    quadratic A j^2 + B j + C in a2 = j, A = h22 d^2, B = 2 d (h12 y0 + h22 s1):
    -((A + B) // (2A)), its vertex rounded half down and clamped to the box,
    is the row's first minimizer.  A row wins only when strictly lower, so
    ties keep the first (a1, a2) in lexicographic order, as a double loop
    does: the 2-D case of Fincke-Pohst, O(radius) time and O(1) memory.
    """
    t0, t1, den = numerators(x)
    cx, cy = surface.char_vectors[char.j1 + 2 * char.j2]
    s0, s1, d = 2 * t0 + den * cx, 2 * t1 + den * cy, 2 * den
    h11, h12, h22 = surface.int_gram
    a, lin, h12x2 = h22 * d, 2 * h22 * s1, 2 * h12  # A/d, B/d = a + h12x2 y0 + lin
    best = best_a = None
    for a1 in range(-radius, radius + 1):
        y0 = d * a1 + s0
        j = -((a + h12x2 * y0 + lin) // (2 * a))
        j = -radius if j < -radius else radius if j > radius else j
        y1 = d * j + s1
        num = (h11 * y0 + h12x2 * y1) * y0 + h22 * y1 * y1
        if best is None or num < best:
            best, best_a = num, (a1, j)
    q_x = 4 * _hq(surface.int_gram, (t0, t1), (t0, t1))  # Q(x) over gram_den d^2
    return Fraction(best - q_x, surface.gram_den * d * d), best_a


def theta_eval_bruteforce(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    x: Vec2,
    radius: int,
) -> ThetaValue:
    """The `_box_minimum` walk, certified global by the bound `spectral_floor`.

    Every lattice point outside the box must exceed the box minimum, else
    RadiusTooSmallError.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    value, (a1, a2) = _box_minimum(surface, char, x, radius)
    s = x + HALF * char_vector(surface, char)
    margin = radius + 1 - s.sup_norm()
    box_min = value + surface.norm(x)
    if margin <= 0 or spectral_floor(surface) * margin * margin <= box_min:
        raise RadiusTooSmallError(
            f"radius {radius} cannot certify the minimum for shift {s.as_tuple()}"
        )
    return ThetaValue(value=value, minimizer=Vec2(a1, a2))


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
