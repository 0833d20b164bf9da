"""Exact evaluation of the four tropical theta functions of second order.

A characteristic (j1, j2) is indexed against the reduced basis (u, v):
the function value at x is

    min over integer a of  Q(a + s, a + s) - Q(x, x),
    with the shift  s = x + (j1*u + j2*v)/2.

The minimum is found by the closest-vector descent on integer numerators:
for x = t/den, s is 2*t + den*c over 2*den, and one `Fraction` is built for
the value.  A brute-force oracle sharing no code with the descent is
provided alongside: a box walk on integer numerators that certifies its own
minimum global on the same integers.  The walk also tropicalizes the
truncated series: <c + 2a, G x> + Q(a) + Q(c, a) + Q(c)/4 is
Q(x + c/2 + a) - Q(x), so both take the same minimum over the same box.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ProductTypeError, RadiusTooSmallError
from .exact import Value, Vec2, _set
from .lattice import (
    PrincipallyPolarizedSurface,
    SurfaceClass,
    _hq,
    classify,
    descend,
    lagrange_reduce,
    numerators,
)


class ThetaCharacteristic(Value):
    j1: int
    j2: int

    def __init__(self, j1: int, j2: int):
        if j1 not in (0, 1) or j2 not in (0, 1):
            raise ValueError("characteristic indices must be 0 or 1")
        super().__init__(j1, j2)

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


class ThetaValue(Value):
    value: Fraction
    minimizer: Vec2  # a lattice point attaining the minimum

    def __init__(self, value: Fraction, minimizer: Vec2):
        _set(self, "value", value)
        _set(self, "minimizer", minimizer)


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


def certified_radius(
    surface: PrincipallyPolarizedSurface, reach: Fraction, ceiling: Fraction
) -> int:
    """Smallest R >= 1 with lam_low * (R + 1 - reach)^2 > ceiling, R + 1 > reach.

    lam_low = det(G) / (G11 + G22) bounds Q(y, y) >= lam_low * |y|_inf^2.
    For a shift s with |s|_inf <= reach, every a outside the box |a_i| <= R
    has |a + s|_inf >= R + 1 - reach, so Q(a + s, a + s) exceeds `ceiling`.
    For ceiling >= 0 the condition is R + 1 - reach > T with
    T = sqrt(ceiling / lam_low), so the smallest R is
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


def _box_minimum(surface, char, x, radius) -> tuple[Fraction, tuple[int, int], bool]:
    """min of Q(a + s) - Q(x) over |a_i| <= radius, a first minimizer, certified.

    Rows a1 are walked on integer numerators, s = (s0, s1) / d with d = 2 den,
    and y = d (a + s).  In a row, the numerator of Q(a + s) is a convex
    quadratic A j^2 + B j + C in a2 = j, A = h22 d^2, B = 2 d (h12 y0 + h22 s1):
    -((A + B) // (2A)), its vertex rounded half down and clamped to the box,
    is the row's first minimizer.  A row wins only when strictly lower, so
    ties keep the first (a1, a2) in lexicographic order, as a double loop
    does: the 2-D case of Fincke-Pohst, O(radius) time and O(1) memory.
    Outside the box |a + s|_inf >= m / d, m = d (radius + 1) - |(s0, s1)|_inf,
    and Q(y, y) >= lam_low |y|_inf^2, lam_low = det(G) / (G11 + G22), so the
    box's least Q(a + s), best / (gram_den d^2), is certified global if m > 0
    and det(H) m^2 > best (h11 + h22).
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
    m = d * (radius + 1) - max(abs(s0), abs(s1))
    certified = m > 0 and (h11 * h22 - h12 * h12) * m * m > best * (h11 + h22)
    q_x = 4 * _hq(surface.int_gram, (t0, t1), (t0, t1))  # Q(x) over gram_den d^2
    return Fraction(best - q_x, surface.gram_den * d * d), best_a, certified


def theta_eval_bruteforce(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    x: Vec2,
    radius: int,
) -> ThetaValue:
    """The `_box_minimum` walk; RadiusTooSmallError unless it is certified."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    value, (a1, a2), certified = _box_minimum(surface, char, x, radius)
    if not certified:
        cx, cy = surface.char_vectors[char.j1 + 2 * char.j2]
        shift = (x.x + Fraction(cx, 2), x.y + Fraction(cy, 2))
        raise RadiusTooSmallError(
            f"radius {radius} cannot certify the minimum for shift {shift}"
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
