"""Exact evaluation of the four tropical theta functions of second order.

A characteristic (j1, j2) is indexed against the reduced basis (u, v):
the function value at x is

    min over integer a of  Q(a + s, a + s) - Q(x, x),
    with the shift  s = x + (j1*u + j2*v)/2.

The minimum is found by the closest-vector descent on integer numerators:
`_shift` reads s, for x = t/den, as 2*t + den*c over 2*den, and one `Fraction`
is built for the value.  A brute-force oracle sharing only `_shift` with the
descent is provided alongside: a box walk that prunes its own rows, so the
box's size sets its work only where the box binds, and that certifies its
minimum global on the same integers (`_certifies`, `safe_cutoff`'s test too).
The walk also tropicalizes the truncated series: <c + 2a, G x> + Q(a) +
Q(c, a) + Q(c)/4 is Q(x + c/2 + a) - Q(x), so both take the same minimum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ProductTypeError, RadiusTooSmallError
from .exact import Value, Vec2, form, numerators
from .lattice import PrincipallyPolarizedSurface, SurfaceClass, classify, descend


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

    def vector(self, surface: PrincipallyPolarizedSurface) -> tuple[int, int]:
        """The integer vector j1*u + j2*v in the surface's reduced basis."""
        return surface.char_vectors[self.j1 + 2 * self.j2]


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

    @classmethod
    def _of(cls, value, minimizer):  # unrolled, as `Vec2._of`: one per evaluation
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "minimizer", minimizer)
        return self


def _shift(surface, char, x) -> tuple[int, int, int, int]:
    """(s0, s1, d, q_x) with x + c/2 = (s0, s1) / d, Q(x) = q_x / (gram_den d^2)."""
    t0, t1, den = numerators(x)
    cx, cy = char.vector(surface)
    q_x = 4 * form(surface.int_gram, (t0, t1), (t0, t1))
    return 2 * t0 + den * cx, 2 * t1 + den * cy, 2 * den, q_x


def _certifies(h: tuple[int, int, int], m: int, bound: int) -> bool:
    """y^T H y > bound wherever |y|_inf >= m, as Q(y) >= lam_low |y|_inf^2 with
    lam_low = det(G) / (G11 + G22): m > 0 and det(H) m^2 > bound (h11 + h22)."""
    return m > 0 and (h[0] * h[2] - h[1] * h[1]) * m * m > bound * (h[0] + h[2])


def theta_eval(
    surface: PrincipallyPolarizedSurface, char: ThetaCharacteristic, x: Vec2
) -> ThetaValue:
    s0, s1, d, q_x = _shift(surface, char, x)
    n = descend(surface, s0, s1, d)
    value = Fraction(form(surface.int_gram, n, n) - q_x, surface.gram_den * d * d)
    # n - s is d times the lattice point that attains the minimum.
    a = (Fraction((n[0] - s0) // d), Fraction((n[1] - s1) // d))
    return ThetaValue._of(value, Vec2._of(*a))


def _box_minimum(surface, char, x, radius) -> tuple[Fraction, tuple[int, int], bool]:
    """min of Q(a + s) - Q(x) over |a_i| <= radius, a first minimizer, certified.

    On the integer numerators of `_shift`, s = (s0, s1) / d and y = d (a + s),
    rows run along the stiffer axis (the axes swap when h22 > h11; below, a1
    is the walk's row index and j = a2 its inner one).  In row a1 the
    numerator of Q(a + s) is A j^2 + B j + C, A = h22 d^2,
    B = 2 d (h12 y0 + h22 s1): -((A + B) // (2A)), its vertex rounded half
    down and clamped to the box, is the least j among the row's minimizers.
    The row nearest -s goes first and its numerator `best` bounds the rest:
    over real j a row's least numerator is det y0^2 / h22, so only rows with
    |y0| <= isqrt(best h22 // det) can reach `best`, and only they are walked
    (the 2-D case of Fincke-Pohst): at most 2 sqrt(best h22 / det) / d + 1
    rows, which the radius bounds only when the box binds, in O(1) memory.
    Every minimizer lies in a walked row, and rows win on (numerator,
    (a1, a2)) in the original order, so the result is a double loop's first
    minimizer in lexicographic order whatever order the rows are visited in.
    Outside the box |a + s|_inf >= m / d, m = d (radius + 1) - |(s0, s1)|_inf,
    and Q(y, y) >= lam_low |y|_inf^2, lam_low = det(G) / (G11 + G22), so the
    box's least Q(a + s), best / (gram_den d^2), is certified global if
    `_certifies(H, m, best)`.
    """
    s0, s1, d, q_x = _shift(surface, char, x)
    h11, h12, h22 = surface.int_gram
    det, swap = h11 * h22 - h12 * h12, h22 > h11
    if swap:
        s0, s1, h11, h22 = s1, s0, h22, h11
    a, lin, h12x2 = h22 * d, 2 * h22 * s1, 2 * h12  # A/d, B/d = a + h12x2 y0 + lin

    def row(a1):  # (numerator, (a1, a2)) at the row's first minimizer
        y0 = d * a1 + s0
        j = min(max(-((a + h12x2 * y0 + lin) // (2 * a)), -radius), radius)
        y1 = d * j + s1
        num = (h11 * y0 + h12x2 * y1) * y0 + h22 * y1 * y1
        return num, ((j, a1) if swap else (a1, j))

    best, best_a = row(min(max(-((2 * s0 + d) // (2 * d)), -radius), radius))
    reach = math.isqrt(best * h22 // det)  # only rows with |y0| <= reach can tie
    lo, hi = max(-radius, -((reach + s0) // d)), min(radius, (reach - s0) // d)
    for a1 in range(lo, hi + 1):
        num, at = row(a1)
        if num < best or num == best and at < best_a:
            best, best_a = num, at
    m = d * (radius + 1) - max(abs(s0), abs(s1))
    certified = _certifies(surface.int_gram, m, best)
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
        s0, s1, d, _ = _shift(surface, char, x)
        shift = (Fraction(s0, d), Fraction(s1, d))
        raise RadiusTooSmallError(
            f"radius {radius} cannot certify the minimum for shift {shift}"
        )
    return ThetaValue._of(value, Vec2._of(Fraction(a1), Fraction(a2)))


def theta_constants(
    surface: PrincipallyPolarizedSurface,
) -> tuple[Fraction, Fraction, Fraction]:
    """(theta_10, theta_01, theta_11) = (Q(u,u), Q(v,v), Q(w,w)) / 4, u + v = -w."""
    if classify(surface) is not SurfaceClass.IRREDUCIBLE:
        raise ProductTypeError("theta constants are defined for hexagonal cells only")
    h, den = surface.int_gram, surface.gram_den
    return tuple(Fraction(form(h, c, c), 4 * den) for c in surface.char_vectors[1:])
