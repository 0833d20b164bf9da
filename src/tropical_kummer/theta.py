"""Exact evaluation of the four tropical theta functions of second order.

A characteristic (j1, j2) is indexed against the reduced basis (u, v):
the function value at x is

    min over integer a of  Q(a + s, a + s) - Q(x, x),
    with the shift  s = x + (j1*u + j2*v)/2.

The minimum is found by the closest-vector descent on integer numerators:
`_shift` reads s, for x = t/den, as 2*t + den*c over 2*den, and `theta_step`
returns the value's numerator over `step_scale`, gram_den (2 den)^2, for any
common denominator den, and a minimizer; `theta_eval` builds one `Fraction`
from it.  `theta_numerators` gives all four values at one point, over the same
denominator, from one descent of x itself into the Voronoi cell and a closed
form on the cell (every 2-D lattice is of Voronoi's first kind); it returns no
minimizer, which stays `theta_step`'s.  A brute-force
oracle sharing only `_shift` with the descent is provided alongside:
`box_step`, a box walk that prunes its own rows, so the box's size sets its
work only where the box binds, and that says whether its minimum is certified
global on the same integers (`_certifies`).  `cutoff_step`, the one radius
rule, sizes the box for all |x|_inf <= b/q on integers and passes that test;
`safe_cutoff` is its `Fraction` entry.  The walk returns its numerator over
the same denominator as `theta_step`, and each caller says what an
uncertified box means: to `theta_eval_bruteforce`, its `Fraction` wrapping, a
radius too small (RadiusTooSmallError); to `verify`'s oracle, whose box
`cutoff_step` certifies, an internal inconsistency.  The
walk also tropicalizes the truncated series (`nonarch.tropicalize_step`):
<c + 2a, G x> + Q(a) + Q(c, a) + Q(c)/4 is Q(x + c/2 + a) - Q(x), so both
take the same minimum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ProductTypeError, RadiusTooSmallError
from .exact import Value, Vec2, form, numerators, point, to_fraction
from .lattice import PrincipallyPolarizedSurface, SurfaceClass, char_norms, classify
from .lattice import descend


class ThetaCharacteristic(Value):
    j1: int
    j2: int

    def __init__(self, j1: int, j2: int):
        if any(type(j) is not int or j not in (0, 1) for j in (j1, j2)):
            raise ValueError("characteristic indices must be 0 or 1")
        super().__init__(j1, j2)

    @classmethod
    def parse(cls, text: str) -> "ThetaCharacteristic":
        if len(text) != 2 or any(ch not in "01" for ch in text):
            raise ValueError(f"characteristic must be two bits, got {text!r}")
        return cls(int(text[0]), int(text[1]))

    def __str__(self) -> str:
        return f"{self.j1}{self.j2}"

    _index = property(lambda self: self.j1 + 2 * self.j2)  # 00, 10, 01, 11: 0..3

    def vector(self, surface: PrincipallyPolarizedSurface) -> tuple[int, int]:
        """The integer vector c = j1*u + j2*v in the surface's reduced basis."""
        return surface.char_vectors[self._index]

    def constant(self, surface: PrincipallyPolarizedSurface) -> Fraction:
        """The lifting constant Q(c, c)/4, h(c) / (4 gram_den) by conorms."""
        h_c = char_norms(surface.conorms)[self._index]
        return Fraction(h_c, step_scale(surface, 1))


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


def step_scale(surface: PrincipallyPolarizedSurface, den: int) -> int:
    """gram_den (2 den)^2: the denominator of every step's numerator at t/den."""
    return 4 * surface.gram_den * den * den


def _shift(surface, char, t0, t1, den) -> tuple[int, int, int, int]:
    """(s0, s1, d, q_x) with x + c/2 = (s0, s1) / d, Q(x) = q_x / (gram_den d^2),
    for x = (t0, t1) / den."""
    cx, cy = char.vector(surface)
    q_x = 4 * form(surface.int_gram, (t0, t1), (t0, t1))
    return 2 * t0 + den * cx, 2 * t1 + den * cy, 2 * den, q_x


def _certifies(h: tuple[int, int, int], m: int, bound: int) -> bool:
    """y^T H y > bound wherever |y|_inf >= m, as Q(y) >= lam_low |y|_inf^2 with
    lam_low = det(G) / (G11 + G22): m > 0 and det(H) m^2 > bound (h11 + h22)."""
    return m > 0 and (h[0] * h[2] - h[1] * h[1]) * m * m > bound * (h[0] + h[2])


def theta_step(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    t0: int,
    t1: int,
    den: int,
) -> tuple[int, tuple[int, int]]:
    """(num, a): theta_char(t/den) = num / (gram_den (2 den)^2), attained at a.

    num = h(n) - 4 h(t) with h(y) = y^T H y and n = descend(2t + den c, 2 den).
    Any common denominator works: (k t, k den) gives k^2 num and the same a.
    """
    s0, s1, d, q_x = _shift(surface, char, t0, t1, den)
    n = descend(surface, s0, s1, d)
    # n - s is d times the lattice point that attains the minimum.
    return form(surface.int_gram, n, n) - q_x, ((n[0] - s0) // d, (n[1] - s1) // d)


def theta_numerators(
    surface: PrincipallyPolarizedSurface, t0: int, t1: int, den: int
) -> tuple[int, int, int, int]:
    """The four theta values at t/den, 00, 10, 01, 11, as numerators over
    `step_scale`, gram_den (2 den)^2, from one descent: `theta_step`'s values.

    Let r = descend(t, den), so r/den is t/den reduced into the Voronoi cell V
    by the period p = (t - r)/den.  Then theta_00 = Q(r/den) - Q(t/den), 4 (h(r)
    - h(t)) over step_scale with h(y) = y^T H y, and quasi-periodicity moves
    every theta_c by that same Q(r/den) - Q(t/den) from r/den to t/den.  On V,
    theta_00 = 0 and theta_c(x) is the least Q(x + q/2) - Q(x) = Q(x, q) +
    Q(q)/4 over q in c + 2 Z^2, a coset closed under q -> -q, so at x = r/den

        theta_c - theta_00 = den * min over q of (den h(q) - 4 |r^T H q|).

    Only q in {c, c + 2c'} can reach the minimum, for (c, c') = (u, v),
    (v, u), (u + v, -v): the nearest point p of the coset c/2 + Z^2 to -x
    has x + p in V, so p lies in 2V, as V is symmetric.  As u, v, w = -u - v
    is an obtuse superbase (every 2-D lattice is of Voronoi's first kind),
    the coset's points in 2V are +-c/2 and +-(c/2 + c'); any other, as u - 2v
    for c = u when Q(u, v) = 0, lies on the boundary of 2V, where it only
    ties with them.  H u, H v and the six h(q) are the surface's stored
    `candidates`, read off `int_gram` and `char_vectors` once, not off the
    conorms, which the quartic's faces are built on.  As `descend` scales,
    (k t, k den) gives k^2 times each numerator.  The minimizer is left to
    `theta_step`.
    """
    r0, r1 = descend(surface, t0, t1, den)
    (hu0, hu1), (hv0, hv1), (h1, h2, h3), (q1, q2, q3) = surface.candidates
    (h11, h12, h22), s0, s1 = surface.int_gram, r0 + t0, r1 + t1
    # 4 (h(r) - h(t)) = 4 (r - t)^T H (r + t), written out: this runs per point.
    base = 4 * ((r0 - t0) * (h11 * s0 + h12 * s1) + (r1 - t1) * (h12 * s0 + h22 * s1))
    a, b = 4 * (r0 * hu0 + r1 * hu1), 4 * (r0 * hv0 + r1 * hv1)  # 4 r^T H u, v
    return (
        base,
        base + den * min(den * h1 - abs(a), den * q1 - abs(a + 2 * b)),
        base + den * min(den * h2 - abs(b), den * q2 - abs(b + 2 * a)),
        base + den * min(den * h3 - abs(a + b), den * q3 - abs(a - b)),
    )


def _theta_value(surface, num: int, a: tuple[int, int], den: int) -> ThetaValue:
    """The step's (num, a) at x = t/den, as a `Fraction` value and minimizer."""
    return ThetaValue._of(Fraction(num, step_scale(surface, den)), point(*a, 1))


def theta_eval(
    surface: PrincipallyPolarizedSurface, char: ThetaCharacteristic, x: Vec2
) -> ThetaValue:
    t0, t1, den = numerators(x)
    return _theta_value(surface, *theta_step(surface, char, t0, t1, den), den)


def box_step(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    t0: int,
    t1: int,
    den: int,
    radius: int,
) -> tuple[int, tuple[int, int], bool]:
    """(num, a, certified): min of Q(a + s) - Q(x) over |a_i| <= radius is
    num / (gram_den (2 den)^2) at x = t/den, as in `theta_step`; a is its first
    minimizer, and certified says no a outside the box comes lower.

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
    s0, s1, d, q_x = _shift(surface, char, t0, t1, den)
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
    return best - q_x, best_a, _certifies(surface.int_gram, m, best)


def cutoff_step(
    surface: PrincipallyPolarizedSurface, char: ThetaCharacteristic, b: int, q: int
) -> int:
    """Smallest certified cutoff for all evaluation points ``|v|_inf <= b/q``.

    The shift v + c/2 has |.|_inf <= reach = b/q + |c|_inf / 2, so the
    minimized quadratic at u' = 0 is at most M = (sum |G_ij|) reach^2, and
    any u' outside the cutoff-R box keeps it above lam_low (R + 1 - reach)^2,
    lam_low = det(G) / (G11 + G22).  R is the smallest R >= 1 with
    R + 1 - reach > T = sqrt(M / lam_low): floor(T + reach), or 1 if that is
    smaller, which is isqrt(floor(T^2)) + floor(reach) or one more, as
    floor(T + reach) <= floor(T) + floor(reach) + 1.  With H = gram_den G and
    reach = r/p (r = 2b + q |c|_inf, p = 2q), T^2 is
    k (h11 + h22) / (p^2 det(H)), k = (h11 + 2|h12| + h22) r^2, and R passes
    `box_step`'s own certificate, the exact test `_certifies(H, p (R + 1) - r, k)`.
    Scaling (b, q) by m scales r and p by m and k by m^2, so any b >= 0 over
    any q > 0 gives the same R.
    """
    h11, h12, h22 = h = surface.int_gram
    cx, cy = char.vector(surface)
    r, p = 2 * b + q * max(abs(cx), abs(cy)), 2 * q
    det = h11 * h22 - h12 * h12
    k = (h11 + 2 * abs(h12) + h22) * r * r
    radius = max(1, math.isqrt(k * (h11 + h22) // (p * p * det)) + r // p)
    return radius if _certifies(h, p * (radius + 1) - r, k) else radius + 1


def safe_cutoff(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    region_bound: Fraction,
) -> int:
    """`cutoff_step` on the numerator and denominator of ``region_bound``."""
    b, q = to_fraction(region_bound).as_integer_ratio()
    if b < 0:
        raise ValueError("region_bound must be nonnegative")
    return cutoff_step(surface, char, b, q)


def theta_eval_bruteforce(
    surface: PrincipallyPolarizedSurface,
    char: ThetaCharacteristic,
    x: Vec2,
    radius: int,
) -> ThetaValue:
    """`box_step` at x, with its `Fraction` value and minimizer;
    RadiusTooSmallError unless the box certifies its minimum."""
    if not isinstance(radius, int) or isinstance(radius, bool):
        raise ValueError(f"radius must be an int, got {radius!r}")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    t0, t1, den = numerators(x)
    num, a, certified = box_step(surface, char, t0, t1, den, radius)
    if not certified:
        shift = point(*_shift(surface, char, t0, t1, den)[:3]).as_tuple()
        raise RadiusTooSmallError(
            f"radius {radius} cannot certify the minimum for shift {shift}"
        )
    return _theta_value(surface, num, a, den)


def theta_constants(
    surface: PrincipallyPolarizedSurface,
) -> tuple[Fraction, Fraction, Fraction]:
    """(theta_10, theta_01, theta_11) = (Q(u,u), Q(v,v), Q(w,w)) / 4, by `constant`."""
    if classify(surface) is not SurfaceClass.IRREDUCIBLE:
        raise ProductTypeError("theta constants are defined for hexagonal cells only")
    return tuple(char.constant(surface) for char in CHARACTERISTICS[1:])
