"""The paper's definitions, each stated once, as the tests' reference.

Each function takes the Fraction Gram G (a `Mat2` or its rows), never a
surface, so none reaches what `make_surface` derives or the package's descent,
box walk, cutoff rule or series terms.  Points and vectors are `Vec2`s, but for
a characteristic's integer pair c.  From the package this module takes its
value types and errors only.
"""

import functools
import math
from fractions import Fraction as F

from tropical_kummer.errors import InternalInconsistencyError, NonSymmetricError
from tropical_kummer.errors import NotPositiveDefiniteError
from tropical_kummer.exact import Mat2, Vec2


def _entries(gram):
    """(a, b, c, d): G's entries as Fractions."""
    if isinstance(gram, Mat2):
        return gram.a, gram.b, gram.c, gram.d
    return tuple(F(e) for row in gram for e in row)


def _integers(x):
    """(t, den): the rationals x are t / den over their least common denominator."""
    den = math.lcm(*(F(c).denominator for c in x))
    return tuple(int(c * den) for c in x), den


def q(gram, x, y):
    """Q(x, y) = x^T G y, in Fractions."""
    a, b, c, d = _entries(gram)
    return x.x * (a * y.x + b * y.y) + x.y * (c * y.x + d * y.y)


def lam_low(gram):
    """det(G) / (G11 + G22): Q(y, y) >= lam_low |y|_inf^2, every box's bound."""
    a, b, c, d = _entries(gram)
    return (a * d - b * c) / (a + d)


def certifies(gram, reach, radius, ceiling):
    """Q(a + s) > ceiling for every a outside the box |a_i| <= radius, where
    |s|_inf <= reach: there |a + s|_inf >= radius + 1 - reach."""
    margin = radius + 1 - reach
    return margin > 0 and lam_low(gram) * margin * margin > ceiling


def radius_by_steps(gram, reach, ceiling=None):
    """The least radius >= 1 that certifies the ceiling, raised one at a time.
    The default ceiling, (sum |G_ij|) reach^2, is the most Q(s, s) can be."""
    if ceiling is None:
        ceiling = sum(abs(e) for e in _entries(gram)) * reach * reach
    radius = 1
    while not certifies(gram, reach, radius, ceiling):
        radius += 1
    return radius


def box_minimum(gram, s, radius):
    """(min of Q(a + s) over |a_i| <= radius, its first minimizer in lex order),
    by a double loop on integers: den G = H, s = t / d, y = d a + t, and
    Q(a + s) = y^T H y / (den d^2)."""
    (h11, h12, _, h22), den = _integers(_entries(gram))
    (t0, t1), d = _integers(s.as_tuple())
    best = None
    for a1 in range(-radius, radius + 1):
        y0 = d * a1 + t0
        for a2 in range(-radius, radius + 1):
            y1 = d * a2 + t1
            num = h11 * y0 * y0 + 2 * h12 * y0 * y1 + h22 * y1 * y1
            if best is None or num < best[0]:
                best = (num, (a1, a2))
    return F(best[0], den * d * d), best[1]


def certified_minimum(gram, s):
    """(min of Q(a + s) over all of Z^2, its first minimizer in lex order): at
    s = x + c/2 less Q(x) it is theta_c(x), at s = -x the closest vector's
    Q.  The box of radius ceil(|s|_inf) holds -s rounded, and the box that
    `radius_by_steps` certifies for its minimum holds every minimizer."""
    reach = s.sup_norm()
    radius = math.ceil(reach)
    value, first = box_minimum(gram, s, radius)
    wide = radius_by_steps(gram, reach, value)
    return box_minimum(gram, s, wide) if wide > radius else (value, first)


def surface_fields(rows):
    """make_surface's fields, from G's Fraction entries alone: positivity by the
    signs of a and det(G), then the library's Lagrange rule (round-half-up
    multiplier, fixed swap, sign normalization) on Fraction norms.  Vectors
    are pairs; "reduced" is (u, v, (Q(u, u), Q(v, v), Q(u, v)))."""
    a, b, c, d = _entries(rows)
    gram = Mat2(a, b, c, d)
    qq = functools.partial(q, gram)
    text = f"matrix {gram.describe()} is not"
    if b != c:
        raise NonSymmetricError(f"{text} symmetric")
    if not (a > 0 and a * d - b * c > 0):
        raise NotPositiveDefiniteError(f"{text} positive-definite")
    u, v = sorted((Vec2(1, 0), Vec2(0, 1)), key=lambda r: qq(r, r))  # stable
    while True:
        vk = v - math.floor(qq(u, v) / qq(u, u) + F(1, 2)) * u
        if qq(vk, vk) >= qq(u, u):
            v = vk
            break
        u, v = vk, u
    if qq(u, v) > 0:
        v = -v
    if qq(u, v) == 0:  # each lexicographically positive
        u, v = (-r if r.as_tuple() < (0, 0) else r for r in (u, v))
    elif u.as_tuple() < (0, 0):
        u, v = -u, -v
    den = math.lcm(a.denominator, b.denominator, d.denominator)  # gram_den
    s = u + v
    half = [u, v, -s] if qq(u, v) < 0 else [u, v]
    descent = tuple(
        (r.as_tuple(), (den * gram.mul_vec(r)).as_tuple(), den * qq(r, r))
        for r in half + [-r for r in half]
    )
    return {
        "gram": gram,
        "reduced": (u.as_tuple(), v.as_tuple(), (qq(u, u), qq(v, v), qq(u, v))),
        "int_gram": (den * a, den * b, den * d),
        "gram_den": den,
        "descent": descent,
        "char_vectors": ((0, 0), u.as_tuple(), v.as_tuple(), s.as_tuple()),
        "conorms": (-den * qq(u, v), den * qq(v, s), den * qq(u, s)),
    }


def facet_vertex(gram, r1, r2):
    """Where the facet lines Q(m, r) = Q(r, r)/2 of r = r1, r2 meet, by Cramer."""
    g = Mat2(*_entries(gram))
    (p1, p2), (p3, p4) = g.mul_vec(r1).as_tuple(), g.mul_vec(r2).as_tuple()
    c1, c2 = q(g, r1, r1) / 2, q(g, r2, r2) / 2
    det = p1 * p4 - p2 * p3
    return Vec2((c1 * p4 - c2 * p2) / det, (p1 * c2 - p3 * c1) / det)


def in_cell(gram, y, vectors):
    """Membership in the closed cell 2 Q(y, r) <= Q(r, r) over the vectors r,
    as 2 t^T H r <= dy r^T H r on integers, for den G = H and y = t / dy."""
    (h11, h12, _, h22), _ = _integers(_entries(gram))
    (t0, t1), dy = _integers(y.as_tuple())
    for r in vectors:
        r0, r1 = int(r.x), int(r.y)
        g0, g1 = h11 * r0 + h12 * r1, h12 * r0 + h22 * r1  # H r
        if 2 * (t0 * g0 + t1 * g1) > dy * (r0 * g0 + r1 * g1):
            return False
    return True


def contains_by_solving(faces, p):
    """Membership in faces (normal, offset, four corners in any order): p is
    on the plane, and p - base = alpha e1 + beta e2 with alpha, beta in [0, 1]
    for the edges e1, e2 at a corner base (base + e1 + e2 is the corner
    opposite), solved on two coordinates by Cramer, checked on all three."""
    for normal, offset, (base, *rest) in faces:
        if sum(n * c for n, c in zip(normal, p.as_tuple())) != offset:
            continue
        for k, opposite in enumerate(rest):
            e1, e2 = (r - base for j, r in enumerate(rest) if j != k)
            if opposite - base == e1 + e2:
                break
        else:
            raise InternalInconsistencyError(f"{base}, {rest}: not a parallelogram")
        u, v, w = e1.as_tuple(), e2.as_tuple(), (p - base).as_tuple()
        for i, j in ((0, 1), (0, 2), (1, 2)):  # two coordinates with det != 0
            det = u[i] * v[j] - u[j] * v[i]
            if det:
                break
        alpha = (w[i] * v[j] - w[j] * v[i]) / det
        beta = (u[i] * w[j] - u[j] * w[i]) / det
        if alpha * e1 + beta * e2 == p - base and 0 <= alpha <= 1 and 0 <= beta <= 1:
            return True
    return False


def verdict(y, yp):
    """(sign, shift) with yp = sign y + shift, shift integral, read off the
    Fraction sums (plus first, as at 2-torsion points); None if neither."""
    for sign in (1, -1):
        if (shift := yp - sign * y).is_integral():
            return sign, shift
    return None


def series_scan(gram, c, cutoff, v):
    """Tropicalization by its definition: Q(c, c)/4 + the least term <c + 2a, G v>
    + Q(a, a) + Q(c, a), |a_i| <= cutoff, c an integer vector; with den G = H
    and v = t / dv, each term is an integer over den dv."""
    (h11, h12, _, h22), den = _integers(_entries(gram))
    (t0, t1), dv = _integers(v.as_tuple())
    (c0, c1), side = c, range(-cutoff, cutoff + 1)
    g0, g1 = h11 * t0 + h12 * t1, h12 * t0 + h22 * t1  # den dv G v
    least = min(
        (c0 + 2 * a0) * g0
        + (c1 + 2 * a1) * g1
        + dv * ((a0 + c0) * (h11 * a0 + h12 * a1) + (a1 + c1) * (h12 * a0 + h22 * a1))
        for a0 in side
        for a1 in side
    )
    return F(least, den * dv) + q(gram, Vec2(*c), Vec2(*c)) / 4
