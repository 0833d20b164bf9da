"""Principally polarized tropical abelian surfaces and their lattice geometry.

Coordinate conventions, fixed once for the whole package:

* Points are written in coordinates with respect to a fixed basis of the
  period lattice, so the period lattice is exactly ``Z^2`` and the
  polarization is ``Q(x, y) = x^T G y`` for a symmetric positive-definite
  rational Gram matrix ``G``.
* The integral structure (the dual lattice under ``Q``) has basis the
  columns of ``G^{-1}``; a point's dual-basis coordinates are ``G x``.
* ``u, v`` is the Lagrange-reduced basis with ``Q(u,u) <= Q(v,v)`` and
  ``Q(u,v) <= 0``; in the hexagonal case ``w = -u - v`` is the third
  Voronoi relevant vector.

Vertex numbering of the hexagonal Voronoi cell follows the facet cycle
``w, -v, u, -w, v, -u`` of `_facet_cycle`: ``m_0`` lies on the facets of
``w`` and ``-v``, and ``m_{i+3} = -m_i`` (see `voronoi_cell`).

`make_surface` reads the Gram once, from its rows (a `Mat2` is read as its
rows), as `exact.integer_gram`'s H = gram_den G, and derives from H alone its
positivity and its integer context: the characteristic vectors (10 and 01 are
the reduced basis u, v), H u and H v, which give the descent triples and
`theta.theta_numerators`' `candidates`, and the conorms
p = -(u^T H v, v^T H w, u^T H w), w = -u - v, which give the class
(p_uv > 0), the characteristic norms (`char_norms`) and the face offsets
+-p/2 (Conway-Sloane).  `q` and `norm` read H as stored.  The
closest-vector descent (the relevant-vector slicer of Sommer-Feder-Shalvi) runs
on `exact.numerators` over any common denominator.  The cell geometry runs on H
too: the Voronoi vertices solve consecutive facet lines of `_facet_cycle`,
`subdivide` reads its 18 cells off that cycle and those vertices in one loop,
and `in_voronoi_cell` compares integers.  The surface keeps the rows as given
and builds its `Fraction` Gram, `gram`, only when something reads it.  That
Gram, the rational reduced basis, the cell and its subdivision are memoized
on the surface on first read.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction

from .errors import InternalInconsistencyError, NotPositiveDefiniteError
from .errors import ProductTypeError
from .exact import Mat2, Value, Vec2, ZERO2, form, integer_gram
from .exact import is_positive_form, lex_positive, mul_vec, numerators, point

HALF = Fraction(1, 2)


class SurfaceClass(enum.Enum):
    IRREDUCIBLE = "irreducible"
    PRODUCT_TYPE = "product_type"


class CellKind(enum.Enum):
    HEXAGON = "hexagon"
    RECTANGLE = "rectangle"


class PrincipallyPolarizedSurface(Value):
    """A polarized surface: the Gram matrix and its derived context."""

    _shown = ("gram",)  # the rest derives from the Gram
    entries: tuple  # G's rows as given, a frozen tuple pair
    int_gram: tuple[int, int, int]  # gram_den * G
    gram_den: int
    # (r, H r, r^T H r) for the relevant vectors r, in descent scan order.
    descent: tuple
    # j1*u + j2*v for the characteristics 00, 10, 01, 11; u, v is reduced.
    char_vectors: tuple[tuple[int, int], ...]
    conorms: tuple[int, int, int]  # (p_uv, p_vw, p_uw) = -(u^T H v, v^T H w, u^T H w)
    # (H u, H v, near, far) for `theta.theta_numerators`: h(c) and h(c + 2c')
    # for (c, c') = (u, v), (v, u), (u + v, -v), with h(y) = y^T H y.
    candidates: tuple
    # Geometric products built on first use; see `per_surface`.
    lazy: dict = dict  # a fresh dict per surface

    @property
    def gram(self) -> Mat2:
        """G as a `Mat2`, built from `entries` on first read (an embed request
        never reads it)."""
        return _fraction_gram(self)

    def q(self, x: Vec2, y: Vec2) -> Fraction:  # x^T H y / gram_den on numerators
        (x0, x1, dx), (y0, y1, dy) = numerators(x), numerators(y)
        num = form(self.int_gram, (x0, x1), (y0, y1))
        return Fraction(num, self.gram_den * dx * dy)

    def norm(self, x: Vec2) -> Fraction:
        return self.q(x, x)


class ReducedBasis(Value):
    u: Vec2
    v: Vec2
    norms: tuple[Fraction, Fraction, Fraction]  # (Q(u,u), Q(v,v), Q(u,v))

    @property
    def w(self) -> Vec2:
        return -(self.u + self.v)


class VoronoiCell(Value):
    kind: CellKind
    relevant_vectors: tuple[Vec2, ...]
    vertices: tuple[Vec2, ...]


class Cell(Value):
    """One closed 2-cell of the hexagon subdivision."""

    kind: str  # "sigma" | "tau" | "rho"
    quadrilateral: int  # 1..6
    vertices: tuple[Vec2, ...]

    @property
    def label(self) -> str:
        return f"{self.kind}{self.quadrilateral}"

    def area(self) -> Fraction:
        """Shoelace area; vertices are stored in cyclic order."""
        total = Fraction(0)
        pts = self.vertices
        for i, p in enumerate(pts):
            q = pts[(i + 1) % len(pts)]
            total += p.x * q.y - q.x * p.y
        return abs(total) / 2


def make_surface(gram) -> PrincipallyPolarizedSurface:
    """Build a surface, and its context, from a symmetric positive-definite matrix.

    `gram` is a `Mat2`, read as its rows, or 2x2 rows of ints, `Fraction`s or
    ``"p/q"`` strings.  All of it derives from H = gram_den * G, read once by
    `exact.integer_gram` (scaling keeps Q's order), so int rows build no
    `Fraction`: the surface keeps the rows as given, and its `gram` is a
    `Mat2` built on first read.
    """
    (a, b), (c, d) = gram.rows() if isinstance(gram, Mat2) else gram
    rows = (a, b), (c, d)  # frozen: the caller's rows may change later
    h, den = integer_gram(rows)  # raises NonSymmetricError when asymmetric
    if not is_positive_form(h):
        raise NotPositiveDefiniteError(
            f"matrix {Mat2.from_rows(rows).describe()} is not positive-definite"
        )
    u, v = _lagrange_reduce(h)
    (u0, u1), (v0, v1) = u, v
    w, s = (-u0 - v0, -u1 - v1), (u0 + v0, u1 + v1)  # s = u + v = -w
    conorms = (-form(h, u, v), -form(h, v, w), -form(h, u, w))
    _, h_u, h_v, h_w = char_norms(conorms)
    (hu0, hu1), (hv0, hv1) = hu, hv = mul_vec(h, u), mul_vec(h, v)
    # (r, H r, r^T H r) in descent scan order: u, v (, w), then the negatives.
    ru, rv = (u, hu, h_u), (v, hv, h_v)
    nu, nv = ((-u0, -u1), (-hu0, -hu1), h_u), ((-v0, -v1), (-hv0, -hv1), h_v)
    if conorms[0]:
        hs0, hs1 = hu0 + hv0, hu1 + hv1  # H s
        descent = (ru, rv, (w, (-hs0, -hs1), h_w), nu, nv, (s, (hs0, hs1), h_w))
    else:
        descent = (ru, rv, nu, nv)
    # The kernel's h(c) and h(c + 2c'), read off H u, H v, not off the conorms
    # that the quartic's faces use.
    huu, huv = u0 * hu0 + u1 * hu1, u0 * hv0 + u1 * hv1
    hvv = v0 * hv0 + v1 * hv1
    near = (huu, hvv, huu + 2 * huv + hvv)
    far = (huu + 4 * (huv + hvv), hvv + 4 * (huv + huu), huu - 2 * huv + hvv)
    return PrincipallyPolarizedSurface._of(
        rows, h, den, descent, ((0, 0), u, v, s), conorms, (hu, hv, near, far), {}
    )


def char_norms(conorms: tuple[int, int, int]) -> tuple[int, int, int, int]:
    """h(c) = c^T H c for c = 0, u, v, u + v, from the conorms (p_uv, p_vw, p_uw):
    each norm of the obtuse superbase u, v, w = -u - v is a sum of two conorms."""
    p_uv, p_vw, p_uw = conorms
    return 0, p_uv + p_uw, p_uv + p_vw, p_uw + p_vw


def per_surface(build):
    """Memoize a function of one surface in that surface's `lazy` dict."""

    @functools.wraps(build)
    def get(surface):
        if build not in surface.lazy:
            surface.lazy[build] = build(surface)
        return surface.lazy[build]

    return get


@per_surface
def _fraction_gram(surface: PrincipallyPolarizedSurface) -> Mat2:
    return Mat2.from_rows(surface.entries)


def _lagrange_reduce(h: tuple[int, int, int]):
    """Lagrange-Gauss reduction of the period basis under the integer Gram h.

    The iteration is deterministic (round-half-up multiplier, fixed swap
    rule) and is followed by a sign normalization: Q(u,v) <= 0, and the
    leading nonzero coordinate of u is positive (of both u and v when
    Q(u,v) = 0, where the signs decouple).  It runs on the coordinates
    u = (u0, u1), v = (v0, v1) and H u.
    """
    h11, h12, h22 = h
    u0, u1, v0, v1 = (0, 1, 1, 0) if h11 > h22 else (1, 0, 0, 1)
    while True:
        hu0, hu1 = h11 * u0 + h12 * u1, h12 * u0 + h22 * u1
        b = u0 * hu0 + u1 * hu1  # Q(u, u)
        # k: the nearest integer to Q(u, v) / b, halves up.
        k = (2 * (v0 * hu0 + v1 * hu1) + b) // (2 * b)
        v0, v1 = v0 - k * u0, v1 - k * u1
        if h11 * v0 * v0 + 2 * h12 * v0 * v1 + h22 * v1 * v1 >= b:
            break
        u0, u1, v0, v1 = v0, v1, u0, u1
    a = v0 * hu0 + v1 * hu1  # Q(u, v)
    if a > 0:
        v0, v1 = -v0, -v1
    u, v = (u0, u1), (v0, v1)
    if a == 0:
        return lex_positive(u), lex_positive(v)
    if u != lex_positive(u):
        return (-u0, -u1), (-v0, -v1)
    return u, v


@per_surface
def lagrange_reduce(surface: PrincipallyPolarizedSurface) -> ReducedBasis:
    """The Lagrange-reduced basis that `make_surface` found, in Fractions."""
    den, (_, h_u, h_v, _) = surface.gram_den, char_norms(surface.conorms)
    norms = tuple(Fraction(n, den) for n in (h_u, h_v, -surface.conorms[0]))
    return ReducedBasis(*(point(*r, 1) for r in surface.char_vectors[1:3]), norms)


def classify(surface: PrincipallyPolarizedSurface) -> SurfaceClass:
    """Irreducible iff the Voronoi cell is a hexagon, i.e. p_uv = -Q(u,v) > 0."""
    if surface.conorms[0] > 0:
        return SurfaceClass.IRREDUCIBLE
    return SurfaceClass.PRODUCT_TYPE


def _facet_vertex(
    surface: PrincipallyPolarizedSurface, a: tuple[int, int], b: tuple[int, int]
) -> Vec2:
    """Intersection of the facet lines Q(m, r) = Q(r, r)/2 for r = a, b, exact.

    On H = gram_den G the lines read (H r).m = h(r)/2 with h(r) = r^T H r;
    gram_den cancels, so each coordinate is one `Fraction` of integers.
    """
    (r1x, r1y), (r2x, r2y) = mul_vec(surface.int_gram, a), mul_vec(surface.int_gram, b)
    c1, c2 = a[0] * r1x + a[1] * r1y, b[0] * r2x + b[1] * r2y
    det2 = 2 * (r1x * r2y - r1y * r2x)
    return point(c1 * r2y - c2 * r1y, r1x * c2 - r2x * c1, det2)


def _facet_cycle(surface: PrincipallyPolarizedSurface) -> tuple[tuple[int, int], ...]:
    """Relevant vectors in facet order: w, -v, u, -w, v, -u, or -v, u, v, -u."""
    _, u, (vx, vy), (sx, sy) = surface.char_vectors
    w, nv = (-sx, -sy), (-vx, -vy)
    half = (w, nv, u) if classify(surface) is SurfaceClass.IRREDUCIBLE else (nv, u)
    return half + tuple((-x, -y) for x, y in half)


@per_surface
def voronoi_cell(surface: PrincipallyPolarizedSurface) -> VoronoiCell:
    """The cell: vertex m_i is where facets cycle[i] and cycle[i+1] meet.

    `_facet_cycle`'s second half negates its first, so m_{i+3} = -m_i.
    """
    cycle = _facet_cycle(surface)
    pairs = zip(cycle, cycle[1:] + cycle[:1])
    verts = tuple(_facet_vertex(surface, a, b) for a, b in pairs)
    kind = CellKind.HEXAGON if len(cycle) == 6 else CellKind.RECTANGLE
    rel = tuple(point(*r, 1) for r, _, _ in surface.descent)
    return VoronoiCell(kind=kind, relevant_vectors=rel, vertices=verts)


def in_voronoi_cell(surface: PrincipallyPolarizedSurface, y: Vec2) -> bool:
    """Membership in the closed cell: 2 Q(y, r) <= Q(r, r) for relevant r.

    With y = t/den this is 2 t^T H r <= den r^T H r, on integers.  H r and
    r^T H r are recomputed from `int_gram`, not read off the descent triples
    that `descend` steps on, so the test shares no stored data with it.
    """
    t0, t1, den = numerators(y)
    for r, _, _ in surface.descent:
        hx, hy = mul_vec(surface.int_gram, r)
        if 2 * (t0 * hx + t1 * hy) > den * (r[0] * hx + r[1] * hy):
            return False
    return True


def descend(
    surface: PrincipallyPolarizedSurface, t0: int, t1: int, den: int
) -> tuple[int, int]:
    """Relevant-vector descent of t/den into the cell, on integer numerators.

    Unit steps in the fixed scan order of `surface.descent`, each lowering the
    integer t^T H t >= 0, so it terminates; from the third pass on, a pass that
    does not lower it means the stored r^T H r are wrong, and raises.
    Scaling (t, den) by k scales the result by k: any common denominator works.
    """
    changed, passes, last = True, 0, None
    while changed:
        changed, passes = False, passes + 1
        if passes > 2:
            last, prev = form(surface.int_gram, (t0, t1), (t0, t1)), last
            if prev is not None and last >= prev:
                raise InternalInconsistencyError("a descent pass did not lower t^T H t")
        for (rx, ry), (hr0, hr1), qr in surface.descent:
            # Q(t/den - r) < Q(t/den) iff 2 <t, H r> > den * r^T H r.
            while 2 * (t0 * hr0 + t1 * hr1) > den * qr:
                t0 -= den * rx
                t1 -= den * ry
                changed = True
    return t0, t1


def reduce_point(
    surface: PrincipallyPolarizedSurface, x: Vec2
) -> tuple[Vec2, Vec2]:
    """Closest-vector reduction: x = x0 + p with p integral and x0 in the cell.

    Boundary points keep whichever representative `descend` reaches first.
    """
    t0, t1, den = numerators(x)
    x0 = point(*descend(surface, t0, t1, den), den)
    return x0, x - x0


@per_surface
def subdivide(surface: PrincipallyPolarizedSurface) -> tuple[Cell, ...]:
    """The 18 cells subdividing the hexagonal Voronoi cell, built in one loop.

    Quadrilateral i + 1 is (0, a, m_i, b) with a, b = cycle[i]/2, cycle[i+1]/2
    for `_facet_cycle`.  It splits into sigma = (0, n, a), tau = (n, a, m_i, b)
    and rho = (0, n, b), with n = (m_{i-1} + m_{i+1})/2.  Quadrants 4..6 are
    the exact negations of 1..3, as the cycle and the vertices are.
    """
    if classify(surface) is not SurfaceClass.IRREDUCIBLE:
        raise ProductTypeError("rectangular Voronoi cells are not subdivided")
    halves = [point(*r, 2) for r in _facet_cycle(surface)]
    m = voronoi_cell(surface).vertices
    cells: list[Cell] = []
    for i in range(6):
        a, b, n = halves[i], halves[(i + 1) % 6], HALF * (m[i - 1] + m[(i + 1) % 6])
        cells.append(Cell("sigma", i + 1, (ZERO2, n, a)))
        cells.append(Cell("tau", i + 1, (n, a, m[i], b)))
        cells.append(Cell("rho", i + 1, (ZERO2, n, b)))
    return tuple(cells)
