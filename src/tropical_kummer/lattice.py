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
``w, -v, u, -w, v, -u``: vertex ``m_i`` is the intersection of the facet
lines of the i-th and (i+1)-st entries, so ``m_1`` lies on the facets
defined by ``w`` and ``-v`` and ``m_{i+3} = -m_i``.

`make_surface` derives each surface's context once and stores it on the
surface: the reduced basis, the integer Gram ``H = gram_den * G``, the
descent triples and the characteristic vectors.  The closest-vector descent
(the relevant-vector slicer of Sommer-Feder-Shalvi) runs on integer
numerators over a common denominator.  The Voronoi cell and its subdivision
are memoized on the surface instance, so nothing outlives the surface.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction

from .errors import NotPositiveDefiniteError, ProductTypeError
from .exact import Mat2, Value, Vec2, ZERO2, gram_eval, is_positive_definite

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
    gram: Mat2
    reduced: ReducedBasis
    int_gram: tuple[int, int, int]  # gram_den * G
    gram_den: int
    # (r, H r, r^T H r) for the relevant vectors r, in descent scan order.
    descent: tuple
    # j1*u + j2*v for the characteristics 00, 10, 01, 11.
    char_vectors: tuple[tuple[int, int], ...]
    # Geometric products built on first use; see `per_surface`.
    lazy: dict = dict  # a fresh dict per surface

    @property
    def n_basis(self) -> Mat2:
        """The dual basis G^{-1}, as columns."""
        return self.gram.inverse()

    def q(self, x: Vec2, y: Vec2) -> Fraction:
        return gram_eval(self.gram, x, y)

    def norm(self, x: Vec2) -> Fraction:
        return gram_eval(self.gram, x, x)


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

    def centroid(self) -> Vec2:
        n = len(self.vertices)
        sx = sum(p.x for p in self.vertices)
        sy = sum(p.y for p in self.vertices)
        return Vec2(Fraction(sx, n), Fraction(sy, n))

    def area(self) -> Fraction:
        """Shoelace area; vertices are stored in cyclic order."""
        total = Fraction(0)
        pts = self.vertices
        for i, p in enumerate(pts):
            q = pts[(i + 1) % len(pts)]
            total += p.x * q.y - q.x * p.y
        return abs(total) / 2


class CellComplex(Value):
    cells: tuple[Cell, ...]


def make_surface(gram) -> PrincipallyPolarizedSurface:
    """Build a surface, and its context, from a symmetric positive-definite matrix."""
    g = gram if isinstance(gram, Mat2) else Mat2.from_rows(gram)
    if not is_positive_definite(g):  # raises NonSymmetricError when asymmetric
        raise NotPositiveDefiniteError(
            f"matrix {g.describe()} is not positive-definite"
        )
    # Comparisons of Q-norms are scale-invariant, so reduction and descent
    # run on the integer multiple H = gram_den * G.
    den = math.lcm(g.a.denominator, g.b.denominator, g.d.denominator)
    h = (int(g.a * den), int(g.b * den), int(g.d * den))
    u, v = _lagrange_reduce(h)
    # The relevant vectors in descent scan order: u, v (, w), then negatives.
    half = (u, v, (-u[0] - v[0], -u[1] - v[1])) if _hq(h, u, v) < 0 else (u, v)
    rel = half + tuple((-x, -y) for x, y in half)
    descent = tuple(
        (r, (h[0] * r[0] + h[1] * r[1], h[1] * r[0] + h[2] * r[1]), _hq(h, r, r))
        for r in rel
    )
    norms = tuple(Fraction(_hq(h, a, b), den) for a, b in ((u, u), (v, v), (u, v)))
    reduced = ReducedBasis(Vec2(*u), Vec2(*v), norms)
    char_vectors = ((0, 0), u, v, (u[0] + v[0], u[1] + v[1]))
    return PrincipallyPolarizedSurface(g, reduced, h, den, descent, char_vectors, {})


def per_surface(build):
    """Memoize a function of one surface in that surface's `lazy` dict."""

    @functools.wraps(build)
    def get(surface):
        if build not in surface.lazy:
            surface.lazy[build] = build(surface)
        return surface.lazy[build]

    return get


def _hq(h: tuple[int, int, int], s: tuple[int, int], t: tuple[int, int]) -> int:
    """s^T H t for the integer Gram H = (h11, h12, h22)."""
    return h[0] * s[0] * t[0] + h[1] * (s[0] * t[1] + s[1] * t[0]) + h[2] * s[1] * t[1]


def _lexpos(vec: tuple[int, int]) -> tuple[int, int]:
    """The representative of {vec, -vec} whose first nonzero entry is > 0."""
    x, y = vec
    if x < 0 or (x == 0 and y < 0):
        return (-x, -y)
    return (x, y)


def _lagrange_reduce(h: tuple[int, int, int]):
    """Lagrange-Gauss reduction of the period basis under the integer Gram h.

    The iteration is deterministic (round-half-up multiplier, fixed swap
    rule) and is followed by a sign normalization: Q(u,v) <= 0, and the
    leading nonzero coordinate of u is positive (of both u and v when
    Q(u,v) = 0, where the signs decouple).
    """
    q = functools.partial(_hq, h)
    u, v = (1, 0), (0, 1)
    if q(u, u) > q(v, v):
        u, v = v, u
    while True:
        a, b = q(u, v), q(u, u)
        k = (2 * a + b) // (2 * b)  # nearest integer to a/b, halves up
        vk = (v[0] - k * u[0], v[1] - k * u[1])
        if q(vk, vk) < b:
            u, v = vk, u
        else:
            v = vk
            break
    if q(u, v) > 0:
        v = (-v[0], -v[1])
    if q(u, v) == 0:
        u, v = _lexpos(u), _lexpos(v)
    elif u != _lexpos(u):
        u, v = (-u[0], -u[1]), (-v[0], -v[1])
    return u, v


def lagrange_reduce(surface: PrincipallyPolarizedSurface) -> ReducedBasis:
    """The surface's Lagrange-reduced basis, computed by `make_surface`."""
    return surface.reduced


def classify(surface: PrincipallyPolarizedSurface) -> SurfaceClass:
    """Irreducible iff the Voronoi cell is a hexagon, i.e. Q(u,v) < 0."""
    if lagrange_reduce(surface).norms[2] < 0:
        return SurfaceClass.IRREDUCIBLE
    return SurfaceClass.PRODUCT_TYPE


def relevant_vectors(surface: PrincipallyPolarizedSurface) -> tuple[Vec2, ...]:
    return voronoi_cell(surface).relevant_vectors


def _facet_vertex(surface: PrincipallyPolarizedSurface, q1: Vec2, q2: Vec2) -> Vec2:
    """Intersection of the facet lines Q(m, q_i) = Q(q_i, q_i)/2, exact."""
    g = surface.gram
    r1, r2 = g.mul_vec(q1), g.mul_vec(q2)
    c1, c2 = surface.norm(q1) / 2, surface.norm(q2) / 2
    det = r1.x * r2.y - r1.y * r2.x
    return Vec2((c1 * r2.y - c2 * r1.y) / det, (r1.x * c2 - r2.x * c1) / det)


@per_surface
def voronoi_cell(surface: PrincipallyPolarizedSurface) -> VoronoiCell:
    rb = lagrange_reduce(surface)
    u, v = rb.u, rb.v
    rel = tuple(Vec2(*r) for r, _, _ in surface.descent)
    if classify(surface) is SurfaceClass.IRREDUCIBLE:
        w = rb.w
        facet_cycle = (w, -v, u, -w, v, -u)
        kind = CellKind.HEXAGON
    else:
        facet_cycle = (-v, u, v, -u)
        kind = CellKind.RECTANGLE
    verts = tuple(
        _facet_vertex(surface, facet_cycle[i], facet_cycle[(i + 1) % len(facet_cycle)])
        for i in range(len(facet_cycle))
    )
    return VoronoiCell(kind=kind, relevant_vectors=rel, vertices=verts)


def in_voronoi_cell(surface: PrincipallyPolarizedSurface, y: Vec2) -> bool:
    """Membership in the closed cell: 2 Q(y, r) <= Q(r, r) for relevant r."""
    return all(
        2 * surface.q(y, r) <= surface.norm(r) for r in relevant_vectors(surface)
    )


def descend(
    surface: PrincipallyPolarizedSurface, t0: int, t1: int, den: int
) -> tuple[int, int]:
    """Relevant-vector descent of t/den into the cell, on integer numerators.

    Unit steps in the fixed scan order of `surface.descent` while the Q-norm
    strictly drops, so it terminates.  Scaling (t, den) by k scales the
    result by k, so callers may pick any common denominator.
    """
    changed = True
    while changed:
        changed = False
        for (rx, ry), (hr0, hr1), qr in surface.descent:
            # Q(t/den - r) < Q(t/den) iff 2 <t, H r> > den * r^T H r.
            while 2 * (t0 * hr0 + t1 * hr1) > den * qr:
                t0 -= den * rx
                t1 -= den * ry
                changed = True
    return t0, t1


def numerators(x: Vec2) -> tuple[int, int, int]:
    """(t0, t1, den) with x = (t0, t1) / den over the least common denominator."""
    (a, b), (c, d) = x.x.as_integer_ratio(), x.y.as_integer_ratio()
    den = math.lcm(b, d)
    return a * (den // b), c * (den // d), den


def reduce_point(
    surface: PrincipallyPolarizedSurface, x: Vec2
) -> tuple[Vec2, Vec2]:
    """Closest-vector reduction: x = x0 + p with p integral and x0 in the cell.

    Boundary points keep whichever representative `descend` reaches first.
    """
    t0, t1, den = numerators(x)
    t0, t1 = descend(surface, t0, t1, den)
    x0 = Vec2(Fraction(t0, den), Fraction(t1, den))
    return x0, x - x0


def _quadrant_frames(surface: PrincipallyPolarizedSurface):
    """Per-quadrilateral data (a_i, b_i, m_i, n_i) for quadrants 1..3.

    Quadrilateral i is spanned by 0, a_i, m_i, b_i where a_i and b_i are the
    half relevant vectors on its two bounding rays; n_i is the midpoint of
    the chord joining the two hexagon vertices adjacent to m_i.
    """
    rb = lagrange_reduce(surface)
    u, v, w = rb.u, rb.v, rb.w
    m = voronoi_cell(surface).vertices
    half = Fraction(1, 2)
    a = (half * w, half * -v, half * u)
    b = (half * -v, half * u, half * -w)
    n = (
        half * (m[1] + m[5]),  # midpoint of m2, m6
        half * (m[0] + m[2]),  # midpoint of m1, m3
        half * (m[1] + m[3]),  # midpoint of m2, m4
    )
    return a, b, m, n


@per_surface
def subdivide(surface: PrincipallyPolarizedSurface) -> CellComplex:
    """The 18-cell subdivision of the hexagonal Voronoi cell.

    Each quadrilateral Q_i = (0, a_i, m_i, b_i) splits into the triangle
    sigma = (0, n_i, a_i), the quadrilateral tau = (n_i, a_i, m_i, b_i), and
    the triangle rho = (0, n_i, b_i); quadrants 4..6 are the antipodes of
    quadrants 1..3.
    """
    if classify(surface) is not SurfaceClass.IRREDUCIBLE:
        raise ProductTypeError("rectangular Voronoi cells are not subdivided")
    a, b, m, n = _quadrant_frames(surface)
    cells: list[Cell] = []
    for i in range(3):
        quad = i + 1
        sigma = (ZERO2, n[i], a[i])
        tau = (n[i], a[i], m[i], b[i])
        rho = (ZERO2, n[i], b[i])
        cells.append(Cell("sigma", quad, sigma))
        cells.append(Cell("tau", quad, tau))
        cells.append(Cell("rho", quad, rho))
    for i in range(9):
        src = cells[i]
        cells.append(
            Cell(src.kind, src.quadrilateral + 3, tuple(-p for p in src.vertices))
        )
    return CellComplex(cells=tuple(cells))
