"""The theta embedding into tropical P^3 and the Kummer quartic parallelepiped.

The ambient projective coordinates are ordered by the characteristic
numbering b0=(0,0), b1=(1,0), b2=(0,1), b3=(1,1); affine values use the
chart (x1,x2,x3) <-> (0 : x1 : x2 : x3), so

    psi(x) = (th[10](x) - th[00](x), th[01](x) - th[00](x), th[11](x) - th[00](x)).

`psi_step` takes these differences of `theta.theta_numerators`, the four
values at a point from one descent, on integer numerators; `psi_eval` is its
`Fraction` entry.  `affine_pieces` reads its linear parts off `theta_step`'s
minimizers, which the one-descent kernel does not return.

The quartic's eight vertices are the orbit of the theta-constant point
under the group generated by the double-transposition coordinate swaps and
the min-plus Cremona involution x -> -x.

Opposite faces are n.p = +-o with offsets p_uv/2, p_vw/2 and p_uw/2 for the
normals (1, 1, -1), (1, -1, -1) and (1, -1, 1), read off the surface's stored
conorms p_uv = -Q(u,v), p_vw = -Q(v,w) and p_uw = -Q(u,w) of the reduced basis
u, v and w = -u - v.  They are never 0 on a hexagonal cell, whose superbase
u, v, w is strictly obtuse, so the solid is centred at the origin and the
quartic is where the gauge max_f (n_f.p)/o_f is 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import (
    InternalInconsistencyError,
    NotAffineOnCellError,
    ProductTypeError,
)
from .exact import Value, Vec2, Vec3, fraction_decimal, is_unimodular, to_fraction
from .exact import form, lex_positive, mean, numerators, point  # integer layer
from .lattice import (
    Cell,
    PrincipallyPolarizedSurface,
    SurfaceClass,
    classify,
    per_surface,
    subdivide,
)
from .theta import (
    CHARACTERISTICS,
    ThetaCharacteristic,
    step_scale,
    theta_constants,
    theta_numerators,
    theta_step,
)

# The Klein four-group inside S4, as involutive index permutations.
V4 = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
)

VERTEX_LABELS = (
    "tau_0",
    "tau_1",
    "tau_2",
    "tau_3",
    "tau_tilde_0",
    "tau_tilde_1",
    "tau_tilde_2",
    "tau_tilde_3",
)


class FacePlane(Value):
    normal: tuple[int, int, int]
    offset: Fraction
    vertex_ids: tuple[str, str, str, str]
    source_cells: tuple[str, ...]

    def evaluate(self, p: Vec3) -> Fraction:
        n = self.normal
        return n[0] * p.x + n[1] * p.y + n[2] * p.z


class KummerQuartic(Value):
    vertices: tuple[Vec3, ...]  # ordered as VERTEX_LABELS
    faces: tuple[FacePlane, ...]
    theta_constants: tuple[Fraction, Fraction, Fraction]

    def vertex(self, label: str) -> Vec3:
        return self.vertices[VERTEX_LABELS.index(label)]


class AffinePiece(Value):
    cell: Cell
    linear_part: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    offset: Vec3
    unimodular: bool


class EquivalentPlus(Value):
    shift: Vec2


class EquivalentMinus(Value):
    shift: Vec2


class Distinct(Value):
    witness: ThetaCharacteristic


Verdict = EquivalentPlus | EquivalentMinus | Distinct


def psi_step(
    surface: PrincipallyPolarizedSurface, t0: int, t1: int, den: int
) -> tuple[int, int, int]:
    """psi(t/den)'s three numerators over `step_scale`, gram_den (2 den)^2:
    `theta.theta_numerators`' entries 10, 01 and 11 less its entry 00.

    Their one descent reduces t/den into the Voronoi cell, where psi is the
    kernel's closed form; differences of theta values do not see the period
    it removed, as the quasi-periodicity anomaly cancels.
    """
    n00, n10, n01, n11 = theta_numerators(surface, t0, t1, den)
    return n10 - n00, n01 - n00, n11 - n00


def psi_eval(surface: PrincipallyPolarizedSurface, x: Vec2) -> Vec3:
    """The chart triple of theta differences at x: `psi_step` in Fractions."""
    t0, t1, den = numerators(x)
    n10, n01, n11 = psi_step(surface, t0, t1, den)
    scale = step_scale(surface, den)
    return Vec3._of(Fraction(n10, scale), Fraction(n01, scale), Fraction(n11, scale))


def g_action(
    element: tuple[Sequence[int], bool], point: Sequence[Fraction]
) -> Vec3:
    """Apply (int coordinate swap, bool sign flip) to a projective 4-tuple.

    Returns the result in the normalized chart (first coordinate
    subtracted off).
    """
    perm, iota = element
    if any(type(i) is not int for i in perm) or sorted(perm) != [0, 1, 2, 3]:
        raise ValueError(f"not a coordinate permutation: {perm!r}")
    if type(iota) is not bool:
        raise ValueError(f"the sign flag must be a bool, got {iota!r}")
    coords = [to_fraction(c) for c in point]
    if len(coords) != 4:
        raise ValueError("expected a projective 4-tuple")
    moved = [coords[perm[i]] for i in range(4)]
    if iota:
        moved = [-c for c in moved]
    return Vec3(moved[1] - moved[0], moved[2] - moved[0], moved[3] - moved[0])


def _face_table(surface: PrincipallyPolarizedSurface) -> tuple[FacePlane, ...]:
    # The offsets are +-p/2 of the stored conorms.  Consumers read two facts off
    # this table.  Each face lists two opposite corners first, so its corners
    # 0, 2, 1, 3 are a cycle: as tau_tilde_j = -tau_j, the span check of
    # `_validate_quartic` puts tau_j opposite tau_tilde_j.  The source cells
    # partition the 18 cells of `subdivide`.
    o_uv, o_vw, o_uw = (Fraction(p, 2 * surface.gram_den) for p in surface.conorms)
    return (
        FacePlane(
            (1, 1, -1),
            o_uv,
            ("tau_0", "tau_3", "tau_tilde_1", "tau_tilde_2"),
            ("sigma1", "rho3", "sigma4", "rho6"),
        ),
        FacePlane(
            (1, 1, -1),
            -o_uv,
            ("tau_1", "tau_2", "tau_tilde_0", "tau_tilde_3"),
            ("tau2", "tau5"),
        ),
        FacePlane(
            (1, -1, -1),
            o_vw,
            ("tau_2", "tau_3", "tau_tilde_0", "tau_tilde_1"),
            ("tau1", "tau4"),
        ),
        FacePlane(
            (1, -1, -1),
            -o_vw,
            ("tau_0", "tau_1", "tau_tilde_2", "tau_tilde_3"),
            ("rho2", "sigma3", "rho5", "sigma6"),
        ),
        FacePlane(
            (1, -1, 1),
            o_uw,
            ("tau_0", "tau_2", "tau_tilde_1", "tau_tilde_3"),
            ("rho1", "sigma2", "rho4", "sigma5"),
        ),
        FacePlane(
            (1, -1, 1),
            -o_uw,
            ("tau_1", "tau_3", "tau_tilde_0", "tau_tilde_2"),
            ("tau3", "tau6"),
        ),
    )


def _validate_quartic(
    vertices: tuple[Vec3, ...], faces: tuple[FacePlane, ...]
) -> None:
    if len(set(vertices)) != 8:
        raise InternalInconsistencyError("vertex orbit is degenerate")
    vmap = dict(zip(VERTEX_LABELS, vertices))
    # The gauge n.v / o of `contains_step`: defined, at most 1, and 1 on the face.
    for face in faces:
        if face.offset == 0:
            raise InternalInconsistencyError(f"face {face.normal}=0 meets the centre")
        for vid, v in vmap.items():
            gauge = face.evaluate(v) / face.offset
            if gauge > 1 or (gauge != 1 and vid in face.vertex_ids):
                raise InternalInconsistencyError(
                    f"vertex {vid}: gauge {gauge} on face {face.normal}={face.offset}"
                )
    # Parallelepiped: base tau_tilde_0 with edges to tau_3, tau_2, tau_1.
    base = vmap["tau_tilde_0"]
    spanned = {base}
    for i in (3, 2, 1):
        spanned |= {c + vmap[f"tau_{i}"] - base for c in spanned}
    if spanned != set(vertices):
        raise InternalInconsistencyError("vertices do not span a parallelepiped")


@per_surface
def build_quartic(surface: PrincipallyPolarizedSurface) -> KummerQuartic:
    """Vertices as the full group orbit of the theta-constant point."""
    if classify(surface) is not SurfaceClass.IRREDUCIBLE:
        raise ProductTypeError("product-type surfaces have no Kummer quartic")
    th = theta_constants(surface)
    p0 = (Fraction(0), th[0], th[1], th[2])
    orbit = [g_action((perm, False), p0) for perm in V4]
    orbit += [g_action((perm, True), p0) for perm in V4]
    vertices = tuple(orbit)
    faces = _face_table(surface)
    _validate_quartic(vertices, faces)
    return KummerQuartic(vertices=vertices, faces=faces, theta_constants=th)


def quartic_off(quartic: KummerQuartic, digits: int) -> str:
    """The quartic as an OFF mesh, coordinates rounded to `digits` decimals.

    Each face lists its vertex indices in cyclic order, as OFF requires: its
    table corners 0, 2, 1, 3, since corners 0 and 1 are opposite.
    """
    lines = ["OFF", "8 6 12"]
    for v in quartic.vertices:
        lines.append(" ".join(fraction_decimal(c, digits) for c in v.as_tuple()))
    for face in quartic.faces:
        ids = [VERTEX_LABELS.index(vid) for vid in face.vertex_ids]
        lines.append("4 " + " ".join(str(ids[k]) for k in (0, 2, 1, 3)))
    return "\n".join(lines) + "\n"


def contains_step(quartic: KummerQuartic, x: int, y: int, z: int, d: int) -> bool:
    """Whether (x, y, z) / d lies on the union of the six closed faces, exact.

    As the offsets o = p_uv/2, p_vw/2, p_uw/2 of opposite faces n.p = +-o are
    never 0, the solid is |n.p| <= |o| and its surface is where the gauge
    max_f (n_f.p)/o_f equals 1.  With o = on/od, a face's gauge is the ratio
    of integers (n.(x, y, z)) od / (d on), compared with 1 exactly, so any
    nonzero common denominator d gives the same answer.
    """
    on_face = False
    for face in quartic.faces:
        (n0, n1, n2), (on, od) = face.normal, face.offset.as_integer_ratio()
        if on == 0:  # only on a hand-built quartic
            raise ZeroDivisionError(f"face {face.normal} has offset 0")
        num, scale = (n0 * x + n1 * y + n2 * z) * od, d * on
        if (num - scale) * scale > 0:  # the gauge num / scale exceeds 1
            return False
        on_face = on_face or num == scale
    return on_face


def injectivity_check(
    surface: PrincipallyPolarizedSurface, y: Vec2, yp: Vec2
) -> Verdict:
    """Decide yp = +-y modulo Z^2 and cross-check against the embedding.

    The verdict is read off the `numerators` over each point's least common
    denominator.  A coordinate's denominator does not change under -+ or a
    Z^2 shift, so yp -+ y is integral only when the two denominators agree,
    and then exactly when that denominator divides the numerators'
    differences (sums).  Plus wins when both hold, at 2-torsion points.  The
    verdict and the equality of psi's three theta differences are computed
    independently; a mismatch between the two would falsify the injectivity
    criterion and raises InternalInconsistencyError.  The images are compared
    as `psi_step` numerators, n / (gram_den (2 dy)^2) = n' / (gram_den (2 dyp)^2)
    exactly when n dyp^2 = n' dy^2.
    """
    if classify(surface) is not SurfaceClass.IRREDUCIBLE:
        raise ProductTypeError("the injectivity criterion needs a hexagonal cell")
    t0, t1, dy = numerators(y)
    s0, s1, dyp = numerators(yp)
    image_y, image_yp = psi_step(surface, t0, t1, dy), psi_step(surface, s0, s1, dyp)
    same = [n * dyp * dyp == m * dy * dy for n, m in zip(image_y, image_yp)]
    if dy == dyp:
        for verdict, sign in ((EquivalentPlus, -1), (EquivalentMinus, 1)):
            p0, p1 = s0 + sign * t0, s1 + sign * t1  # the numerators of yp -+ y
            if p0 % dy == 0 and p1 % dy == 0:
                if not all(same):
                    raise InternalInconsistencyError(
                        f"equivalent points {y.as_tuple()}, {yp.as_tuple()} "
                        "have distinct images"
                    )
                return verdict._of(point(p0, p1, dy))
    for char, equal in zip(CHARACTERISTICS[1:], same):
        if not equal:
            return Distinct(char)
    image = tuple(Fraction(n, step_scale(surface, dy)) for n in image_y)
    raise InternalInconsistencyError(
        f"{y.as_tuple()} and {yp.as_tuple()} are inequivalent but share "
        f"the image {image}"
    )


@per_surface
def affine_pieces(
    surface: PrincipallyPolarizedSurface,
) -> tuple[AffinePiece, ...]:
    """Read the embedding off the theta minimizers on every subdivision cell.

    At the cell centroid, `theta_step` gives for each characteristic c != 00
    a minimizer a_c, and theta_c(x) = Q(x + s_c/2) - Q(x) with s_c = 2 a_c + c.
    theta_00 vanishes on the cell, as `psi_step` relies on, so on the cell

        psi_c(x) = Q(x + s_c/2) - Q(x) = s_c . G x + h(s_c) / (4 gram_den),

    where h(s) = s^T H s.  The linear part in dual coordinates G x is the
    integer row s_c.  Each piece is checked against `psi_step` at the
    centroid, at (centroid + v)/2 for the first three vertices v, and at
    every vertex.  At x = t/den the piece is
    (4 s_c^T H t + den h(s_c)) / (4 gram_den den), and
    `psi_step`'s numerator over gram_den (2 den)^2 must be den times its
    numerator: integers, with no `Vec2` or `Fraction` per point.  The
    centroid and the midpoints are one numerator mean, `exact.mean`, of the
    vertices' `numerators` triples.  `psi_step` runs once per distinct
    point: the cells share their vertices, so the 132 checks read 91
    evaluations, kept for this call only.
    """
    cells = subdivide(surface)  # raises ProductTypeError on rectangles
    h, den4 = surface.int_gram, step_scale(surface, 1)
    images = {}  # numerators(p) -> psi_step at p
    pieces = []
    for cell in cells:
        ts = [numerators(p) for p in cell.vertices]
        mid = mean(ts)
        rows = []
        for char, (cx, cy) in zip(CHARACTERISTICS[1:], surface.char_vectors[1:]):
            a0, a1 = theta_step(surface, char, *mid)[1]
            rows.append((2 * a0 + cx, 2 * a1 + cy))
        gaps = [form(h, s, s) for s in rows]
        for key in (mid, *[mean((mid, t)) for t in ts[:3]], *ts):
            t0, t1, den = key
            if key not in images:
                images[key] = psi_step(surface, t0, t1, den)
            for r, gap, num in zip(rows, gaps, images[key]):
                if num != den * (4 * form(h, r, (t0, t1)) + den * gap):
                    raise NotAffineOnCellError(f"cell {cell.label} is not affine")
        pieces.append(
            AffinePiece(
                cell=cell,
                linear_part=tuple(rows),
                offset=Vec3(*(Fraction(gap, den4) for gap in gaps)),
                unimodular=is_unimodular(rows),
            )
        )
    return tuple(pieces)


def _primitive_normal(rows: Sequence[tuple[int, int]]) -> tuple[int, int, int]:
    """Integer normal to the column space of a rank-2 3x2 integer matrix."""
    (a1, b1), (a2, b2), (a3, b3) = rows
    n = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    g = math.gcd(*n)
    if g == 0:
        raise InternalInconsistencyError("linear part has rank < 2")
    return lex_positive(tuple(c // g for c in n))


def coplanarity_report(
    surface: PrincipallyPolarizedSurface,
) -> dict[FacePlane, tuple[str, ...]]:
    """Check the 18 affine-piece images on the faces; map face -> sorted cells.

    The piece of each cell in a face's `source_cells` must have the face's
    normal, with its offset on the face: a rank-2 piece lies in one plane.
    A cell named twice or on no face raises too.
    """
    quartic = build_quartic(surface)
    pieces = {piece.cell.label: piece for piece in affine_pieces(surface)}
    for face in quartic.faces:
        for label in face.source_cells:
            piece = pieces.pop(label, None)
            if (
                piece is None
                or _primitive_normal(piece.linear_part) != face.normal
                or face.evaluate(piece.offset) != face.offset
            ):
                raise InternalInconsistencyError(
                    f"cell {label}: no affine piece on face {face.normal}={face.offset}"
                )
    if pieces:
        raise InternalInconsistencyError(f"cells {sorted(pieces)} are on no face")
    return {face: tuple(sorted(face.source_cells)) for face in quartic.faces}


def two_torsion_images(
    surface: PrincipallyPolarizedSurface,
) -> tuple[tuple[Vec2, Vec3, bool], ...]:
    """The embedding at the four half-period representatives.

    Each entry is (representative, image, image-is-a-parallelepiped-vertex).
    """
    if classify(surface) is not SurfaceClass.IRREDUCIBLE:
        raise ProductTypeError("two-torsion report needs a hexagonal cell")
    vertex_set = set(build_quartic(surface).vertices)
    out = []
    for c in surface.char_vectors:  # 0, u/2, v/2, (u + v)/2
        rep = point(*c, 2)
        image = psi_eval(surface, rep)
        out.append((rep, image, image in vertex_set))
    return tuple(out)


def vertex_sign_diagnostics(surface: PrincipallyPolarizedSurface) -> dict:
    """Cross-check the sign of the third coordinate of the swap-(0 3) vertex.

    The closed-form vertex display admits two candidate readings for tau_3,
    differing in the sign of the last coordinate; only one can satisfy the
    three face planes through tau_3.  The orbit computation decides.
    """
    quartic = build_quartic(surface)
    t10, t01, t11 = quartic.theta_constants
    orbit_vertex = quartic.vertex("tau_3")
    candidates = {
        "minus": Vec3(t01 - t11, t10 - t11, -t11),
        "plus": Vec3(t01 - t11, t10 - t11, t11),
    }
    faces_through = [f for f in quartic.faces if "tau_3" in f.vertex_ids]
    consistency = {
        name: all(f.evaluate(p) == f.offset for f in faces_through)
        for name, p in candidates.items()
    }
    consistent = [name for name, ok in consistency.items() if ok]
    if len(consistent) != 1 or candidates[consistent[0]] != orbit_vertex:
        raise InternalInconsistencyError(
            "orbit vertex does not single out one closed-form reading"
        )
    return {
        "orbit_vertex": orbit_vertex,
        "consistent_reading": consistent[0],
        "plane_consistency": consistency,
    }
