"""Seeded verification suite behind the command-line ``verify`` command.

Every check draws its samples from (seed, check-name, index), so reports
are deterministic for a fixed configuration.  Wall-clock timings are kept
out of the report payload (they go to stderr) to keep two runs with the
same seed byte-identical.  A check that raises is recorded as a failure
whose counterexample names the exception, and the remaining checks still
run; its traceback is kept on the result, outside the payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import kummer, nonarch, theta
from .errors import InternalInconsistencyError, RadiusTooSmallError
from .exact import Mat2, Vec2, is_unimodular
from .lattice import (
    PrincipallyPolarizedSurface,
    SurfaceClass,
    classify,
    in_voronoi_cell,
    lagrange_reduce,
    make_surface,
    reduce_point,
    relevant_vectors,
    subdivide,
    voronoi_cell,
)
from .sampling import (
    random_integer_vector,
    random_irreducible_surface,
    random_point,
    random_surface,
    random_unimodular,
    rng_for,
)
from .theta import CHARACTERISTICS, theta_eval, theta_eval_bruteforce

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class CheckResult:
    name: str
    status: str
    cases: int
    counterexample: Optional[dict] = None
    detail: Optional[dict] = None
    elapsed: float = 0.0
    traceback: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "cases": self.cases,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    gram: Mat2
    seed: int
    samples: int
    surface_class: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "gram": [[str(e) for e in row] for row in self.gram.rows()],
                "seed": self.seed,
                "samples": self.samples,
            },
            "surface_class": self.surface_class,
            "checks": [c.to_json_dict() for c in self.checks],
            "passed": self.passed,
        }


@dataclass
class _Ctx:
    surface: PrincipallyPolarizedSurface
    seed: int
    samples: int

    def rng(self, *index):
        return rng_for(self.seed, *index)

    @property
    def n_matrices(self) -> int:
        return max(2, min(20, self.samples // 10))


def _vec(v) -> list[str]:
    return [str(c) for c in v.as_tuple()]


def _check_gram_symmetry(ctx: _Ctx):
    s = ctx.surface
    for k in range(ctx.samples):
        rng = ctx.rng("gram-symmetry", k)
        x, y = random_point(rng, 5), random_point(rng, 5)
        if s.q(x, y) != s.q(y, x):
            return FAIL, k + 1, {"x": _vec(x), "y": _vec(y)}, None
    return PASS, ctx.samples, None, None


def _check_gram_positivity(ctx: _Ctx):
    s = ctx.surface
    for k in range(ctx.samples):
        rng = ctx.rng("gram-positivity", k)
        x = random_point(rng, 5)
        if x == Vec2(0, 0):
            continue
        if s.norm(x) <= 0:
            return FAIL, k + 1, {"x": _vec(x), "q": str(s.norm(x))}, None
    return PASS, ctx.samples, None, None


def _check_unimodular_invariance(ctx: _Ctx):
    for k in range(ctx.samples):
        rng = ctx.rng("unimodular-invariance", k)
        m = rng.choice((2, 3))
        rows = [
            (rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(m)
        ]
        base = is_unimodular(rows)
        perm = list(range(m))
        rng.shuffle(perm)
        permuted = [rows[i] for i in perm]
        u = random_unimodular(rng)
        transformed = []
        for r in rows:
            rv = u.mul_vec(Vec2(r[0], r[1]))  # right multiplication by U
            transformed.append((int(rv.x), int(rv.y)))
        if is_unimodular(permuted) != base or is_unimodular(transformed) != base:
            return FAIL, k + 1, {"rows": rows, "unimodular": base}, None
    return PASS, ctx.samples, None, None


def _check_dual_basis_integrality(ctx: _Ctx):
    s = ctx.surface
    basis = (Vec2(1, 0), Vec2(0, 1))
    nb = s.n_basis
    duals = (Vec2(nb.a, nb.c), Vec2(nb.b, nb.d))  # columns of G^{-1}
    for i, f in enumerate(basis):
        for j, n in enumerate(duals):
            val = s.q(f, n)
            if val != (1 if i == j else 0):
                return FAIL, 4, {"i": i, "j": j, "q": str(val)}, None
    return PASS, 4, None, None


def _check_reduction_invariants(ctx: _Ctx):
    rb = lagrange_reduce(ctx.surface)
    quu, qvv, quv = rb.norms
    det = rb.u.x * rb.v.y - rb.u.y * rb.v.x
    ok = (
        abs(det) == 1
        and rb.u.is_integral()
        and rb.v.is_integral()
        and quu <= qvv
        and quv <= 0
        and 2 * abs(quv) <= quu
    )
    detail = {
        "u": _vec(rb.u),
        "v": _vec(rb.v),
        "norms": [str(q) for q in rb.norms],
    }
    return (PASS if ok else FAIL), 1, (None if ok else detail), detail


def _check_classify_congruence(ctx: _Ctx):
    base_class = classify(ctx.surface)
    g = ctx.surface.gram
    n = max(10, ctx.n_matrices)
    for k in range(n):
        rng = ctx.rng("classify-congruence", k)
        u = random_unimodular(rng)
        conj = u.transpose().mul_mat(g).mul_mat(u)
        if classify(make_surface(conj)) is not base_class:
            rows = [[str(e) for e in row] for row in u.rows()]
            return FAIL, k + 1, {"U": rows}, None
    return PASS, n, None, None


def _voronoi_geometry_ok(surface: PrincipallyPolarizedSurface) -> Optional[str]:
    cell = voronoi_cell(surface)
    rel = relevant_vectors(surface)
    verts = cell.vertices
    n = len(verts)
    for m in verts:
        tight = [r for r in rel if 2 * surface.q(m, r) == surface.norm(r)]
        if len(tight) != 2:
            return f"vertex {m.as_tuple()} supports {len(tight)} facets"
        if any(2 * surface.q(m, r) > surface.norm(r) for r in rel):
            return f"vertex {m.as_tuple()} escapes the cell"
    half = n // 2
    for i in range(half):
        if verts[i] + verts[i + half] != Vec2(0, 0):
            return f"vertices {i + 1} and {i + 1 + half} are not antipodal"
    # Facet i joins vertex i-1 to vertex i; their sum is the relevant vector.
    if n == 6:
        rb = lagrange_reduce(surface)
        cycle = (rb.w, -rb.v, rb.u, -rb.w, rb.v, -rb.u)
        for i in range(6):
            if verts[i - 1] + verts[i] != cycle[i]:
                return f"facet {i} midpoint identity fails"
        for a, b in ((rb.u, rb.v), (rb.u, rb.w), (rb.v, rb.w)):
            if abs(a.x * b.y - a.y * b.x) != 1:
                return f"{a.as_tuple()}, {b.as_tuple()} is not a lattice basis"
    return None


def _check_voronoi_geometry(ctx: _Ctx):
    problem = _voronoi_geometry_ok(ctx.surface)
    if problem:
        return FAIL, 1, {"surface": "configured", "problem": problem}, None
    n = ctx.n_matrices
    for k in range(n):
        rng = ctx.rng("voronoi-geometry", k)
        surface = random_surface(rng)
        problem = _voronoi_geometry_ok(surface)
        if problem:
            rows = [[str(e) for e in row] for row in surface.gram.rows()]
            return FAIL, k + 2, {"gram": rows, "problem": problem}, None
    return PASS, n + 1, None, None


def _check_cvp_oracle(ctx: _Ctx):
    s = ctx.surface
    n = ctx.samples
    for k in range(n):
        rng = ctx.rng("cvp-oracle", k)
        x = random_point(rng, 5)
        x0, p = reduce_point(s, x)
        if x0 + p != x or not p.is_integral():
            return FAIL, k + 1, {"x": _vec(x), "problem": "bad decomposition"}, None
        expected = _oracle_theta(s, CHARACTERISTICS[0], x) + s.norm(x)
        if s.norm(x0) != expected:
            return (
                FAIL,
                k + 1,
                {
                    "x": _vec(x),
                    "descent": str(s.norm(x0)),
                    "oracle": str(expected),
                },
                None,
            )
    return PASS, n, None, None


def _check_reduce_idempotence(ctx: _Ctx):
    s = ctx.surface
    for k in range(ctx.samples):
        rng = ctx.rng("reduce-idempotence", k)
        x0, _ = reduce_point(s, random_point(rng, 5))
        x1, p = reduce_point(s, x0)
        if p != Vec2(0, 0) or s.norm(x1) != s.norm(x0):
            return FAIL, k + 1, {"x0": _vec(x0), "x1": _vec(x1)}, None
        if not in_voronoi_cell(s, x0):
            return FAIL, k + 1, {"x0": _vec(x0), "problem": "not in cell"}, None
    return PASS, ctx.samples, None, None


def _check_theta_zero_on_cell(ctx: _Ctx):
    s = ctx.surface
    char00 = CHARACTERISTICS[0]
    for k in range(ctx.samples):
        rng = ctx.rng("theta-zero-on-cell", k)
        x0, _ = reduce_point(s, random_point(rng, 5))
        val = theta_eval(s, char00, x0).value
        if val != 0:
            return FAIL, k + 1, {"x0": _vec(x0), "value": str(val)}, None
    return PASS, ctx.samples, None, None


def _check_theta_evenness(ctx: _Ctx):
    s = ctx.surface
    for k in range(ctx.samples):
        rng = ctx.rng("theta-evenness", k)
        x = random_point(rng, 4)
        for char in CHARACTERISTICS:
            if theta_eval(s, char, x).value != theta_eval(s, char, -x).value:
                return FAIL, k + 1, {"x": _vec(x), "char": str(char)}, None
    return PASS, ctx.samples, None, None


def _check_theta_quasi_periodicity(ctx: _Ctx):
    s = ctx.surface
    for k in range(ctx.samples):
        rng = ctx.rng("theta-quasi-periodicity", k)
        x = random_point(rng, 3)
        up = random_integer_vector(rng, 3)
        for char in CHARACTERISTICS:
            lhs = theta_eval(s, char, x + up).value
            rhs = theta_eval(s, char, x).value - 2 * s.q(x, up) - s.norm(up)
            if lhs != rhs:
                return (
                    FAIL,
                    k + 1,
                    {"x": _vec(x), "shift": _vec(up), "char": str(char)},
                    None,
                )
    return PASS, ctx.samples, None, None


def _check_theta_translation(ctx: _Ctx):
    s = ctx.surface
    rb = lagrange_reduce(s)
    char00 = CHARACTERISTICS[0]
    triples = (
        (CHARACTERISTICS[1], rb.u),
        (CHARACTERISTICS[2], rb.v),
        (CHARACTERISTICS[3], rb.w),
    )
    half = Fraction(1, 2)
    for k in range(ctx.samples):
        rng = ctx.rng("theta-translation", k)
        x = random_point(rng, 3)
        for char, vec in triples:
            lhs = theta_eval(s, char, x).value
            quarter = s.norm(vec) / 4
            plus = theta_eval(s, char00, x + half * vec).value + s.q(x, vec) + quarter
            minus = theta_eval(s, char00, x - half * vec).value - s.q(x, vec) + quarter
            if lhs != plus or lhs != minus:
                return FAIL, k + 1, {"x": _vec(x), "char": str(char)}, None
    return PASS, ctx.samples, None, None


def _check_theta_concavity(ctx: _Ctx):
    s = ctx.surface
    half = Fraction(1, 2)
    for k in range(ctx.samples):
        rng = ctx.rng("theta-concavity", k)
        x, y = random_point(rng, 3), random_point(rng, 3)
        mid = half * (x + y)
        for char in CHARACTERISTICS:
            lhs = theta_eval(s, char, mid).value
            rhs = (
                theta_eval(s, char, x).value + theta_eval(s, char, y).value
            ) / 2
            if lhs < rhs:
                return FAIL, k + 1, {"x": _vec(x), "y": _vec(y)}, None
    return PASS, ctx.samples, None, None


def _oracle_theta(surface, char, x) -> Fraction:
    """Theta by the certified box of `theta_eval_bruteforce`, not the descent."""
    radius = 1
    while True:
        try:
            return theta_eval_bruteforce(surface, char, x, radius).value
        except RadiusTooSmallError:
            radius += 2


def _check_theta_oracle(ctx: _Ctx):
    surfaces = [ctx.surface]
    for k in range(ctx.n_matrices):
        surfaces.append(random_surface(ctx.rng("theta-oracle-gram", k)))
    cases = 0
    per_surface = max(1, ctx.samples // len(surfaces))
    for si, surface in enumerate(surfaces):
        for k in range(per_surface):
            rng = ctx.rng("theta-oracle", si, k)
            x = random_point(rng, 2)
            char = CHARACTERISTICS[rng.randrange(4)]
            cases += 1
            fast = theta_eval(surface, char, x).value
            slow = _oracle_theta(surface, char, x)
            if fast != slow:
                rows = [[str(e) for e in row] for row in surface.gram.rows()]
                return (
                    FAIL,
                    cases,
                    {
                        "gram": rows,
                        "x": _vec(x),
                        "char": str(char),
                        "fast": str(fast),
                        "oracle": str(slow),
                    },
                    None,
                )
    return PASS, cases, None, None


def _check_theta_minimizer(ctx: _Ctx):
    s = ctx.surface
    half = Fraction(1, 2)
    for k in range(ctx.samples):
        rng = ctx.rng("theta-minimizer", k)
        x = random_point(rng, 4)
        char = CHARACTERISTICS[rng.randrange(4)]
        tv = theta_eval(s, char, x)
        shift = x + half * theta.char_vector(s, char)
        attained = s.norm(tv.minimizer + shift) - s.norm(x)
        if attained != tv.value or not tv.minimizer.is_integral():
            return FAIL, k + 1, {"x": _vec(x), "char": str(char)}, None
    return PASS, ctx.samples, None, None


def _check_descent_cocycle(ctx: _Ctx):
    datum = nonarch.descent_datum(ctx.surface)
    for k in range(ctx.samples):
        rng = ctx.rng("descent-cocycle", k)
        u1 = random_integer_vector(rng, 5)
        u2 = random_integer_vector(rng, 5)
        if datum.cocycle_defect(u1, u2) != 0:
            return FAIL, k + 1, {"u1": _vec(u1), "u2": _vec(u2)}, None
        if datum.gamma(u1) != datum.gamma(-u1):
            return FAIL, k + 1, {"u1": _vec(u1), "problem": "gamma not even"}, None
        if datum.gamma(u1) != ctx.surface.norm(u1):
            return FAIL, k + 1, {"u1": _vec(u1), "problem": "gamma != Q(u,u)"}, None
    return PASS, ctx.samples, None, None


def _check_series_lift(ctx: _Ctx):
    s = ctx.surface
    bound = Fraction(2)
    series = {
        str(char): nonarch.build_series(s, char, nonarch.safe_cutoff(s, char, bound))
        for char in CHARACTERISTICS
    }
    for k in range(ctx.samples):
        rng = ctx.rng("series-lift", k)
        v = random_point(rng, 2)
        for char in CHARACTERISTICS:
            got = nonarch.tropicalize_series(series[str(char)], v)
            want = theta_eval(s, char, v).value
            if got != want:
                return (
                    FAIL,
                    k + 1,
                    {
                        "v": _vec(v),
                        "char": str(char),
                        "series": str(got),
                        "theta": str(want),
                    },
                    None,
                )
    return PASS, ctx.samples, None, None


def _check_series_quasi_periodicity(ctx: _Ctx):
    s = ctx.surface
    bound = Fraction(5)
    series = {
        str(char): nonarch.build_series(s, char, nonarch.safe_cutoff(s, char, bound))
        for char in CHARACTERISTICS
    }
    n = max(1, ctx.samples // 4)
    for k in range(n):
        rng = ctx.rng("series-quasi-periodicity", k)
        v = random_point(rng, 2)
        up = random_integer_vector(rng, 2)
        for char in CHARACTERISTICS:
            lhs = nonarch.tropicalize_series(series[str(char)], v + up)
            rhs = (
                nonarch.tropicalize_series(series[str(char)], v)
                - 2 * s.q(v, up)
                - s.norm(up)
            )
            if lhs != rhs:
                return FAIL, k + 1, {"v": _vec(v), "shift": _vec(up)}, None
    return PASS, n, None, None


def _check_cutoff_stability(ctx: _Ctx):
    s = ctx.surface
    bound = Fraction(2)
    ladders = {}
    for char in CHARACTERISTICS:
        safe = nonarch.safe_cutoff(s, char, bound)
        ladders[str(char)] = [
            nonarch.build_series(s, char, r)
            for r in (max(0, safe - 1), safe, 2 * safe)
        ]
    n = max(1, ctx.samples // 4)
    for k in range(n):
        rng = ctx.rng("cutoff-stability", k)
        v = random_point(rng, 2)
        for char in CHARACTERISTICS:
            values = [
                nonarch.tropicalize_series(series, v)
                for series in ladders[str(char)]
            ]
            if values[1] > values[0] or values[2] > values[1]:
                return FAIL, k + 1, {"v": _vec(v), "char": str(char)}, None
            if values[2] != values[1]:
                return (
                    FAIL,
                    k + 1,
                    {"v": _vec(v), "char": str(char), "problem": "not stabilized"},
                    None,
                )
    return PASS, n, None, None


def _check_quartic_structure(ctx: _Ctx):
    if classify(ctx.surface) is not SurfaceClass.IRREDUCIBLE:
        return SKIP, 0, None, None
    quartic = kummer.build_quartic(ctx.surface)  # construction re-validates
    if set(quartic.vertices) != {-v for v in quartic.vertices}:
        return FAIL, 1, {"problem": "vertex set not antipodally stable"}, None
    diagnostics = kummer.vertex_sign_diagnostics(ctx.surface)
    torsion = kummer.two_torsion_images(ctx.surface)
    detail = {
        "display_reading": diagnostics["consistent_reading"],
        "two_torsion_on_vertices": [flag for _, _, flag in torsion],
        "theta_constants": [str(t) for t in quartic.theta_constants],
    }
    if diagnostics["consistent_reading"] != "minus":
        return FAIL, 1, detail, detail
    return PASS, 1, None, detail


def _check_quartic_coverage(ctx: _Ctx):
    if classify(ctx.surface) is not SurfaceClass.IRREDUCIBLE:
        return SKIP, 0, None, None
    quartic = kummer.build_quartic(ctx.surface)
    for k in range(ctx.samples):
        rng = ctx.rng("quartic-coverage", k)
        x = random_point(rng, 4)
        image = kummer.psi_eval(ctx.surface, x)
        if not kummer.contains(quartic, image):
            return FAIL, k + 1, {"x": _vec(x), "psi": _vec(image)}, None
    return PASS, ctx.samples, None, None


def _check_psi_injectivity(ctx: _Ctx):
    if classify(ctx.surface) is not SurfaceClass.IRREDUCIBLE:
        return SKIP, 0, None, None
    s = ctx.surface
    for k in range(ctx.samples):
        rng = ctx.rng("psi-injectivity", k)
        y = random_point(rng, 3)
        mode = rng.randrange(3)
        if mode == 0:
            yp = y + random_integer_vector(rng, 3)
        elif mode == 1:
            yp = -y + random_integer_vector(rng, 3)
        else:
            yp = random_point(rng, 3)
        try:
            verdict = kummer.injectivity_check(s, y, yp)
        except InternalInconsistencyError as exc:
            return FAIL, k + 1, {"y": _vec(y), "yp": _vec(yp), "error": str(exc)}, None
        same_image = kummer.psi_eval(s, y) == kummer.psi_eval(s, yp)
        equivalent = isinstance(
            verdict, (kummer.EquivalentPlus, kummer.EquivalentMinus)
        )
        if same_image != equivalent:
            return FAIL, k + 1, {"y": _vec(y), "yp": _vec(yp)}, None
    return PASS, ctx.samples, None, None


def _check_psi_product_collapse(ctx: _Ctx):
    if classify(ctx.surface) is not SurfaceClass.PRODUCT_TYPE:
        return SKIP, 0, None, None
    s = ctx.surface
    rb = lagrange_reduce(s)
    for k in range(ctx.samples):
        rng = ctx.rng("psi-product-collapse", k)
        # Mirror across the first reduced axis: x1 u + x2 v -> x1 u - x2 v.
        c1, c2 = random_point(rng, 3).as_tuple()
        x = c1 * rb.u + c2 * rb.v
        mirrored = c1 * rb.u - c2 * rb.v
        if kummer.psi_eval(s, x) != kummer.psi_eval(s, mirrored):
            return FAIL, k + 1, {"x": _vec(x)}, None
    return PASS, ctx.samples, None, None


def _check_affine_unimodularity(ctx: _Ctx):
    if classify(ctx.surface) is not SurfaceClass.IRREDUCIBLE:
        return SKIP, 0, None, None
    surfaces = [ctx.surface]
    n_extra = max(2, ctx.n_matrices // 2)
    for k in range(n_extra):
        surfaces.append(
            random_irreducible_surface(ctx.rng("affine-unimodularity-gram", k))
        )
    cases = 0
    for surface in surfaces:
        pieces = kummer.affine_pieces(surface)
        cases += len(pieces)
        bad = [p for p in pieces if not p.unimodular]
        if len(pieces) != 18 or bad:
            rows = [[str(e) for e in row] for row in surface.gram.rows()]
            return (
                FAIL,
                cases,
                {"gram": rows, "bad_cells": [p.cell.label for p in bad]},
                None,
            )
        for piece in pieces:
            antipode = next(
                q
                for q in pieces
                if q.cell.kind == piece.cell.kind
                and q.cell.quadrilateral == ((piece.cell.quadrilateral + 2) % 6) + 1
            )
            negated = tuple((-r[0], -r[1]) for r in piece.linear_part)
            if antipode.linear_part != negated:
                return FAIL, cases, {"cell": piece.cell.label}, None
    return PASS, cases, None, None


def _check_coplanarity_table(ctx: _Ctx):
    if classify(ctx.surface) is not SurfaceClass.IRREDUCIBLE:
        return SKIP, 0, None, None
    report = kummer.coplanarity_report(ctx.surface)  # self-validating
    detail = {
        f"{face.normal}={face.offset}": list(cells)
        for face, cells in report.items()
    }
    return PASS, len(report), None, detail


def _check_subdivision_geometry(ctx: _Ctx):
    if classify(ctx.surface) is not SurfaceClass.IRREDUCIBLE:
        return SKIP, 0, None, None
    s = ctx.surface
    complex_ = subdivide(s)
    total = sum(cell.area() for cell in complex_.cells)
    if total != 1:
        return FAIL, 1, {"total_area": str(total)}, None
    for cell in complex_.cells:
        for p in cell.vertices:
            if not in_voronoi_cell(s, p):
                return FAIL, 1, {"cell": cell.label, "vertex": _vec(p)}, None
    rb = lagrange_reduce(s)
    half = Fraction(1, 2)
    shifts = (half * rb.v, half * -rb.w)
    for cell in complex_.cells:
        if cell.quadrilateral != 1:
            continue
        for shift in shifts:
            for p in cell.vertices:
                if not in_voronoi_cell(s, p + shift):
                    return (
                        FAIL,
                        1,
                        {"cell": cell.label, "vertex": _vec(p), "shift": _vec(shift)},
                        None,
                    )
    return PASS, len(complex_.cells), None, None


_CHECKS: tuple[tuple[str, Callable[[_Ctx], tuple]], ...] = (
    ("gram-symmetry", _check_gram_symmetry),
    ("gram-positivity", _check_gram_positivity),
    ("unimodular-invariance", _check_unimodular_invariance),
    ("dual-basis-integrality", _check_dual_basis_integrality),
    ("reduction-invariants", _check_reduction_invariants),
    ("classify-congruence-invariance", _check_classify_congruence),
    ("voronoi-geometry", _check_voronoi_geometry),
    ("cvp-descent-oracle", _check_cvp_oracle),
    ("reduce-idempotence", _check_reduce_idempotence),
    ("theta-zero-on-cell", _check_theta_zero_on_cell),
    ("theta-evenness", _check_theta_evenness),
    ("theta-quasi-periodicity", _check_theta_quasi_periodicity),
    ("theta-translation-identities", _check_theta_translation),
    ("theta-concavity", _check_theta_concavity),
    ("theta-minimizer-attained", _check_theta_minimizer),
    ("theta-bruteforce-oracle", _check_theta_oracle),
    ("descent-datum-cocycle", _check_descent_cocycle),
    ("series-lift-consistency", _check_series_lift),
    ("series-quasi-periodicity", _check_series_quasi_periodicity),
    ("series-cutoff-stability", _check_cutoff_stability),
    ("quartic-structure", _check_quartic_structure),
    ("quartic-coverage", _check_quartic_coverage),
    ("psi-injectivity-mod-sign", _check_psi_injectivity),
    ("psi-product-collapse", _check_psi_product_collapse),
    ("affine-unimodularity", _check_affine_unimodularity),
    ("coplanarity-table", _check_coplanarity_table),
    ("subdivision-geometry", _check_subdivision_geometry),
)


def run_verification(
    surface: PrincipallyPolarizedSurface,
    seed: int = 0,
    samples: int = 200,
    progress=None,
) -> VerificationReport:
    ctx = _Ctx(surface=surface, seed=seed, samples=samples)
    report = VerificationReport(
        gram=surface.gram,
        seed=seed,
        samples=samples,
        surface_class=classify(surface).value,
    )
    for name, func in _CHECKS:
        start = time.perf_counter()
        trace = None
        try:
            status, cases, counterexample, detail = func(ctx)
        except Exception as exc:  # one raising check must not lose the report
            import traceback  # here, not at the top: importing it slows CLI start

            trace = traceback.format_exc()
            status, cases, detail = FAIL, 0, None
            counterexample = {"exception": type(exc).__name__, "message": str(exc)}
        elapsed = time.perf_counter() - start
        report.checks.append(
            CheckResult(name, status, cases, counterexample, detail, elapsed, trace)
        )
        if progress is not None:
            progress(report.checks[-1])
    return report
