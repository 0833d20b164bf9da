"""Seeded verification suite behind the command-line ``verify`` command.

The suite is one table, `CHECKS`, of `Check` rows, and one runner,
`run_check`; `run_verification` loops over the table, and the pytest suite
runs the same rows.  A row holds the check's name, its function, the key of
its random streams, the rule turning the sample size into a case count, the
surface class it needs (if any) and an optional setup.

* A per-case row (one with a key) calls ``fn(surface, rng[, setup])`` for
  k = 0, 1, ... with ``rng`` drawn from (seed, key, k); the function returns
  a counterexample dict, or None when the case holds.  The runner stops at
  the first counterexample and reports ``fail`` with ``k + 1`` cases, and
  otherwise ``pass`` with every case.
* A whole-check row (no key) is a check that is not one seeded loop:
  ``fn(surface, seed, samples)`` returns ``(status, cases, counterexample,
  detail)`` itself.
* A surface outside the row's class is ``skip`` with 0 cases; nothing of
  the row runs.
* ``setup(surface)`` is built once per run of the row, before its first
  case, and dropped when the row ends.  It holds what every case of the row
  would otherwise recompute.  It is not memoized on the surface; every
  setup in `CHECKS` is cheap to rebuild: a series stores only its surface,
  characteristic and cutoff, and the translation row's table is three
  integer periods and their norms read off the surface.

A case computes each of its own quantities once, however many
characteristics it checks, and compares integers over one common
denominator where it can; it builds a `Fraction` only to render a
counterexample.

`theta-quasi-periodicity` and `theta-zero-on-cell` run on `theta_step`, not
on the one-descent kernel `theta.theta_numerators`: the kernel reduces the
point into the cell and shifts by the anomaly, so it holds both identities
by construction and they would test nothing on it.  `theta-bruteforce-oracle`
holds both fast paths, `theta_step` and the kernel's entry for its drawn
characteristic, to the box walk, so each keeps an oracle that shares none of
its code.  The oracle rows walk the box that `theta.cutoff_step` promises
certified: an uncertified one raises InternalInconsistencyError, never an
input error.

Every draw depends on (seed, key, index) alone, so reports are deterministic
for a fixed configuration.  Wall-clock timings are kept out of the report
payload (they go to stderr) to keep two runs with the same seed
byte-identical.  A check that raises is recorded as a failure whose
counterexample names the exception, and the remaining checks still run; its
traceback is kept on the result, outside the payload.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from fractions import Fraction

from . import kummer, nonarch
from .errors import InternalInconsistencyError
from .exact import Mat2, Value, Vec2, as_strings, form, is_unimodular, numerators
from .exact import point
from .lattice import (
    HALF,
    PrincipallyPolarizedSurface,
    SurfaceClass,
    classify,
    in_voronoi_cell,
    lagrange_reduce,
    make_surface,
    reduce_point,
    subdivide,
    voronoi_cell,
)
from .sampling import (
    random_integer_vector,
    random_irreducible_surface,
    random_numerators,
    random_pair,
    random_point,
    random_surface,
    random_unimodular,
    random_unimodular_entries,
    rng_for,
)
from .theta import CHARACTERISTICS, box_step, cutoff_step, step_scale
from .theta import theta_numerators, theta_step

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class CheckResult(Value, frozen=False):
    name: str
    status: str
    cases: int
    counterexample: dict | None = None
    detail: dict | None = None
    elapsed: float = 0.0
    traceback: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "cases": self.cases,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


class VerificationReport(Value, frozen=False):
    gram: Mat2
    seed: int
    samples: int
    surface_class: str
    checks: list[CheckResult] = list  # a fresh list per report

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "gram": _rows(self.gram),
                "seed": self.seed,
                "samples": self.samples,
            },
            "surface_class": self.surface_class,
            "checks": [c.to_json_dict() for c in self.checks],
            "passed": self.passed,
        }


def _all(samples: int) -> int:
    return samples


def _quarter(samples: int) -> int:
    return max(1, samples // 4)


def _n_matrices(samples: int) -> int:
    """How many extra random surfaces a check draws."""
    return max(2, min(20, samples // 10))


def _sweep(s, seed, key, n, draw=random_surface) -> list[PrincipallyPolarizedSurface]:
    """The configured surface s, then n surfaces drawn from (seed, key, k)."""
    return [s] + [draw(rng_for(seed, key, k)) for k in range(n)]


class Check(Value):
    """One row of the invariant table; see the module docstring."""

    name: str
    fn: Callable
    key: str | None = None  # rng key of a per-case row; None: a whole check
    count: Callable[[int], int] = _all  # samples -> cases of a per-case row
    needs: SurfaceClass | None = None
    setup: Callable | None = None


def run_check(
    check: Check, surface: PrincipallyPolarizedSurface, seed: int, samples: int
) -> CheckResult:
    """Run one row on one surface; a raising check is recorded as `fail`."""
    start = time.perf_counter()
    counterexample = detail = trace = None
    try:
        if check.needs is not None and classify(surface) is not check.needs:
            status, cases = SKIP, 0
        elif check.key is None:
            status, cases, counterexample, detail = check.fn(surface, seed, samples)
        else:
            status, cases = PASS, check.count(samples)
            extra = () if check.setup is None else (check.setup(surface),)
            for k in range(cases):
                counterexample = check.fn(surface, rng_for(seed, check.key, k), *extra)
                if counterexample is not None:
                    status, cases = FAIL, k + 1
                    break
    except Exception as exc:  # one raising check must not lose the report
        import traceback  # here, not at the top: importing it slows CLI start

        trace = traceback.format_exc()
        status, cases, detail = FAIL, 0, None
        counterexample = {"exception": type(exc).__name__, "message": str(exc)}
    elapsed = time.perf_counter() - start
    return CheckResult(
        check.name, status, cases, counterexample, detail, elapsed, trace
    )


def _point(t0: int, t1: int, den: int) -> list[str]:
    """The point t/den (den 1 for an integer vector), as `as_strings` shows it."""
    return as_strings(point(t0, t1, den))


def _rows(m: Mat2) -> list[list[str]]:
    return [[str(e) for e in row] for row in m.rows()]


def _value(s, num: int, den: int) -> str:
    """A numerator over `step_scale`, as `theta_step` returns, shown."""
    return str(Fraction(num, step_scale(s, den)))


def _gram_symmetry(s, rng):
    x, y = random_point(rng, 5), random_point(rng, 5)
    if s.q(x, y) != s.q(y, x):
        return {"x": as_strings(x), "y": as_strings(y)}


def _gram_positivity(s, rng):
    x = random_point(rng, 5)
    if x != Vec2(0, 0) and s.norm(x) <= 0:
        return {"x": as_strings(x), "q": str(s.norm(x))}


def _unimodular_invariance(s, rng):
    m = rng.choice((2, 3))
    rows = [random_pair(rng, 4) for _ in range(m)]
    base = is_unimodular(rows)
    perm = list(range(m))
    rng.shuffle(perm)
    permuted = [rows[i] for i in perm]
    a, b, c, d = random_unimodular_entries(rng)
    # r -> U r: the rows go to M U^T.
    transformed = [(a * r0 + b * r1, c * r0 + d * r1) for r0, r1 in rows]
    if is_unimodular(permuted) != base or is_unimodular(transformed) != base:
        return {"rows": rows, "unimodular": base}


def _dual_basis_integrality(s, seed, samples):
    basis = (Vec2(1, 0), Vec2(0, 1))
    nb = s.gram.inverse()
    duals = (Vec2(nb.a, nb.c), Vec2(nb.b, nb.d))  # columns of G^{-1}
    for i, f in enumerate(basis):
        for j, n in enumerate(duals):
            val = s.q(f, n)
            if val != (1 if i == j else 0):
                return FAIL, 4, {"i": i, "j": j, "q": str(val)}, None
    return PASS, 4, None, None


def _reduction_invariants(s, seed, samples):
    rb = lagrange_reduce(s)  # rb.norms read the conorms; q recomputes them from H
    quu, qvv, quv = s.norm(rb.u), s.norm(rb.v), s.q(rb.u, rb.v)
    ok = (
        rb.norms == (quu, qvv, quv)
        and abs(rb.u.x * rb.v.y - rb.u.y * rb.v.x) == 1
        and rb.u.is_integral()
        and rb.v.is_integral()
        and quu <= qvv
        and quv <= 0
        and 2 * abs(quv) <= quu
    )
    norms = [str(q) for q in rb.norms]
    detail = {"u": as_strings(rb.u), "v": as_strings(rb.v), "norms": norms}
    return (PASS if ok else FAIL), 1, (None if ok else detail), detail


def _classify_congruence(s, rng, base_class):
    u = random_unimodular(rng)
    conj = u.transpose().mul_mat(s.gram).mul_mat(u)
    if classify(make_surface(conj)) is not base_class:
        return {"U": _rows(u)}


def _voronoi_geometry_ok(surface: PrincipallyPolarizedSurface) -> str | None:
    cell = voronoi_cell(surface)
    rel = cell.relevant_vectors
    norms = [surface.norm(r) for r in rel]
    verts = cell.vertices
    n = len(verts)
    for m in verts:
        twice = [2 * surface.q(m, r) for r in rel]
        tight = sum(t == q for t, q in zip(twice, norms))
        if tight != 2:
            return f"vertex {m.as_tuple()} supports {tight} facets"
        if any(t > q for t, q in zip(twice, norms)):
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


def _voronoi_geometry(s, seed, samples):
    surfaces = _sweep(s, seed, "voronoi-geometry", _n_matrices(samples))
    for k, surface in enumerate(surfaces):
        problem = _voronoi_geometry_ok(surface)
        if problem:
            where = {"gram": _rows(surface.gram)} if k else {"surface": "configured"}
            return FAIL, k + 1, {**where, "problem": problem}, None
    return PASS, len(surfaces), None, None


def _cvp_oracle(s, rng):
    x = random_point(rng, 5)
    x0, p = reduce_point(s, x)
    if x0 + p != x or not p.is_integral():
        return {"x": as_strings(x), "problem": "bad decomposition"}
    # Over gram_den (2 den)^2, Q(x0) = Q((t - den p) / den) is 4 h(t - den p),
    # and the oracle's theta_00(x) + Q(x) is its numerator plus 4 h(t).
    t0, t1, den = numerators(x)
    r, h = (t0 - den * p.x.numerator, t1 - den * p.y.numerator), s.int_gram
    expected = _oracle_step(s, CHARACTERISTICS[0], t0, t1, den)
    expected += 4 * form(h, (t0, t1), (t0, t1))
    if 4 * form(h, r, r) != expected:
        oracle = _value(s, expected, den)
        return {"x": as_strings(x), "descent": str(s.norm(x0)), "oracle": oracle}


def _reduce_idempotence(s, rng):
    x0, _ = reduce_point(s, random_point(rng, 5))
    x1, p = reduce_point(s, x0)
    if p != Vec2(0, 0) or s.norm(x1) != s.norm(x0):
        return {"x0": as_strings(x0), "x1": as_strings(x1)}
    if not in_voronoi_cell(s, x0):
        return {"x0": as_strings(x0), "problem": "not in cell"}


def _theta_zero_on_cell(s, rng):
    x0, _ = reduce_point(s, random_point(rng, 5))
    t0, t1, den = numerators(x0)
    num = theta_step(s, CHARACTERISTICS[0], t0, t1, den)[0]
    if num != 0:
        return {"x0": as_strings(x0), "value": _value(s, num, den)}


def _theta_evenness(s, rng):
    t0, t1, den = random_numerators(rng, 4)
    plus, minus = theta_numerators(s, t0, t1, den), theta_numerators(s, -t0, -t1, den)
    for char, at_x, at_minus_x in zip(CHARACTERISTICS, plus, minus):
        if at_x != at_minus_x:
            return {"x": _point(t0, t1, den), "char": str(char)}


def _period_shift(s, rng, bound):
    """(t, t + den up, den, anomaly, up) for a point x = t/den and an integer
    vector up, both drawn within `bound`: x + up is (t + den up) / den, and
    over gram_den (2 den)^2 the anomaly 2 Q(x, up) + Q(up) is
    4 (2 den t^T H up + den^2 up^T H up)."""
    t0, t1, den = random_numerators(rng, bound)
    up, h = random_pair(rng, bound), s.int_gram
    anomaly = 4 * den * (2 * form(h, (t0, t1), up) + den * form(h, up, up))
    return (t0, t1), (t0 + den * up[0], t1 + den * up[1]), den, anomaly, up


def _theta_quasi_periodicity(s, rng):
    t, shifted, den, anomaly, up = _period_shift(s, rng, 3)
    for char in CHARACTERISTICS:
        lhs = theta_step(s, char, *shifted, den)[0]
        if lhs != theta_step(s, char, *t, den)[0] - anomaly:
            return {"x": _point(*t, den), "shift": _point(*up, 1), "char": str(char)}


def _translation_table(s):
    """Setup: (char, vec, vec^T H vec) for 10, 01, 11 and vec = u, v, w."""
    _, u, v, (sx, sy) = s.char_vectors  # the last is u + v = -w
    return [
        (char, vec, form(s.int_gram, vec, vec))
        for char, vec in zip(CHARACTERISTICS[1:], (u, v, (-sx, -sy)))
    ]


def _theta_translation(s, rng, table):
    char00 = CHARACTERISTICS[0]
    t0, t1, den = random_numerators(rng, 3)
    values = theta_numerators(s, t0, t1, den)[1:]
    for (char, (v0, v1), h_vec), value in zip(table, values):
        # theta_c(x) = theta_00(x +- vec/2) +- Q(x, vec) + Q(vec)/4 over
        # gram_den (4 den)^2, with x +- vec/2 = (2t +- den vec) / (2 den).
        lhs = 4 * value
        q = 16 * den * form(s.int_gram, (t0, t1), (v0, v1))
        quarter = 4 * den * den * h_vec
        e0, e1 = den * v0, den * v1
        plus = theta_step(s, char00, 2 * t0 + e0, 2 * t1 + e1, 2 * den)[0] + q
        minus = theta_step(s, char00, 2 * t0 - e0, 2 * t1 - e1, 2 * den)[0] - q
        if lhs != plus + quarter or lhs != minus + quarter:
            return {"x": _point(t0, t1, den), "char": str(char)}


def _theta_concavity(s, rng):
    (a0, a1, dx), (b0, b1, dy) = random_numerators(rng, 3), random_numerators(rng, 3)
    d = math.lcm(dx, dy)
    a0, a1, b0, b1 = a0 * (d // dx), a1 * (d // dx), b0 * (d // dy), b1 * (d // dy)
    # Over gram_den (4d)^2, theta(x) and theta(y) read 4 times their
    # numerators and theta((x + y)/2) = theta((a + b) / 2d) its own.
    mid = theta_numerators(s, a0 + b0, a1 + b1, 2 * d)
    ends = zip(theta_numerators(s, a0, a1, d), theta_numerators(s, b0, b1, d))
    if any(m < 2 * (x + y) for m, (x, y) in zip(mid, ends)):
        return {"x": _point(a0, a1, d), "y": _point(b0, b1, d)}


def _oracle_step(surface, char, t0, t1, den) -> int:
    """Theta's numerator at t/den by the box walk `box_step`, not the descent;
    over gram_den (2 den)^2, as `theta_step`'s.

    The box is the series' radius rule `cutoff_step` for |x|_inf =
    max(|t0|, |t1|) / den: it holds a = 0 and no a outside it comes below
    Q(x + c/2), so one box is certified.  An uncertified box breaks that
    promise: InternalInconsistencyError.
    """
    cutoff = cutoff_step(surface, char, max(abs(t0), abs(t1)), den)
    num, _, certified = box_step(surface, char, t0, t1, den, cutoff)
    if not certified:
        raise InternalInconsistencyError(
            f"cutoff_step {cutoff} does not certify the box at {(t0, t1)}/{den}"
        )
    return num


def _theta_oracle(s, seed, samples):
    surfaces = _sweep(s, seed, "theta-oracle-gram", _n_matrices(samples))
    cases = 0
    per_surface = max(1, samples // len(surfaces))
    for si, surface in enumerate(surfaces):
        for k in range(per_surface):
            rng = rng_for(seed, "theta-oracle", si, k)
            t0, t1, den = random_numerators(rng, 2)
            i = rng.randrange(4)
            char = CHARACTERISTICS[i]
            cases += 1
            fast = theta_step(surface, char, t0, t1, den)[0]
            kernel = theta_numerators(surface, t0, t1, den)[i]
            slow = _oracle_step(surface, char, t0, t1, den)
            if fast != slow or kernel != slow:
                counterexample = {
                    "gram": _rows(surface.gram),
                    "x": _point(t0, t1, den),
                    "char": str(char),
                    "fast": _value(surface, fast, den),
                    "kernel": _value(surface, kernel, den),
                    "oracle": _value(surface, slow, den),
                }
                return FAIL, cases, counterexample, None
    return PASS, cases, None, None


def _theta_minimizer(s, rng):
    t0, t1, den = random_numerators(rng, 4)
    char = CHARACTERISTICS[rng.randrange(4)]
    num, (a0, a1) = theta_step(s, char, t0, t1, den)
    # Over gram_den (2 den)^2, Q(a + x + c/2) - Q(x) is h(2 den a + 2t + den c)
    # - 4 h(t): the value at the minimizer a.
    (cx, cy), h = char.vector(s), s.int_gram
    y = (2 * (den * a0 + t0) + den * cx, 2 * (den * a1 + t1) + den * cy)
    if form(h, y, y) - 4 * form(h, (t0, t1), (t0, t1)) != num:
        return {"x": _point(t0, t1, den), "char": str(char)}


def _descent_cocycle(s, rng, datum):
    a, b = random_pair(rng, 5), random_pair(rng, 5)
    if datum.cocycle_defect(a, b) != 0:
        return {"u1": _point(*a, 1), "u2": _point(*b, 1)}
    gamma = datum.gamma(a)  # over datum.den; Q(a, a) is over gram_den
    if gamma != datum.gamma((-a[0], -a[1])):
        return {"u1": _point(*a, 1), "problem": "gamma not even"}
    if gamma * s.gram_den != form(s.int_gram, a, a) * datum.den:
        return {"u1": _point(*a, 1), "problem": "gamma != Q(u,u)"}


def _series_tables(bound: Fraction) -> Callable:
    """Setup: one series per characteristic, certified up to `bound`."""

    def setup(s):
        return [
            nonarch.build_series(s, char, nonarch.safe_cutoff(s, char, bound))
            for char in CHARACTERISTICS
        ]

    return setup


def _series_lift(s, rng, tables):
    t0, t1, den = random_numerators(rng, 2)
    values = theta_numerators(s, t0, t1, den)
    for char, series, want in zip(CHARACTERISTICS, tables, values):
        # The printed Q(c, c)/4 is read off the conorms; check it on the stored H.
        c, (num, d) = char.vector(s), series.constant_shift.as_integer_ratio()
        if form(s.int_gram, c, c) * d != 4 * s.gram_den * num:
            return {"char": str(char), "constant_shift": str(series.constant_shift)}
        got = nonarch.tropicalize_step(series, t0, t1, den)
        if got != want:
            return {
                "v": _point(t0, t1, den),
                "char": str(char),
                "series": _value(s, got, den),
                "theta": _value(s, want, den),
            }


def _series_quasi_periodicity(s, rng, tables):
    t, shifted, den, anomaly, up = _period_shift(s, rng, 2)
    for series in tables:
        lhs = nonarch.tropicalize_step(series, *shifted, den)
        if lhs != nonarch.tropicalize_step(series, *t, den) - anomaly:
            return {"v": _point(*t, den), "shift": _point(*up, 1)}


def _cutoff_ladders(s):
    """Setup: per characteristic, series at cutoffs safe - 1, safe, 2 safe."""
    ladders = []
    for char in CHARACTERISTICS:
        safe = nonarch.safe_cutoff(s, char, Fraction(2))
        cutoffs = (max(0, safe - 1), safe, 2 * safe)
        ladders.append([nonarch.build_series(s, char, r) for r in cutoffs])
    return ladders


def _cutoff_stability(s, rng, ladders):
    t0, t1, den = random_numerators(rng, 2)  # each value over gram_den (2 den)^2
    for char, ladder in zip(CHARACTERISTICS, ladders):
        values = [nonarch.tropicalize_step(series, t0, t1, den) for series in ladder]
        if values[1] > values[0] or values[2] > values[1]:
            return {"v": _point(t0, t1, den), "char": str(char)}
        if values[2] != values[1]:
            v = _point(t0, t1, den)
            return {"v": v, "char": str(char), "problem": "not stabilized"}


def _quartic_structure(s, seed, samples):
    quartic = kummer.build_quartic(s)  # construction re-validates
    if set(quartic.vertices) != {-v for v in quartic.vertices}:
        return FAIL, 1, {"problem": "vertex set not antipodally stable"}, None
    diagnostics = kummer.vertex_sign_diagnostics(s)
    torsion = kummer.two_torsion_images(s)
    detail = {
        "display_reading": diagnostics["consistent_reading"],
        "two_torsion_on_vertices": [flag for _, _, flag in torsion],
        "theta_constants": [str(t) for t in quartic.theta_constants],
    }
    if diagnostics["consistent_reading"] != "minus":
        return FAIL, 1, detail, detail
    return PASS, 1, None, detail


def _quartic_coverage(s, rng, quartic):
    t0, t1, den = random_numerators(rng, 4)
    image = kummer.psi_step(s, t0, t1, den)
    if not kummer.contains_step(quartic, *image, step_scale(s, den)):
        return {"x": _point(t0, t1, den), "psi": [_value(s, n, den) for n in image]}


def _psi_injectivity(s, rng):
    y = random_point(rng, 3)
    mode = rng.randrange(3)
    if mode == 0:
        yp = y + random_integer_vector(rng, 3)
    elif mode == 1:
        yp = -y + random_integer_vector(rng, 3)
    else:
        yp = random_point(rng, 3)
    try:
        kummer.injectivity_check(s, y, yp)
    except InternalInconsistencyError as exc:
        return {"y": as_strings(y), "yp": as_strings(yp), "error": str(exc)}


def _psi_product_collapse(s, rng, rb):
    # Mirror across the first reduced axis: x1 u + x2 v -> x1 u - x2 v.
    c1, c2 = random_point(rng, 3).as_tuple()
    x = c1 * rb.u + c2 * rb.v
    if kummer.psi_eval(s, x) != kummer.psi_eval(s, c1 * rb.u - c2 * rb.v):
        return {"x": as_strings(x)}


def _affine_unimodularity(s, seed, samples):
    n, key = max(2, _n_matrices(samples) // 2), "affine-unimodularity-gram"
    cases = 0
    for surface in _sweep(s, seed, key, n, random_irreducible_surface):
        pieces = kummer.affine_pieces(surface)
        cases += len(pieces)
        bad = [p for p in pieces if not p.unimodular]
        if len(pieces) != 18 or bad:
            counterexample = {
                "gram": _rows(surface.gram),
                "bad_cells": [p.cell.label for p in bad],
            }
            return FAIL, cases, counterexample, None
        # `subdivide` emits sigma, tau, rho for quadrilaterals 1..6, and
        # quadrilateral i + 3 negates i: piece j's antipode is piece j + 9.
        for piece, antipode in zip(pieces, pieces[9:] + pieces[:9]):
            negated = tuple((-r[0], -r[1]) for r in piece.linear_part)
            if antipode.linear_part != negated:
                return FAIL, cases, {"cell": piece.cell.label}, None
    return PASS, cases, None, None


def _coplanarity_table(s, seed, samples):
    report = kummer.coplanarity_report(s)  # self-validating
    detail = {
        f"{face.normal}={face.offset}": list(cells)
        for face, cells in report.items()
    }
    return PASS, len(report), None, detail


def _subdivision_geometry(s, seed, samples):
    cells = subdivide(s)
    total = sum(cell.area() for cell in cells)
    if total != 1:
        return FAIL, 1, {"total_area": str(total)}, None
    for cell in cells:
        for p in cell.vertices:
            if not in_voronoi_cell(s, p):
                return FAIL, 1, {"cell": cell.label, "vertex": as_strings(p)}, None
    rb = lagrange_reduce(s)
    shifts = (HALF * rb.v, HALF * -rb.w)
    for cell in cells:
        if cell.quadrilateral != 1:
            continue
        for shift in shifts:
            for p in cell.vertices:
                if not in_voronoi_cell(s, p + shift):
                    counterexample = {
                        "cell": cell.label,
                        "vertex": as_strings(p),
                        "shift": as_strings(shift),
                    }
                    return FAIL, 1, counterexample, None
    return PASS, len(cells), None, None


_IRREDUCIBLE = SurfaceClass.IRREDUCIBLE

# The report lists the checks in this order.  Setups that `perfbench` traces
# are called through a lambda or a function of this module: looked up when
# the check runs, the wrapped function is the one called.
CHECKS: tuple[Check, ...] = (
    Check("gram-symmetry", _gram_symmetry, "gram-symmetry"),
    Check("gram-positivity", _gram_positivity, "gram-positivity"),
    Check("unimodular-invariance", _unimodular_invariance, "unimodular-invariance"),
    Check("dual-basis-integrality", _dual_basis_integrality),
    Check("reduction-invariants", _reduction_invariants),
    Check(
        "classify-congruence-invariance",
        _classify_congruence,
        "classify-congruence",
        count=lambda samples: max(10, _n_matrices(samples)),
        setup=classify,
    ),
    Check("voronoi-geometry", _voronoi_geometry),
    Check("cvp-descent-oracle", _cvp_oracle, "cvp-oracle"),
    Check("reduce-idempotence", _reduce_idempotence, "reduce-idempotence"),
    Check("theta-zero-on-cell", _theta_zero_on_cell, "theta-zero-on-cell"),
    Check("theta-evenness", _theta_evenness, "theta-evenness"),
    Check(
        "theta-quasi-periodicity", _theta_quasi_periodicity, "theta-quasi-periodicity"
    ),
    Check(
        "theta-translation-identities",
        _theta_translation,
        "theta-translation",
        setup=_translation_table,
    ),
    Check("theta-concavity", _theta_concavity, "theta-concavity"),
    Check("theta-minimizer-attained", _theta_minimizer, "theta-minimizer"),
    Check("theta-bruteforce-oracle", _theta_oracle),
    Check(
        "descent-datum-cocycle",
        _descent_cocycle,
        "descent-cocycle",
        setup=nonarch.descent_datum,
    ),
    Check(
        "series-lift-consistency",
        _series_lift,
        "series-lift",
        setup=_series_tables(Fraction(2)),
    ),
    Check(
        "series-quasi-periodicity",
        _series_quasi_periodicity,
        "series-quasi-periodicity",
        count=_quarter,
        setup=_series_tables(Fraction(5)),
    ),
    Check(
        "series-cutoff-stability",
        _cutoff_stability,
        "cutoff-stability",
        count=_quarter,
        setup=_cutoff_ladders,
    ),
    Check("quartic-structure", _quartic_structure, needs=_IRREDUCIBLE),
    Check(
        "quartic-coverage",
        _quartic_coverage,
        "quartic-coverage",
        needs=_IRREDUCIBLE,
        setup=lambda s: kummer.build_quartic(s),
    ),
    Check(
        "psi-injectivity-mod-sign",
        _psi_injectivity,
        "psi-injectivity",
        needs=_IRREDUCIBLE,
    ),
    Check(
        "psi-product-collapse",
        _psi_product_collapse,
        "psi-product-collapse",
        needs=SurfaceClass.PRODUCT_TYPE,
        setup=lambda s: lagrange_reduce(s),
    ),
    Check("affine-unimodularity", _affine_unimodularity, needs=_IRREDUCIBLE),
    Check("coplanarity-table", _coplanarity_table, needs=_IRREDUCIBLE),
    Check("subdivision-geometry", _subdivision_geometry, needs=_IRREDUCIBLE),
)


def run_verification(
    surface: PrincipallyPolarizedSurface,
    seed: int = 0,
    samples: int = 200,
    progress=None,
) -> VerificationReport:
    if any(type(n) is not int for n in (seed, samples)) or samples < 1:
        raise ValueError(
            "samples must be an int >= 1 and seed an int, "
            f"got samples={samples!r}, seed={seed!r}"
        )
    report = VerificationReport(
        gram=surface.gram,
        seed=seed,
        samples=samples,
        surface_class=classify(surface).value,
    )
    for check in CHECKS:
        report.checks.append(run_check(check, surface, seed, samples))
        if progress is not None:
            progress(report.checks[-1])
    return report
