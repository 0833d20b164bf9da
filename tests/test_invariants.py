"""Every row of the `verify` table on the four example surfaces.

`verify` and pytest run the same table through `verify.run_check`: a row
passes on every surface of its class and is skipped, with no case run, on
the others.  The seed differs from the pinned reports' seed 7, so these
runs draw other cases.
"""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import cut_descend

from tropical_kummer import (
    AffinePiece,
    KummerQuartic,
    PrincipallyPolarizedSurface,
    ReducedBasis,
    SurfaceClass,
    Vec2,
    Vec3,
    VoronoiCell,
    kummer,
    make_surface,
    subdivide,
    theta,
    verify,
)

F = Fraction
H = F(1, 2)

SEED = 1
SAMPLES = 50

SURFACES = {
    "hexagonal": SurfaceClass.IRREDUCIBLE,
    "skew_hexagonal": SurfaceClass.IRREDUCIBLE,
    "hidden_product": SurfaceClass.PRODUCT_TYPE,
    "unit_square": SurfaceClass.PRODUCT_TYPE,
}


@pytest.mark.parametrize("fixture", SURFACES)
@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.name)
def test_row(request, check, fixture):
    surface = request.getfixturevalue(fixture)
    result = verify.run_check(check, surface, SEED, SAMPLES)
    if check.needs not in (None, SURFACES[fixture]):
        assert (result.status, result.cases) == (verify.SKIP, 0)
    else:
        assert result.status == verify.PASS, result
        assert result.cases > 0


def test_report_rows_are_the_benchmark_rows():
    # perfbench reports one time per row under the names in its own table; a
    # renamed row would silently drop its metric.  The table is read, not run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    (names,) = [
        node.value
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CHECK_NAMES"]
    ]
    assert ast.literal_eval(names) == tuple(c.name for c in verify.CHECKS)


# Each failure return of a row, reached by a fault injected through the
# module binding the row reads.  An injector takes (monkeypatch, surface).
HEX = ((2, -1), (-1, 2))
SKEW = ((2, -1), (-1, 3))  # conorms (1, 2, 1)
SQUARE = ((1, 0), (0, 1))


def _counter(step=1):
    """A function returning 0, step, 2 step, ...: no two calls agree."""
    values = itertools.count(0, step)
    return lambda *args: next(values)


def _counting(target, name, step=1):
    return lambda mp, s: mp.setattr(target, name, _counter(step))


def _cell(transform):
    """Patch `verify.voronoi_cell` to a transform of the true cell."""

    def inject(mp, s):
        cell = verify.voronoi_cell(s)
        fake = VoronoiCell(cell.kind, *transform(cell.relevant_vectors, cell.vertices))
        mp.setattr(verify, "voronoi_cell", lambda surface: fake)

    return inject


def _doubled_cell(mp, s):
    # The cell and the reduced basis scaled by 2 keep every incidence, but u, v
    # then span an index-4 sublattice.
    _cell(lambda rel, verts: ([2 * r for r in rel], [2 * m for m in verts]))(mp, s)
    rb = verify.lagrange_reduce(s)
    doubled = ReducedBasis(2 * rb.u, 2 * rb.v, rb.norms)
    mp.setattr(verify, "lagrange_reduce", lambda surface: doubled)


def _conorms_swapped(mp, s):
    # u, v stay the reduced basis; the norms come from swapped stored conorms.
    p_uv, p_vw, p_uw = s.conorms
    fields = (s.gram, s.int_gram, s.gram_den, s.descent, s.char_vectors)
    swapped = PrincipallyPolarizedSurface(*fields, (p_vw, p_uv, p_uw))
    wrong = verify.lagrange_reduce(swapped)
    mp.setattr(verify, "lagrange_reduce", lambda surface: wrong)


def _random_surface_fails(mp, s):
    ok = verify._voronoi_geometry_ok

    def problem(t):
        return ok(t) if t is s else "injected"

    mp.setattr(verify, "_voronoi_geometry_ok", problem)


def _theta_value_off(mp, s):
    # Theta's value raised by 1: its numerator by gram_den (2 den)^2.
    exact = verify.theta_step

    def off(surface, char, t0, t1, den):
        num, a = exact(surface, char, t0, t1, den)
        return num + 4 * surface.gram_den * den * den, a

    mp.setattr(verify, "theta_step", off)


def _step_drifting(mp, s):
    # The four identity rows read `verify.theta_step`; each call's numerator is
    # raised 10^9 more than the last, so no two calls agree and every
    # midpoint falls below its chord.
    exact, drift = verify.theta_step, itertools.count(0, 10**9)

    def drifting(*args):
        num, a = exact(*args)
        return num + next(drift), a

    mp.setattr(verify, "theta_step", drifting)


def _descent_cut(module):
    """Patch `module.descend` to scan only +-u and +-v, as `cut_descent` does:
    the fast path behind theta (`theta`) or psi (`kummer`) stops short, so the
    rows that check it against other code fail, as in the pinned cut reports."""
    return lambda mp, s: mp.setattr(module, "descend", cut_descend(module.descend))


def _datum(defect, gamma=None):
    def inject(mp, s):
        datum = verify.nonarch.TropicalDescentDatum
        mp.setattr(datum, "cocycle_defect", lambda *args: defect)
        if gamma is not None:
            mp.setattr(datum, "gamma", gamma(s))

    return inject


def _gamma_off(datum, up, gamma=verify.nonarch.TropicalDescentDatum.gamma):
    return gamma(datum, up) + 1  # the unpatched numerator, off by one


def _quartic_moved(mp, s):
    quartic = kummer.build_quartic(s)
    moved = (quartic.vertices[0] + Vec3(1, 0, 0),) + quartic.vertices[1:]
    fake = KummerQuartic(moved, quartic.faces, quartic.theta_constants)
    mp.setattr(kummer, "build_quartic", lambda surface: fake)


def _pieces(j, linear_part_of, unimodular):
    """Patch `kummer.affine_pieces`: piece j takes piece `linear_part_of`'s
    linear part and the given unimodular flag."""

    def inject(mp, s):
        pieces = list(kummer.affine_pieces(s))
        p = pieces[j]
        rows = pieces[linear_part_of].linear_part
        pieces[j] = AffinePiece(p.cell, rows, p.offset, unimodular)
        mp.setattr(kummer, "affine_pieces", lambda surface: tuple(pieces))

    return inject


def _shifts_leave_the_cell(mp, s):
    # The shifted corners are corners of other cells, so only a membership
    # test that fails once every corner is checked reaches the last return.
    corners, calls = sum(len(c.vertices) for c in subdivide(s)), itertools.count()
    mp.setattr(verify, "in_voronoi_cell", lambda surface, p: next(calls) < corners)


def _attr(target, name, value):
    return lambda mp, s: mp.setattr(target, name, value)


FAULTS = {
    # id: (row, gram, injector, cases, counterexample keys, text in it)
    "gram-symmetry": (
        "gram-symmetry", HEX, _counting(PrincipallyPolarizedSurface, "q"),
        1, {"x", "y"}, "",
    ),
    "gram-positivity": (
        "gram-positivity", HEX,
        _attr(PrincipallyPolarizedSurface, "norm", lambda self, x: 0),
        1, {"x", "q"}, "'q': '0'",
    ),
    "unimodular-invariance": (
        "unimodular-invariance", HEX, _counting(verify, "is_unimodular"),
        1, {"rows", "unimodular"}, "",
    ),
    "dual-basis-integrality": (
        "dual-basis-integrality", HEX,
        _attr(PrincipallyPolarizedSurface, "q", lambda self, x, y: 2),
        4, {"i", "j", "q"}, "'i': 0, 'j': 0",
    ),
    "reduction-invariants": (
        "reduction-invariants", SKEW, _conorms_swapped,
        1, {"u", "v", "norms"}, "'norms': ['3', '3', '-2']",
    ),
    "classify-congruence-invariance": (
        "classify-congruence-invariance", HEX,
        _attr(verify, "classify", lambda surface: None),
        1, {"U"}, "",
    ),
    "voronoi-supports": (
        "voronoi-geometry", HEX,
        _cell(lambda rel, verts: (rel, [H * m for m in verts])),
        1, {"surface", "problem"}, "supports 0 facets",
    ),
    "voronoi-escapes": (
        "voronoi-geometry", HEX, _cell(lambda rel, verts: ((*rel, verts[0]), verts)),
        1, {"surface", "problem"}, "escapes the cell",
    ),
    "voronoi-antipodal": (
        "voronoi-geometry", HEX,
        _cell(lambda rel, verts: (rel, (verts[1], verts[0], *verts[2:]))),
        1, {"surface", "problem"}, "vertices 1 and 4 are not antipodal",
    ),
    "voronoi-facet-midpoint": (
        "voronoi-geometry", HEX, _cell(lambda rel, verts: (rel, verts[1:] + verts[:1])),
        1, {"surface", "problem"}, "facet 0 midpoint identity fails",
    ),
    "voronoi-basis": (
        "voronoi-geometry", HEX, _doubled_cell,
        1, {"surface", "problem"}, "is not a lattice basis",
    ),
    "voronoi-random-surface": (
        "voronoi-geometry", HEX, _random_surface_fails,
        2, {"gram", "problem"}, "injected",
    ),
    "cvp-descent-oracle": (
        "cvp-descent-oracle", HEX,
        _attr(verify, "reduce_point", lambda s, x: (x, Vec2(H, 0))),
        1, {"x", "problem"}, "bad decomposition",
    ),
    "reduce-idempotence-moves": (
        "reduce-idempotence", HEX,
        _attr(verify, "reduce_point", lambda s, x: (x, Vec2(1, 0))),
        1, {"x0", "x1"}, "",
    ),
    "reduce-idempotence-cell": (
        "reduce-idempotence", HEX, _attr(verify, "in_voronoi_cell", lambda s, x: False),
        1, {"x0", "problem"}, "not in cell",
    ),
    "theta-zero-on-cell": (
        "theta-zero-on-cell", HEX, _theta_value_off,
        1, {"x0", "value"}, "'value': '1'",
    ),
    "theta-evenness": (
        "theta-evenness", HEX, _step_drifting,
        1, {"x", "char"}, "'char': '00'",
    ),
    "theta-quasi-periodicity": (
        "theta-quasi-periodicity", HEX, _step_drifting,
        1, {"x", "shift", "char"}, "'char': '00'",
    ),
    "theta-translation-identities": (
        "theta-translation-identities", HEX, _step_drifting,
        1, {"x", "char"}, "'char': '10'",
    ),
    "theta-concavity": (
        "theta-concavity", HEX, _step_drifting,
        1, {"x", "y"}, "",
    ),
    "theta-minimizer-attained": (
        "theta-minimizer-attained", HEX, _theta_value_off,
        1, {"x", "char"}, "",
    ),
    "theta-bruteforce-oracle": (
        "theta-bruteforce-oracle", SKEW, _descent_cut(theta),
        2, {"gram", "x", "char", "fast", "oracle"},
        "'fast': '-57/10', 'oracle': '-61/10'",
    ),
    "descent-cocycle-defect": (
        "descent-datum-cocycle", HEX, _datum(1),
        1, {"u1", "u2"}, "",
    ),
    "descent-cocycle-even": (
        "descent-datum-cocycle", HEX, _datum(0, lambda s: _counter()),
        1, {"u1", "problem"}, "gamma not even",
    ),
    "descent-cocycle-norm": (
        "descent-datum-cocycle", HEX, _datum(0, lambda s: _gamma_off),
        1, {"u1", "problem"}, "gamma != Q(u,u)",
    ),
    "series-lift-consistency": (
        "series-lift-consistency", SKEW, _descent_cut(theta),
        2, {"v", "char", "series", "theta"},
        "'char': '00', 'series': '-3/7', 'theta': '0'",
    ),
    "series-constant-shift": (
        "series-lift-consistency", HEX,
        # Q(0, 0)/4 = 0 holds for 00; Q(u, u)/4 = 1/2 for 10 does not.
        _attr(verify.nonarch.FormalThetaSeries, "constant_shift", F(0)),
        1, {"char", "constant_shift"}, "'char': '10', 'constant_shift': '0'",
    ),
    "series-quasi-periodicity": (
        "series-quasi-periodicity", HEX,
        # Over gram_den (2 den)^2 the anomaly is 0 mod 4, so 0 != 1 - anomaly.
        _counting(verify.nonarch, "tropicalize_step"),
        1, {"v", "shift"}, "",
    ),
    "series-cutoff-rises": (
        "series-cutoff-stability", HEX,
        _counting(verify.nonarch, "tropicalize_step"),
        1, {"v", "char"}, "'char': '00'",
    ),
    "series-cutoff-unstable": (
        "series-cutoff-stability", HEX,
        _counting(verify.nonarch, "tropicalize_step", -1),
        1, {"v", "char", "problem"}, "not stabilized",
    ),
    "quartic-antipodes": (
        "quartic-structure", HEX, _quartic_moved,
        1, {"problem"}, "not antipodally stable",
    ),
    "quartic-reading": (
        "quartic-structure", HEX,
        _attr(kummer, "vertex_sign_diagnostics", lambda s: {"consistent_reading": "+"}),
        1, {"display_reading", "two_torsion_on_vertices", "theta_constants"}, "'+'",
    ),
    "quartic-coverage": (
        "quartic-coverage", SKEW, _descent_cut(kummer),
        1, {"x", "psi"}, "'psi': ['1/3', '5/12', '5/4']",
    ),
    "psi-injectivity-mod-sign": (
        "psi-injectivity-mod-sign", SKEW, _descent_cut(kummer),
        3, {"y", "yp", "error"}, "have distinct images",
    ),
    "psi-product-collapse": (
        "psi-product-collapse", SQUARE, _counting(kummer, "psi_eval"),
        1, {"x"}, "",
    ),
    "affine-not-unimodular": (
        "affine-unimodularity", HEX, _pieces(0, 0, False),
        18, {"gram", "bad_cells"}, "['sigma1']",
    ),
    "affine-antipode": (
        "affine-unimodularity", HEX, _pieces(9, 0, True),  # 9 is 0's antipode
        18, {"cell"}, "sigma1",
    ),
    "subdivision-area": (
        "subdivision-geometry", HEX,
        _attr(verify, "subdivide", lambda s, cells=subdivide: cells(s)[1:]),
        1, {"total_area"}, "'total_area': '",
    ),
    "subdivision-vertex": (
        "subdivision-geometry", HEX,
        _attr(verify, "in_voronoi_cell", lambda s, p: False),
        1, {"cell", "vertex"}, "sigma1",
    ),
    "subdivision-shift": (
        "subdivision-geometry", HEX, _shifts_leave_the_cell,
        1, {"cell", "vertex", "shift"}, "",
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_row_failure_branch(monkeypatch, fault):
    name, gram, inject, cases, keys, text = FAULTS[fault]
    (check,) = [c for c in verify.CHECKS if c.name == name]
    surface = make_surface(gram)  # fresh: nothing memoized leaks between cases
    inject(monkeypatch, surface)
    result = verify.run_check(check, surface, SEED, SAMPLES)
    assert (result.status, result.cases, result.traceback) == (verify.FAIL, cases, None)
    assert set(result.counterexample) == keys
    assert text in repr(result.counterexample)


@pytest.mark.parametrize("name", ("theta-bruteforce-oracle", "cvp-descent-oracle"))
def test_oracle_rows_treat_an_uncertified_box_as_internal(monkeypatch, name):
    # `safe_cutoff` promises the oracle a certified box: a box it fails to
    # certify is the program's fault, not the input's.
    monkeypatch.setattr(verify.nonarch, "safe_cutoff", lambda surface, char, b: 0)
    (check,) = [c for c in verify.CHECKS if c.name == name]
    result = verify.run_check(check, make_surface(HEX), SEED, SAMPLES)
    assert result.status == verify.FAIL
    assert result.counterexample["exception"] == "InternalInconsistencyError"


def test_run_verification_needs_int_samples_and_seed():
    # samples=-3 used to pass with -3 cases a row; samples=True showed as true.
    surface = make_surface(HEX)
    bad = ((0, 0), (0, -3), (0, True), (0, 2.0), (True, 5), (F(1), 5), (None, 5))
    for seed, samples in bad:
        with pytest.raises(ValueError, match="samples must be an int >= 1"):
            verify.run_verification(surface, seed=seed, samples=samples)


# The `Fraction`s each integer row builds on the passing hex run that
# perfbench's `verify-hex` times (suite seed 7, 50 samples): the draws, the
# public calls a row keeps (`reduce_point`, `psi_eval`, `safe_cutoff`'s bound)
# and the random surfaces it sweeps.  A row that slides back onto `Fraction`
# values builds more.  CPython 3.11 builds each arithmetic result through
# `Fraction.__new__`; where it does not, the counts only drop.
FRACTIONS_BUILT = {
    "cvp-descent-oracle": 450,
    "theta-zero-on-cell": 300,
    "theta-evenness": 100,
    "theta-quasi-periodicity": 200,
    "theta-translation-identities": 100,
    "theta-concavity": 200,
    "theta-minimizer-attained": 100,
    "theta-bruteforce-oracle": 164,
    "descent-datum-cocycle": 200,
    "series-lift-consistency": 104,  # the draws and four `constant_shift`s
    "series-quasi-periodicity": 48,
    "series-cutoff-stability": 28,
    "quartic-coverage": 480,
    "psi-injectivity-mod-sign": 364,
    "affine-unimodularity": 390,
}


@pytest.mark.parametrize("name", FRACTIONS_BUILT)
def test_integer_rows_build_few_fractions(monkeypatch, name):
    (check,) = [c for c in verify.CHECKS if c.name == name]
    surface = make_surface(HEX)  # fresh: the affine pieces are memoized
    built, new = itertools.count(), Fraction.__new__

    def counted(cls, *args, **kwargs):
        next(built)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    result = verify.run_check(check, surface, 7, 50)
    monkeypatch.undo()
    assert result.status == verify.PASS, result
    assert next(built) <= FRACTIONS_BUILT[name]
