import math
import random
import time
from fractions import Fraction

import pytest
import reference
from conftest import cut_descent, source_mutant, with_fields

from tropical_kummer import (
    CellKind,
    InternalInconsistencyError,
    Mat2,
    NonSymmetricError,
    NotPositiveDefiniteError,
    ProductTypeError,
    SurfaceClass,
    Vec2,
    classify,
    in_voronoi_cell,
    lagrange_reduce,
    make_surface,
    ReducedBasis,
    reduce_point,
    subdivide,
    voronoi_cell,
)
from tropical_kummer import lattice, verify
from tropical_kummer.exact import form, integer_gram
from tropical_kummer.kummer import Distinct, EquivalentMinus, EquivalentPlus
from tropical_kummer.kummer import injectivity_check, psi_eval
from tropical_kummer.lattice import _lagrange_reduce
from tropical_kummer.sampling import (
    random_gram,
    random_point,
    random_surface,
    random_unimodular,
    rng_for,
)

F = Fraction
RATIONAL_HEX = [[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]]  # irreducible, gram_den 70


def test_make_surface_examples(hexagonal, unit_square):
    assert hexagonal.gram.inverse().rows() == (
        (F(2, 3), F(1, 3)),
        (F(1, 3), F(2, 3)),
    )
    assert unit_square.gram.inverse().rows() == ((1, 0), (0, 1))


def test_make_surface_rejects_bad_input():
    with pytest.raises(NotPositiveDefiniteError):
        make_surface([[1, 2], [2, 1]])
    with pytest.raises(NonSymmetricError):
        make_surface([[1, 2], [3, 1]])


def _reference_grams():
    """Seeded Grams from five families, as rows of Fractions."""
    rng = random.Random(1717)
    grams = []
    for _ in range(40):  # integer entries up to 10^6
        a, d = rng.randint(1, 10**6), rng.randint(1, 10**6)
        b = rng.randint(-math.isqrt(a * d - 1), math.isqrt(a * d - 1))
        grams.append(((a, b), (b, d)))
    for _ in range(40):  # rational entries, denominators up to 10^6
        a = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
        d = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
        b = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        while b * b >= a * d:
            b /= 2
        grams.append(((a, b), (b, d)))
    for _ in range(20):  # 300-digit entries
        a, d = rng.randint(10**299, 10**300 - 1), rng.randint(10**299, 10**300 - 1)
        b = rng.choice((-1, 1)) * rng.randint(0, math.isqrt(a * d - 1))
        grams.append(((a, b), (b, d)))
    for _ in range(40):  # nearly singular: det(G) = ad - isqrt(ad - 1)^2
        a, d = rng.randint(1, 10 ** rng.randint(1, 12)), rng.randint(1, 10**6)
        b = rng.choice((-1, 1)) * math.isqrt(a * d - 1)
        grams.append(((a, b), (b, d)))
    for i in range(40):  # U^T G U, U = [[1, p], [0, q]], q = +-1
        a, d = rng.randint(1, 50), rng.randint(1, 50)
        b = F(rng.randint(-math.isqrt(a * d - 1), math.isqrt(a * d - 1)), i % 3 + 1)
        p, sq = rng.randint(-10 ** (i % 7), 10 ** (i % 7)), rng.choice((-1, 1))
        c = a * p + b * sq
        grams.append(((a, c), (c, a * p * p + 2 * b * p * sq + d)))
    return grams


def _tie_grams():
    """Grams at the ties of the Lagrange rule, each also in a disguise U^T G U:
    2|Q(u,v)| = Q(u,u) (the half-up multiplier), Q(u,u) = Q(v,v) (the swap)
    and Q(u,v) = 0 (the decoupled signs)."""
    reduced = []
    for a in range(2, 13, 2):
        reduced += [((a, a // 2), (a // 2, d)) for d in (a, a + 1, 3 * a)]
        reduced += [((a, -a // 2), (-a // 2, d)) for d in (a, a + 3)]
        reduced += [((F(a, 3), F(a, 6)), (F(a, 6), F(a + 1, 3)))]
    for a in range(1, 9):
        reduced += [((a, b), (b, a)) for b in range(-(a // 2), a // 2 + 1)]
        reduced += [((a, 0), (0, d)) for d in (a, a + 1, 7 * a)]
        reduced += [((F(a, 5), 0), (0, F(a, 2)))]
    grams = []
    for i, ((a, b), (_, d)) in enumerate(reduced):
        p, q = i % 9 - 4, (1, -1)[i % 2]  # U = [[1, p], [0, q]]
        c = a * p + b * q
        grams += [((a, b), (b, d)), ((a, c), (c, a * p * p + 2 * b * p * q + d))]
    return grams


def _as_strings(rows, k):
    """The rows as "p/q" strings, numerator and denominator scaled by k."""
    return [[f"{F(e).numerator * k}/{F(e).denominator * k}" for e in r] for r in rows]


def _mixed(rows, k):
    """The rows with entries as ints (where integral), Fractions and strings."""
    kinds = (lambda e: F(e) if F(e).denominator > 1 else int(e), F, lambda e: str(F(e)))
    # b and c are of different kinds: the symmetry check compares across kinds.
    return [
        [kinds[(k + 2 * i + j) % 3](e) for j, e in enumerate(r)]
        for i, r in enumerate(rows)
    ]


def _assert_matches_reference(grams):
    fields = ("gram", "int_gram", "gram_den", "descent", "char_vectors", "conorms")
    kinds = set()
    for k, rows in enumerate(grams):
        s, ref = make_surface(rows), reference.surface_fields(rows)
        for name in fields:
            assert getattr(s, name) == ref[name], (rows, name)
        rb = lagrange_reduce(s)
        assert (rb.u.as_tuple(), rb.v.as_tuple(), rb.norms) == ref["reduced"], rows
        assert all(type(e) is int for e in (*s.int_gram, s.gram_den, *s.conorms)), rows
        # A Mat2, "p/q" strings (not all in lowest terms) and mixed entries
        # build the same surface as the rows.
        strings = _as_strings(rows, k % 3 + 1)
        for given in (Mat2.from_rows(rows), strings, _mixed(rows, k)):
            t = make_surface(given)
            for name in (*fields, "candidates"):
                assert getattr(t, name) == getattr(s, name), (given, name)
            assert t == s and hash(t) == hash(s) and repr(t) == repr(s), given
        # Selling: the cell is a hexagon exactly when all three conorms are
        # positive; otherwise u and v are orthogonal.
        kind = classify(s)
        kinds.add(kind)
        irreducible = kind is SurfaceClass.IRREDUCIBLE
        assert all(p > 0 for p in s.conorms) == irreducible, rows
        assert irreducible or s.conorms[0] == 0, rows
    assert kinds == set(SurfaceClass)  # the families hold both kinds


def test_make_surface_matches_fraction_reference():
    _assert_matches_reference(_reference_grams())


def test_make_surface_matches_fraction_reference_at_lagrange_ties():
    _assert_matches_reference(_tie_grams())


def test_lagrange_ties_catch_a_half_down_multiplier(monkeypatch):
    # Rounding the multiplier's halves down still reduces, to another basis:
    # at a tie, v - u and -v are both as short.
    half_down = source_mutant(
        lattice, "_lagrange_reduce", ("+ b) // (2 * b)", "+ b - 1) // (2 * b)")
    )
    monkeypatch.setattr(lattice, "_lagrange_reduce", half_down)
    with pytest.raises(AssertionError):
        _assert_matches_reference(_tie_grams())


NPD, NOT_PD = NotPositiveDefiniteError, "is not positive-definite"
NOT_SYM = "is not symmetric"


def _unpacking_error(rows):
    """The interpreter's own message for rows that are not two pairs."""
    try:
        (_, _), (_, _) = rows
    except (TypeError, ValueError) as exc:
        return str(exc)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([[1, 2], [3, 1]], NonSymmetricError, "matrix [[1, 2], [3, 1]] " + NOT_SYM),
        ([[1, 2], [2, 1]], NPD, "matrix [[1, 2], [2, 1]] " + NOT_PD),
        ([[2, 4], [4, 8]], NPD, "matrix [[2, 4], [4, 8]] " + NOT_PD),
        ([[-2, 1], [1, -2]], NPD, "matrix [[-2, 1], [1, -2]] " + NOT_PD),
        ([[0, 0], [0, 1]], NPD, "matrix [[0, 0], [0, 1]] " + NOT_PD),
        (
            [[F(1, 2), 1], [2, F(1, 3)]],
            NonSymmetricError,
            "matrix [[1/2, 1], [2, 1/3]] " + NOT_SYM,
        ),
        (
            [["2/4", "1/2"], ["1/3", 1]],
            NonSymmetricError,
            "matrix [[1/2, 1/2], [1/3, 1]] " + NOT_SYM,
        ),
        ([["2/4", 1], [1, "1/2"]], NPD, "matrix [[1/2, 1], [1, 1/2]] " + NOT_PD),
        ([[True, 0], [0, 1]], TypeError, "booleans are not rationals"),
        ([[1, 0], [0, 0.5]], TypeError, "cannot interpret 0.5 as an exact rational"),
        ([[1, 0], [0, None]], TypeError, "cannot interpret None as an exact rational"),
        ([[1, "x"], ["x", 1]], ValueError, "Invalid literal for Fraction: 'x'"),
        ([[1, 2], [3, "x"]], ValueError, "Invalid literal for Fraction: 'x'"),
        ([[1, "1/0"], ["1/0", 1]], ValueError, "zero denominator in '1/0'"),
        (None, TypeError, _unpacking_error(None)),
        ([[1], [2]], ValueError, _unpacking_error([[1], [2]])),
        ([[1, 0], [0, 1], [1]], ValueError, _unpacking_error([[1, 0], [0, 1], [1]])),
    ],
    ids=[
        "asymmetric",
        "indefinite",
        "singular",
        "negative-definite",
        "zero-corner",
        "asymmetric-and-indefinite",
        "asymmetric-strings",
        "indefinite-strings",
        "bool",
        "float",
        "none-entry",
        "junk-string",
        "junk-after-asymmetry",  # every entry is read before the symmetry check
        "zero-denominator",
        "none",
        "two-by-one",
        "three-rows",
    ],
)
def test_make_surface_rejects_like_the_reference(rows, error, message):
    with pytest.raises(error) as raised:
        make_surface(rows)
    assert str(raised.value) == message
    if error in (NonSymmetricError, NPD):  # the reference reads any entry F() takes
        with pytest.raises(error, match=r"^matrix .* is not") as expected:
            reference.surface_fields(rows)
        assert str(expected.value) == message


def test_dual_basis_pairing_is_kronecker(hexagonal, skew_hexagonal):
    for s in (hexagonal, skew_hexagonal):
        g = s.gram.inverse()  # its columns are the dual basis
        for i, f in enumerate((Vec2(1, 0), Vec2(0, 1))):
            for j, n in enumerate((Vec2(g.a, g.c), Vec2(g.b, g.d))):
                assert s.q(f, n) == int(i == j), (s.gram.describe(), i, j)


def test_lagrange_reduce_examples(hexagonal, unit_square, hidden_product):
    rb = lagrange_reduce(hexagonal)
    assert (rb.u, rb.v) == (Vec2(1, 0), Vec2(0, 1))
    assert rb.norms == (2, 2, -1)

    rb = lagrange_reduce(unit_square)
    assert (rb.u, rb.v) == (Vec2(1, 0), Vec2(0, 1))
    assert rb.norms == (1, 1, 0)

    rb = lagrange_reduce(hidden_product)
    assert (rb.u, rb.v) == (Vec2(1, -2), Vec2(1, -1))
    assert rb.norms == (1, 1, 0)


def test_reduced_basis_brute_force_minimality(hidden_product):
    # Shortest nonzero norms over a box certify the reduction of [[5,3],[3,2]].
    s = hidden_product
    norms = sorted(
        s.norm(Vec2(a, b))
        for a in range(-10, 11)
        for b in range(-10, 11)
        if (a, b) != (0, 0)
    )
    rb = lagrange_reduce(s)
    assert rb.norms[0] == norms[0] == 1
    assert rb.norms[1] == norms[1] == 1
    assert rb.norms[2] == 0


def test_reduction_invariants_on_random_matrices():
    for k in range(30):
        s = random_surface(rng_for(11, "reduction", k))
        rb = lagrange_reduce(s)
        quu, qvv, quv = rb.norms
        assert rb.u.x * rb.v.y - rb.u.y * rb.v.x in (-1, 1)
        assert quu <= qvv
        assert quv <= 0
        assert 2 * abs(quv) <= quu


def _seeded_grams():
    """About 200 seeded Grams: integer, rational, and product type in disguise."""
    grams = []
    for k in range(70):
        grams.append(random_gram(rng_for(19, "integer", k), 50))
    for k in range(70):
        rng = rng_for(19, "rational", k)
        den = rng.randint(2, 1000)
        g = random_gram(rng, 200)
        grams.append(Mat2(g.a / den, g.b / den, g.c / den, g.d / den))
    for k in range(60):  # U^T diag(a, d) U: product type, not diagonal at sight
        rng = rng_for(19, "product", k)
        u = random_unimodular(rng)
        diag = Mat2(rng.randint(1, 30), 0, 0, F(rng.randint(1, 30), rng.randint(1, 7)))
        grams.append(u.transpose().mul_mat(diag).mul_mat(u))
    return grams


def test_reduced_basis_is_built_on_first_read():
    # lagrange_reduce, built from the integer context on first read, equals the
    # basis make_surface used to build eagerly; classify's integer rule is its
    # norms[2] < 0; and the surface memoizes it.
    kinds = set()
    for g in _seeded_grams():
        s = make_surface(g)
        h, den = integer_gram(g)
        u, v = _lagrange_reduce(h)
        norms = tuple(F(form(h, a, b), den) for a, b in ((u, u), (v, v), (u, v)))
        assert s.lazy == {}
        rb = lagrange_reduce(s)
        assert rb == ReducedBasis(Vec2(*u), Vec2(*v), norms), g
        assert all(type(c) is F for c in (*rb.u.as_tuple(), *rb.v.as_tuple()))
        irreducible = classify(s) is SurfaceClass.IRREDUCIBLE
        assert irreducible == (norms[2] < 0), g
        assert lagrange_reduce(s) is rb
        kinds.add((irreducible, den > 1))
    assert kinds == {(True, False), (True, True), (False, False), (False, True)}


ROWS = ([[2, -1], [-1, 2]], [[2, -1], [-1, 3]], RATIONAL_HEX)


def test_embed_request_builds_no_lazy_data():
    y, yp = Vec2(F(1, 3), F(-2, 7)), Vec2(F(-7, 3), F(16, 7))
    pairs = ((y, yp), (y, -yp), (y, y + Vec2(1, -2)), (y, Vec2(F(1, 2), 0)))
    for rows in ROWS:
        for s in (make_surface(rows), make_surface(Mat2.from_rows(rows))):
            assert classify(s) is SurfaceClass.IRREDUCIBLE
            for pair in pairs:
                injectivity_check(s, *pair)
            psi_eval(s, Vec2(F(-9, 4), F(5, 3)))
            assert s.lazy == {}, rows
            assert s.gram is s.gram and s.gram == Mat2.from_rows(rows), rows


def test_embed_request_builds_only_the_fractions_it_returns(fractions_built):
    y, z = Vec2(F(1, 3), F(-2, 7)), Vec2(F(-9, 4), F(5, 3))
    plus, minus, other = y + Vec2(1, -2), -y + Vec2(3, 0), Vec2(F(1, 2), 0)
    fractions_built()
    for rows in ROWS[:2]:  # int rows
        s = make_surface(rows)
        assert fractions_built() == 0, rows
        psi_eval(s, z)
        assert fractions_built() == 3, rows  # its three coordinates
        for yp, verdict in ((plus, EquivalentPlus), (minus, EquivalentMinus)):
            assert type(injectivity_check(s, y, yp)) is verdict
            assert fractions_built() == 2, rows  # the shift's two coordinates
        assert type(injectivity_check(s, y, other)) is Distinct
        assert fractions_built() == 0, rows


def test_descent_datum_reads_the_given_gram_on_row_built_surfaces():
    # The datum's pairing comes from `gram`, which a row-built surface builds
    # from its rows, not from `int_gram`: one raised entry of `int_gram` fails
    # the cocycle row that compares the two.
    (row,) = [c for c in verify.CHECKS if c.name == "descent-datum-cocycle"]
    s = make_surface(RATIONAL_HEX)
    (h11, h12, h22) = s.int_gram
    raised = with_fields(s, int_gram=(h11 + 1, h12, h22))
    assert verify.run_check(row, s, 7, 20).status == verify.PASS
    result = verify.run_check(row, raised, 7, 20)
    assert result.status == verify.FAIL, result
    assert result.counterexample["problem"] == "gamma != Q(u,u)", result


def test_subdivide_builds_no_reduced_basis(hexagonal, skew_hexagonal):
    # The subdivision reads the facet cycle off the integer context: it memoizes
    # the Voronoi cell and itself, and never the rational reduced basis.
    for shared in (hexagonal, skew_hexagonal, make_surface(RATIONAL_HEX)):
        s = make_surface(shared.gram)
        subdivide(s)
        assert {build.__name__ for build in s.lazy} == {"voronoi_cell", "subdivide"}


def test_classify_examples(hexagonal, unit_square, hidden_product):
    assert classify(hexagonal) is SurfaceClass.IRREDUCIBLE
    assert classify(unit_square) is SurfaceClass.PRODUCT_TYPE
    assert classify(hidden_product) is SurfaceClass.PRODUCT_TYPE


def test_classify_is_congruence_invariant():
    for k in range(25):
        rng = rng_for(5, "congruence", k)
        s = random_surface(rng)
        u = random_unimodular(rng)
        conj = make_surface(u.transpose().mul_mat(s.gram).mul_mat(u))
        assert classify(conj) is classify(s)


def test_voronoi_hexagon_vertices(hexagonal):
    cell = voronoi_cell(hexagonal)
    assert cell.kind is CellKind.HEXAGON
    expected = [
        (F(-1, 3), F(-2, 3)),
        (F(1, 3), F(-1, 3)),
        (F(2, 3), F(1, 3)),
        (F(1, 3), F(2, 3)),
        (F(-1, 3), F(1, 3)),
        (F(-2, 3), F(-1, 3)),
    ]
    assert [m.as_tuple() for m in cell.vertices] == expected
    # Adjacent vertices of the facet defined by -v sum to -v.
    assert cell.vertices[0] + cell.vertices[1] == Vec2(0, -1)


def test_voronoi_rectangle(unit_square):
    cell = voronoi_cell(unit_square)
    assert cell.kind is CellKind.RECTANGLE
    corners = {m.as_tuple() for m in cell.vertices}
    assert corners == {
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(-1, 2), F(-1, 2)),
    }


def test_voronoi_relevant_norms(skew_hexagonal):
    rel = voronoi_cell(skew_hexagonal).relevant_vectors
    assert [skew_hexagonal.norm(r) for r in rel[:3]] == [2, 3, 3]


def test_facet_vertices_match_fraction_solve(hexagonal, skew_hexagonal, unit_square):
    # The integer solve on H against the Fraction solve on G, on about 200
    # seeded integer, rational and product-type Grams.
    kinds = set()
    for g in [hexagonal.gram, skew_hexagonal.gram, unit_square.gram, *_seeded_grams()]:
        u, v, (_, _, quv) = reference.surface_fields(g)["reduced"]
        u, v = Vec2(*u), Vec2(*v)
        w = -(u + v)
        cycle = (w, -v, u, -w, v, -u) if quv < 0 else (-v, u, v, -u)
        n = len(cycle)
        expected = tuple(
            reference.facet_vertex(g, cycle[i], cycle[(i + 1) % n]) for i in range(n)
        )
        s = make_surface(g)
        cell = voronoi_cell(s)
        assert cell.vertices == expected, g
        assert all(type(c) is F for m in cell.vertices for c in m.as_tuple()), g
        kinds.add((cell.kind, s.gram_den > 1))
    assert len(kinds) == 4, kinds


def _cell_probes(s, rng):
    """Vertices, facet midpoints r/2, subdivision vertices, reduced points."""
    cell = voronoi_cell(s)
    probes = {*cell.vertices, *(F(1, 2) * r for r in cell.relevant_vectors)}
    if classify(s) is SurfaceClass.IRREDUCIBLE:
        probes.update(p for c in subdivide(s) for p in c.vertices)
    probes.update(reduce_point(s, random_point(rng, 5))[0] for _ in range(6))
    return probes


def test_in_voronoi_cell_matches_fraction_reference(hexagonal, skew_hexagonal):
    # Seeded integer, rational and product-type Grams; every fourth also with
    # its descent cut to +-u, +-v, whose cell test reads the cut vectors only.
    eps = F(1, 10**9)
    moves = (Vec2(0, 0), Vec2(eps, 0), Vec2(-eps, 0), Vec2(0, eps), Vec2(0, -eps))
    grams = [hexagonal.gram, skew_hexagonal.gram, *_seeded_grams()]
    inside = outside = 0
    for k, g in enumerate(grams):
        s, ref = make_surface(g), reference.surface_fields(g)
        rel = [Vec2(*r) for r, _, _ in ref["descent"]]
        cut = rel[:2] + [-r for r in rel[:2]]  # +-u, +-v: the descent starts u, v
        cases = ((s, rel), (cut_descent(s), cut)) if k % 4 == 0 else ((s, rel),)
        for surface, vectors in cases:
            for p in _cell_probes(surface, rng_for(29, "cell-probe", k)):
                for move in moves:
                    y = p + move
                    expected = reference.in_cell(g, y, vectors)
                    assert in_voronoi_cell(surface, y) == expected, (g, y)
                    inside, outside = inside + expected, outside + (not expected)
    assert inside > 5000 and outside > 5000, (inside, outside)


def test_reduce_point_examples(hexagonal):
    x0, p = reduce_point(hexagonal, Vec2(F(3, 2), 0))
    assert (x0, p) == (Vec2(F(1, 2), 0), Vec2(1, 0))

    x0, p = reduce_point(hexagonal, Vec2(0, 0))
    assert (x0, p) == (Vec2(0, 0), Vec2(0, 0))

    tiny = Vec2(F(1, 10), F(1, 10))
    x0, p = reduce_point(hexagonal, tiny)
    assert (x0, p) == (tiny, Vec2(0, 0))
    assert all(
        hexagonal.norm(tiny - r) > hexagonal.norm(tiny)
        for r in voronoi_cell(hexagonal).relevant_vectors
    )


def test_reduce_point_matches_brute_force_cvp(hexagonal):
    for k in range(1000):
        x = random_point(rng_for(31, "cvp", k), 5)
        x0, _ = reduce_point(hexagonal, x)
        assert hexagonal.norm(x0) == reference.certified_minimum(hexagonal.gram, -x)[0]


def test_reduce_point_matches_cvp_on_random_surfaces():
    for k in range(8):
        rng = rng_for(37, "cvp-surface", k)
        s = random_surface(rng)
        for j in range(12):
            x = random_point(rng_for(37, "cvp-point", k, j), 5)
            x0, _ = reduce_point(s, x)
            assert s.norm(x0) == reference.certified_minimum(s.gram, -x)[0]


def test_descend_raises_on_swapped_descent_norms(skew_hexagonal):
    # descend ends because each step lowers the integer t^T H t >= 0: Q drops
    # strictly over a discrete set.  With the stored r^T H r of u = (1, 0) and
    # v = (0, 1) swapped, (-1, -7/2) cycled without end; now a pass raises.
    s = skew_hexagonal
    swapped = {(1, 0): 3, (-1, 0): 3, (0, 1): 2, (0, -1): 2}  # 2 and 3 in H
    descent = tuple((r, hr, swapped.get(r, n)) for r, hr, n in s.descent)
    bad = with_fields(s, descent=descent)
    start = time.perf_counter()
    with pytest.raises(InternalInconsistencyError, match="did not lower t"):
        reduce_point(bad, Vec2(-1, F(-7, 2)))
    assert time.perf_counter() - start < 1


def test_subdivide_sigma_cell(hexagonal):
    (sigma,) = [c for c in subdivide(hexagonal) if c.label == "sigma1"]
    assert set(p.as_tuple() for p in sigma.vertices) == {
        (F(0), F(0)),
        (F(-1, 6), F(-1, 3)),  # midpoint of the m2--m6 chord
        (F(-1, 2), F(-1, 2)),  # half of w
    }


def test_subdivide_area_adds_to_covolume(hexagonal, skew_hexagonal):
    for s in (hexagonal, skew_hexagonal):
        cells = subdivide(s)
        assert len(cells) == 18
        assert sum(c.area() for c in cells) == 1


def test_subdivide_rejects_product_type(unit_square):
    with pytest.raises(ProductTypeError):
        subdivide(unit_square)


def test_subdivision_cells_stay_in_cell(hexagonal, skew_hexagonal):
    for s in (hexagonal, skew_hexagonal):
        for cell in subdivide(s):
            for p in cell.vertices:
                assert in_voronoi_cell(s, p), (s.gram.describe(), cell.label, p)


def test_first_quadrilateral_translates_into_cell(hexagonal, skew_hexagonal):
    # Shifting the first quadrilateral by v/2 or by -w/2 stays inside.
    for s in (hexagonal, skew_hexagonal):
        rb = lagrange_reduce(s)
        first = [cell for cell in subdivide(s) if cell.quadrilateral == 1]
        assert len(first) == 3
        for shift in (F(1, 2) * rb.v, F(1, 2) * -rb.w):
            for cell in first:
                for p in cell.vertices:
                    assert in_voronoi_cell(s, p + shift), (cell.label, p, shift)


def test_subdivision_quadrant_labels(hexagonal, skew_hexagonal):
    expected = sorted(
        f"{kind}{q}" for kind in ("sigma", "tau", "rho") for q in range(1, 7)
    )
    for s in (hexagonal, skew_hexagonal, make_surface(RATIONAL_HEX)):
        cells = subdivide(s)
        assert sorted(c.label for c in cells) == expected
        # Antipodal quadrants carry antipodal cells, though each is built alone.
        by_label = {c.label: c for c in cells}
        for kind in ("sigma", "tau", "rho"):
            for q in (1, 2, 3):
                a, b = by_label[f"{kind}{q}"], by_label[f"{kind}{q + 3}"]
                assert tuple(-p for p in a.vertices) == b.vertices, s.gram
