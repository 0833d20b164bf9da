import hashlib
import math
from fractions import Fraction

import pytest
import reference
from conftest import cut_descent, source_mutant, with_fields
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel_pinned import GRAMS, _boundary_points, _sheared
from test_theta import _vec

from tropical_kummer import (
    CHARACTERISTICS,
    Distinct,
    EquivalentMinus,
    EquivalentPlus,
    FacePlane,
    InternalInconsistencyError,
    KummerQuartic,
    NotAffineOnCellError,
    ProductTypeError,
    SurfaceClass,
    Vec2,
    Vec3,
    affine_pieces,
    build_quartic,
    classify,
    coplanarity_report,
    g_action,
    injectivity_check,
    lagrange_reduce,
    make_surface,
    psi_eval,
    subdivide,
    theta_constants,
    theta_eval,
    two_torsion_images,
    vertex_sign_diagnostics,
)
from tropical_kummer import kummer, theta, verify
from tropical_kummer.exact import mean, numerators
from tropical_kummer.kummer import AffinePiece, _validate_quartic
from tropical_kummer.kummer import contains_step, psi_step
from tropical_kummer.sampling import (
    random_integer_vector,
    random_irreducible_surface,
    random_point,
    rng_for,
)

F = Fraction
H = F(1, 2)


def test_psi_examples(hexagonal):
    assert psi_eval(hexagonal, Vec2(0, 0)) == Vec3(H, H, H)
    assert psi_eval(hexagonal, Vec2(H, 0)) == Vec3(-H, 0, 0)


def test_psi_is_lattice_periodic(hexagonal, skew_hexagonal, unit_square):
    for s in (hexagonal, skew_hexagonal, unit_square):
        for k in range(25):
            rng = rng_for(41, "periodic", k)
            x = random_point(rng, 3)
            shift = random_integer_vector(rng, 3)
            assert psi_eval(s, x) == psi_eval(s, x + shift)


PSI_GRAMS = GRAMS + (
    _sheared(((2, -1), (-1, 2)), 5),
    _sheared(((5, 3), (3, 2)), -4),
    _sheared(((F(7, 3), F(1, 2)), (F(1, 2), F(5, 11))), 9),
)


@pytest.mark.parametrize("index", range(len(PSI_GRAMS)))
def test_psi_is_its_theta_differences(index):
    # psi(x) = (th10 - th00, th01 - th00, th11 - th00)(x), each th from
    # theta_eval at x itself, not at its reduction into the cell.
    surface = make_surface(PSI_GRAMS[index])
    rng = rng_for(47, "psi-definition", index)
    points = _boundary_points(surface)
    for bound in (1, 10, 10**3):
        for _ in range(8):
            den = rng.randint(1, 97)
            points.append(
                Vec2(*(F(rng.randint(-bound * den, bound * den), den) for _ in "xy"))
            )
    for x in points:
        th00, th10, th01, th11 = (
            theta_eval(surface, char, x).value for char in CHARACTERISTICS
        )
        assert psi_eval(surface, x) == Vec3(th10 - th00, th01 - th00, th11 - th00), x


@pytest.mark.parametrize("index", range(len(PSI_GRAMS)))
def test_psi_step_is_psi_eval_and_the_reference(index):
    # psi_step's numerators over gram_den (2 den)^2 are psi_eval's triple and
    # the differences of `reference.certified_minimum` at x + c/2, where Q(x)
    # cancels; (k t, k den) gives k^2 times each.
    gram = PSI_GRAMS[index]
    surface = make_surface(gram)
    chars = reference.surface_fields(gram)["char_vectors"]
    for j in range(20):
        rng = rng_for(29, "psi-step", index, j)
        x = random_point(rng, 3)
        t0, t1, den = numerators(x)
        k = rng.randint(2, 7)
        nums = psi_step(surface, t0, t1, den)
        values = [F(n, surface.gram_den * (2 * den) ** 2) for n in nums]
        assert Vec3(*values) == psi_eval(surface, x), (gram, x)
        least = [reference.certified_minimum(gram, x + H * Vec2(*c))[0] for c in chars]
        assert values == [m - least[0] for m in least[1:]], (gram, x)
        scaled = psi_step(surface, k * t0, k * t1, k * den)
        assert scaled == tuple(k * k * n for n in nums), (gram, x, k)


# Integer, rational, product-type, sheared and nearly singular Grams.
BOUNDARY_GRAMS = PSI_GRAMS + (
    ((1, 0), (0, 1)),
    ((10**4, 1 - 10**4), (1 - 10**4, 10**4)),
    ((10**4, 0), (0, 1)),
    ((F(1, 3), F(-1, 3) + F(1, 10**4)), (F(-1, 3) + F(1, 10**4), F(1, 3))),
)


def _reference_boundary(gram):
    """0, the cell's vertices m_i and facet midpoints r/2 and, on a hexagon,
    the points (m_{i-1} + m_{i+1})/2: every vertex of the 18 subdivision
    cells.  Built from the reference's Fraction reduction alone, with the
    relevant vectors in the facet order w, -v, u, -w, v, -u (or -v, u, v, -u)."""
    u, v, (_, _, q_uv) = reference.surface_fields(gram)["reduced"]
    u, v = Vec2(*u), Vec2(*v)
    half = (-(u + v), -v, u) if q_uv < 0 else (-v, u)
    cycle = half + tuple(-r for r in half)
    pairs = zip(cycle, cycle[1:] + cycle[:1])
    m = [reference.facet_vertex(gram, a, b) for a, b in pairs]
    points = [Vec2(0, 0), *m, *(H * r for r in cycle)]
    if q_uv < 0:
        points += [H * (m[i - 1] + m[(i + 1) % 6]) for i in range(6)]
    return points


BOUNDARY_CASES = [
    (gram, x) for gram in BOUNDARY_GRAMS for x in _reference_boundary(gram)
]


def _psi_by_definition(gram, x):
    """theta_c - theta_00 at x: `certified_minimum` at x + c/2 less that at x."""
    chars = reference.surface_fields(gram)["char_vectors"]
    least = [reference.certified_minimum(gram, x + H * Vec2(*c))[0] for c in chars]
    return [m - least[0] for m in least[1:]]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from(BOUNDARY_CASES),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(1, 6),
)
def test_psi_step_on_the_cell_boundary_is_its_definition(case, shift, k):
    # Where the closed form's candidates tie, shifted by a period and read
    # over k times the least denominator: the cell's vertices and facet
    # midpoints, and the subdivision's vertices.
    gram, x = case
    x += Vec2(*shift)
    surface = make_surface(gram)
    t0, t1, den = numerators(x)
    nums = psi_step(surface, k * t0, k * t1, k * den)
    values = [F(n, surface.gram_den * (2 * k * den) ** 2) for n in nums]
    assert values == _psi_by_definition(gram, x), (gram, x, k)


def test_psi_step_on_every_boundary_point_is_its_definition():
    for gram, x in BOUNDARY_CASES:
        surface, (t0, t1, den) = make_surface(gram), numerators(x)
        scale = surface.gram_den * (2 * den) ** 2
        values = [F(n, scale) for n in psi_step(surface, t0, t1, den)]
        assert values == _psi_by_definition(gram, x), (gram, x)


def _failing_rows_with_kernel(monkeypatch, *edits):
    """The rows that `verify` fails on hex and on skew (seed 7, 50 samples)
    with `theta_numerators` rebuilt with each (old, new) of `edits` made, bound
    wherever the program reads it."""
    mutant = source_mutant(theta, "theta_numerators", *edits)
    for module in (theta, kummer, verify):
        monkeypatch.setattr(module, "theta_numerators", mutant)
    failing = []
    for gram in (((2, -1), (-1, 2)), ((2, -1), (-1, 3))):
        report = verify.run_verification(make_surface(gram), seed=7, samples=50)
        failing.append({c.name for c in report.checks if c.status == verify.FAIL})
    return failing


def test_verify_fails_when_psi_keeps_only_the_c_candidate(monkeypatch):
    # The kernel without its c + 2c' candidates: psi's images leave the
    # quartic, the pieces stop being affine, theta parts from the box walk,
    # the series and the translation identities, and on hex two equivalent
    # points part.
    candidates = (
        ("den * h1 - abs(a)", "den * q1 - abs(a + 2 * b)"),
        ("den * h2 - abs(b)", "den * q2 - abs(b + 2 * a)"),
        ("den * h3 - abs(a + b)", "den * q3 - abs(a - b)"),
    )
    c_only = [(f"min({c}, {q})", f"({c})") for c, q in candidates]
    hexagonal, skew = _failing_rows_with_kernel(monkeypatch, *c_only)
    rows = {
        "quartic-coverage",
        "affine-unimodularity",
        "coplanarity-table",
        "theta-bruteforce-oracle",
        "series-lift-consistency",
        "theta-translation-identities",
    }
    assert hexagonal == rows | {"psi-injectivity-mod-sign"}
    assert skew == rows | {"theta-concavity"}


def test_verify_fails_when_the_kernel_flips_the_descent_term(monkeypatch):
    # theta_00 = 4 (h(r) - h(t)) negated: psi, its differences, is untouched,
    # but every theta value parts from the box walk, the series and the
    # translation identities, and stops being concave.
    flip = ("base = 4 * (", "base = -4 * (")
    rows = {
        "theta-bruteforce-oracle",
        "series-lift-consistency",
        "theta-translation-identities",
        "theta-concavity",
    }
    assert _failing_rows_with_kernel(monkeypatch, flip) == [rows, rows]


def test_g_action_examples():
    p = (0, H, H, H)
    assert g_action(((0, 1, 2, 3), False), p) == Vec3(H, H, H)
    assert g_action(((1, 0, 3, 2), False), p) == Vec3(-H, 0, 0)
    assert g_action(((0, 1, 2, 3), True), p) == Vec3(-H, -H, -H)


def test_g_action_rejects_bad_input():
    with pytest.raises(ValueError):
        g_action(((0, 0, 1, 2), False), (0, 1, 2, 3))
    with pytest.raises(ValueError):
        g_action(((0, 1, 2, 3), False), (0, 1, 2))
    # bool entries sort as 0 and 1, and "no" is truthy: both are refused.
    with pytest.raises(ValueError, match="permutation"):
        g_action(((False, True, 2, 3), False), (0, 1, 2, 3))
    for flag in ("no", 1, None):
        with pytest.raises(ValueError, match="flag"):
            g_action(((0, 1, 2, 3), flag), (0, 1, 2, 3))


def test_quartic_vertices_symmetric_example(hexagonal):
    quartic = build_quartic(hexagonal)
    expected = {
        (H, H, H),
        (-H, 0, 0),
        (0, -H, 0),
        (0, 0, -H),
        (-H, -H, -H),
        (H, 0, 0),
        (0, H, 0),
        (0, 0, H),
    }
    assert {v.as_tuple() for v in quartic.vertices} == expected
    # Edges from the antipodal base vertex span the parallelepiped.
    base = quartic.vertex("tau_tilde_0")
    edges = {
        (quartic.vertex(f"tau_{i}") - base).as_tuple() for i in (1, 2, 3)
    }
    assert edges == {(0, H, H), (H, 0, H), (H, H, 0)}


def test_quartic_requires_irreducible(unit_square):
    with pytest.raises(ProductTypeError):
        build_quartic(unit_square)


def test_quartic_skew_example(skew_hexagonal):
    quartic = build_quartic(skew_hexagonal)
    assert quartic.vertex("tau_0") == Vec3(H, F(3, 4), F(3, 4))


def test_quartic_vertex_set_is_antipodally_stable(skew_hexagonal):
    vertices = build_quartic(skew_hexagonal).vertices
    assert set(vertices) == {-v for v in vertices}


def test_face_offsets_come_in_opposite_pairs(hexagonal, skew_hexagonal):
    for s in (hexagonal, skew_hexagonal):
        faces = build_quartic(s).faces
        by_normal = {}
        for f in faces:
            by_normal.setdefault(f.normal, []).append(f.offset)
        assert len(by_normal) == 3
        for offsets in by_normal.values():
            assert len(offsets) == 2
            assert offsets[0] == -offsets[1]


def _contains(quartic, p):
    """`contains_step` on p's numerators over their least common denominator."""
    d = math.lcm(*(c.denominator for c in p.as_tuple()))
    return contains_step(quartic, *(int(c * d) for c in p.as_tuple()), d)


def test_contains_examples(hexagonal):
    quartic = build_quartic(hexagonal)
    assert _contains(quartic, quartic.vertex("tau_0"))
    assert not _contains(quartic, Vec3(0, 0, 0))
    assert _contains(quartic, psi_eval(hexagonal, Vec2(F(1, 5), F(1, 7))))


def test_contains_rejects_points_off_the_faces(hexagonal):
    quartic = build_quartic(hexagonal)
    # On the right plane but outside the face quadrilateral.
    assert not _contains(quartic, Vec3(F(5, 2), F(5, 2), F(9, 2)))
    # Conorms (1, 2, 2), face offsets 1/2, 1 and 1: (1, 0, 0) lies on two
    # faces and has gauge 2 on the third, where num - d on = d on = 1.
    narrow = build_quartic(make_surface([[3, -2], [-2, 4]]))
    assert not contains_step(narrow, 1, 0, 0, 1)


def _random_rational_irreducible(rng):
    """An irreducible surface with entries up to 9 over denominators up to 7."""
    while True:
        den = rng.randint(1, 7)
        a, b, d = (F(rng.randint(lo * den, 9 * den), den) for lo in (1, -9, 1))
        if a * d > b * b:
            surface = make_surface([[a, b], [b, d]])
            if classify(surface) is SurfaceClass.IRREDUCIBLE:
                return surface


def _gauge_probes(quartic, surface, rng):
    """Vertices, points on and around the faces, interior, exterior, psi images.

    A point is base + a e1 + b e2 + c e3 in the parallelepiped's own
    coordinates; face points have one coordinate at 0 or 1 and the others in
    [-1/4, 5/4], so they land on faces, on edges and beyond face edges.
    """
    base = quartic.vertex("tau_tilde_0")
    edges = [quartic.vertex(f"tau_{i}") - base for i in (3, 2, 1)]

    def at(coords):
        return base + sum((c * e for c, e in zip(coords, edges)), Vec3(0, 0, 0))

    grid = [F(k, 8) for k in range(-2, 11)]
    probes = list(quartic.vertices)
    for _ in range(8):
        coords = [rng.choice(grid) for _ in range(3)]
        coords[rng.randrange(3)] = F(rng.randint(0, 1))
        probes.append(at(coords))
    probes += [at([F(rng.randint(1, 7), 8) for _ in range(3)]) for _ in range(2)]
    for _ in range(2):
        coords = [rng.choice(grid) for _ in range(3)]
        coords[rng.randrange(3)] = rng.choice((F(-1, 3), F(4, 3), F(7, 2)))
        probes.append(at(coords))
    probes += [psi_eval(surface, random_point(rng, 3)) for _ in range(3)]
    return probes


def test_contains_is_the_face_gauge(hexagonal, skew_hexagonal):
    # The gauge against the face-by-face solve on 3 + 150 + 60 irreducible
    # surfaces, 23 points each.
    surfaces = [
        hexagonal,
        skew_hexagonal,
        make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]]),
    ]
    surfaces += [
        random_irreducible_surface(rng_for(61, "gauge", k), max_entry=9)
        for k in range(150)
    ]
    surfaces += [
        _random_rational_irreducible(rng_for(61, "gauge-rational", k))
        for k in range(60)
    ]
    on = off = 0
    for k, surface in enumerate(surfaces):
        quartic = build_quartic(surface)
        faces = [
            (f.normal, f.offset, [quartic.vertex(i) for i in f.vertex_ids])
            for f in quartic.faces
        ]
        for p in _gauge_probes(quartic, surface, rng_for(61, "probe", k)):
            expected = reference.contains_by_solving(faces, p)
            assert _contains(quartic, p) == expected, (surface.gram, p)
            on, off = on + expected, off + (not expected)
    assert on > 2000 and off > 1000, (on, off)


def test_contains_raises_on_a_zero_offset(hexagonal):
    # Only a hand-built quartic has one; the gauge would divide by zero.
    quartic = build_quartic(hexagonal)
    section = FacePlane((1, -1, 0), F(0), quartic.faces[0].vertex_ids, ())
    faces = (section,) + quartic.faces[1:]
    hand_built = KummerQuartic(quartic.vertices, faces, quartic.theta_constants)
    with pytest.raises(ZeroDivisionError):
        _contains(hand_built, Vec3(0, 0, 0))


def test_contains_step_reads_any_common_denominator(hexagonal, skew_hexagonal):
    # (x, y, z) / d and (k x, k y, k z) / (k d) are one point, for k of
    # either sign: the same answer as on the least d.
    for i, surface in enumerate((hexagonal, skew_hexagonal)):
        quartic = build_quartic(surface)
        for p in _gauge_probes(quartic, surface, rng_for(62, "probe", i)):
            d = math.lcm(*(c.denominator for c in p.as_tuple()))
            x, y, z = (int(c * d) for c in p.as_tuple())
            for k in (1, 2, 3, 12, -1, -7):
                got = contains_step(quartic, k * x, k * y, k * z, k * d)
                assert got == _contains(quartic, p), (surface.gram, p, k)


def test_contains_step_on_psi_numerators_matches_the_face_solve(
    hexagonal, skew_hexagonal
):
    # psi_step's numerators over gram_den (2 den)^2, from the true descent
    # (on the quartic) and from a cut one (often off it), against the
    # face-by-face solve of the same point.
    rational = make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]])
    on = off = 0
    for surface in (hexagonal, skew_hexagonal, rational):
        quartic = build_quartic(surface)
        faces = [
            (f.normal, f.offset, [quartic.vertex(i) for i in f.vertex_ids])
            for f in quartic.faces
        ]
        for s in (surface, cut_descent(surface)):
            for k in range(40):
                t0, t1, den = numerators(random_point(rng_for(62, "psi", k), 4))
                nums, scale = psi_step(s, t0, t1, den), 4 * s.gram_den * den * den
                p = Vec3(*(F(n, scale) for n in nums))
                expected = reference.contains_by_solving(faces, p)
                assert contains_step(quartic, *nums, scale) == expected, (s.gram, p)
                on, off = on + expected, off + (not expected)
    assert on >= 120 and off > 0, (on, off)


def test_both_gauge_entries_raise_on_a_zero_offset(hexagonal):
    # A point read off a Vec3 and raw numerators over any denominator both
    # reach the zero-offset face first, so both divide by zero.
    quartic = build_quartic(hexagonal)
    section = FacePlane((1, -1, 0), F(0), quartic.faces[0].vertex_ids, ())
    faces = (section,) + quartic.faces[1:]
    hand_built = KummerQuartic(quartic.vertices, faces, quartic.theta_constants)
    with pytest.raises(ZeroDivisionError):
        _contains(hand_built, Vec3(0, 0, 0))
    for x, y, z, d in ((0, 0, 0, 1), (0, 0, 0, -3), (1, 1, 1, 2)):
        with pytest.raises(ZeroDivisionError):
            contains_step(hand_built, x, y, z, d)


def _quartic_coverage(s, rng):
    # The Fraction statement of the `quartic-coverage` row, which runs on
    # `psi_step` numerators and `contains_step`.
    x = random_point(rng, 4)
    image = psi_eval(s, x)
    if not _contains(build_quartic(s), image):
        return {"x": _vec(x), "psi": _vec(image)}


def test_validate_quartic_guards_the_gauge(hexagonal):
    quartic = build_quartic(hexagonal)
    _validate_quartic(quartic.vertices, quartic.faces)
    # The diagonal section through the centre holds its four vertices, but
    # its offset is 0, so the gauge would divide by zero.
    section = FacePlane(
        (1, -1, 0), F(0), ("tau_tilde_0", "tau_3", "tau_tilde_3", "tau_0"), ()
    )
    with pytest.raises(InternalInconsistencyError, match="centre"):
        _validate_quartic(quartic.vertices, (section,) + quartic.faces[1:])
    # A plane through tau_0 and tau_3 alone, with tau_tilde_1 beyond it.
    beyond = FacePlane((2, 0, -1), H, ("tau_0", "tau_3", "tau_0", "tau_3"), ())
    with pytest.raises(InternalInconsistencyError, match="tau_tilde_1: gauge 2"):
        _validate_quartic(quartic.vertices, (beyond,) + quartic.faces[1:])


def test_injectivity_examples(hexagonal):
    y = Vec2(F(1, 5), 0)
    assert injectivity_check(hexagonal, y, y + Vec2(3, -2)) == EquivalentPlus(
        Vec2(3, -2)
    )
    assert injectivity_check(hexagonal, y, -y) == EquivalentMinus(Vec2(0, 0))
    verdict = injectivity_check(hexagonal, y, Vec2(0, F(1, 5)))
    assert isinstance(verdict, Distinct)


def test_injectivity_rejects_product(unit_square):
    with pytest.raises(ProductTypeError):
        injectivity_check(unit_square, Vec2(0, 0), Vec2(0, 0))


def test_injectivity_check_raises_on_an_inconsistent_embedding(monkeypatch, hexagonal):
    # psi_step replaced by maps that break the criterion one way or the other:
    # psi(x) = (x, 0) / (4 gram_den), then psi = (1, 2, 3) everywhere.
    y = Vec2(F(1, 5), 0)
    def linear(surface, t0, t1, den):
        return t0 * den, t1 * den, 0

    monkeypatch.setattr(kummer, "psi_step", linear)
    for yp in (y + Vec2(3, -2), -y):
        with pytest.raises(InternalInconsistencyError) as raised:
            injectivity_check(hexagonal, y, yp)
        assert str(raised.value) == (
            f"equivalent points {y.as_tuple()}, {yp.as_tuple()} have distinct images"
        )
    def constant(surface, t0, t1, den):
        return tuple(c * 4 * surface.gram_den * den * den for c in (1, 2, 3))

    monkeypatch.setattr(kummer, "psi_step", constant)
    with pytest.raises(InternalInconsistencyError) as raised:
        injectivity_check(hexagonal, y, Vec2(0, F(1, 5)))
    assert str(raised.value) == (
        f"{y.as_tuple()} and {Vec2(0, F(1, 5)).as_tuple()} are inequivalent but "
        f"share the image {Vec3(1, 2, 3).as_tuple()}"
    )


# Coordinates up to |10|, over denominators small or up to 10^29, so
# numerators reach 10^30 while psi_eval's descent stays short.
_dens = st.one_of(st.integers(1, 12), st.integers(1, 10**29))
_coords = _dens.flatmap(
    lambda d: st.builds(F, st.integers(-10 * d, 10 * d), st.just(d))
)
_lattice = st.builds(Vec2, st.integers(-3, 3), st.integers(-3, 3))
_EQUIVALENCE_SURFACES = (
    make_surface([[2, -1], [-1, 3]]),
    make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]]),
)


@st.composite
def _pairs(draw):
    y = Vec2(draw(_coords), draw(_coords))
    modes = ("plus", "minus", "torsion", "same-den", "swapped-den", "free")
    mode = draw(st.sampled_from(modes))
    if mode == "torsion":  # y = -y mod Z^2: both sums are integral
        y = Vec2(*(F(draw(st.integers(-5, 5)), 2) for _ in range(2)))
    if mode in ("plus", "torsion"):
        return y, y + draw(_lattice)
    if mode == "minus":
        return y, -y + draw(_lattice)
    if mode == "same-den":  # y's denominators, other numerators
        dens = (y.x.denominator, y.y.denominator)
        return y, Vec2(*(F(draw(st.integers(-10 * d, 10 * d)), d) for d in dens))
    if mode == "swapped-den":  # y's denominators exchanged: the same lcm
        return y, Vec2(y.y, y.x) + draw(_lattice)
    return y, Vec2(draw(_coords), draw(_coords))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_EQUIVALENCE_SURFACES), _pairs())
def test_injectivity_numerator_rule_matches_fraction_sums(surface, pair):
    y, yp = pair
    verdict, want = injectivity_check(surface, y, yp), reference.verdict(y, yp)
    if want is None:
        assert isinstance(verdict, Distinct)
    else:
        kind = EquivalentPlus if want[0] == 1 else EquivalentMinus
        assert verdict == kind(want[1])
        shift = verdict.shift.as_tuple()
        assert all(type(c) is F and c.denominator == 1 for c in shift)


def test_injectivity_numerator_rule_examples(hexagonal):
    big = 10**30
    for y in (Vec2(H, 0), Vec2(0, -H), Vec2(H, H), Vec2(0, 0), Vec2(F(-7, 2), 1)):
        for shift in (Vec2(0, 0), Vec2(3, -2)):
            assert injectivity_check(hexagonal, y, y + shift) == EquivalentPlus(shift)
    y = Vec2(F(big - 1, big), F(-big - 3, big))  # both in lowest terms over 10^30
    assert injectivity_check(hexagonal, y, -y + Vec2(2, 1)) == EquivalentMinus(
        Vec2(2, 1)
    )
    assert injectivity_check(hexagonal, y, y + Vec2(-1, 3)) == EquivalentPlus(
        Vec2(-1, 3)
    )
    # Unequal denominators: never equivalent, whatever the numerators.
    for yp in (Vec2(F(big - 1, 2 * big), y.y), Vec2(y.x, F(1, 3)), Vec2(F(1, 2), 0)):
        assert isinstance(injectivity_check(hexagonal, y, yp), Distinct)


def _injectivity_by_fractions(surface, y, yp):
    """`injectivity_check` with psi_eval's Fraction images compared as Vec3s."""
    image_y, image_yp = psi_eval(surface, y), psi_eval(surface, yp)
    (a, b), (c, d) = y.x.as_integer_ratio(), y.y.as_integer_ratio()
    (e, f), (g, k) = yp.x.as_integer_ratio(), yp.y.as_integer_ratio()
    if b == f and d == k:
        for verdict, sign in ((EquivalentPlus, -1), (EquivalentMinus, 1)):
            p0, p1 = e + sign * a, g + sign * c
            if p0 % b == 0 and p1 % d == 0:
                if image_y != image_yp:
                    raise InternalInconsistencyError(
                        f"equivalent points {y.as_tuple()}, {yp.as_tuple()} "
                        "have distinct images"
                    )
                return verdict(Vec2(p0 // b, p1 // d))
    for char, a, b in zip(CHARACTERISTICS[1:], image_y.as_tuple(), image_yp.as_tuple()):
        if a != b:
            return Distinct(char)
    raise InternalInconsistencyError(
        f"{y.as_tuple()} and {yp.as_tuple()} are inequivalent but share "
        f"the image {image_y.as_tuple()}"
    )


def _outcome(check, surface, y, yp):
    try:
        return check(surface, y, yp)
    except InternalInconsistencyError as exc:
        return str(exc)


def test_injectivity_check_matches_its_fraction_statement(hexagonal, skew_hexagonal):
    # The integer comparison of psi_step numerators against psi_eval's
    # Vec3s, on pairs drawn as the verify row draws them; the cut descents
    # make equivalent points' images differ.
    surfaces = [hexagonal, skew_hexagonal, make_surface(PSI_GRAMS[2])]
    surfaces += [make_surface(g) for g in PSI_GRAMS[5:]]
    surfaces += [cut_descent(s) for s in surfaces]
    surfaces = [s for s in surfaces if classify(s) is SurfaceClass.IRREDUCIBLE]
    raised = set()
    for i, surface in enumerate(surfaces):
        for k in range(60):
            rng = rng_for(31, "injectivity-twin", i, k)
            y, mode = random_point(rng, 3), rng.randrange(3)
            if mode == 0:
                yp = y + random_integer_vector(rng, 3)
            elif mode == 1:
                yp = -y + random_integer_vector(rng, 3)
            else:
                yp = random_point(rng, 3)
            want = _outcome(_injectivity_by_fractions, surface, y, yp)
            assert _outcome(injectivity_check, surface, y, yp) == want, (i, y, yp)
            raised.add(isinstance(want, str))
    assert raised == {True, False}


def test_affine_pieces_sigma_linear_part(hexagonal):
    pieces = affine_pieces(hexagonal)
    sigma = next(p for p in pieces if p.cell.label == "sigma1")
    assert sigma.linear_part == ((1, 0), (0, 1), (1, 1))
    assert sigma.unimodular


def test_affine_pieces_all_unimodular(hexagonal, skew_hexagonal):
    for s in (hexagonal, skew_hexagonal):
        pieces = affine_pieces(s)
        assert len(pieces) == 18
        assert [p.cell.label for p in pieces if not p.unimodular] == []


def test_affine_pieces_antipodal_cells_negate(hexagonal):
    # Quadrilateral q + 3 negates q, cell and linear part alike.
    at = {(p.cell.kind, p.cell.quadrilateral): p for p in affine_pieces(hexagonal)}
    for (kind, q), piece in at.items():
        antipode = at[kind, (q + 2) % 6 + 1]
        assert set(antipode.cell.vertices) == {-p for p in piece.cell.vertices}
        negated = tuple((-r[0], -r[1]) for r in piece.linear_part)
        assert antipode.linear_part == negated, piece.cell.label


def test_affine_pieces_offset_reproduces_values(hexagonal):
    for piece in affine_pieces(hexagonal):
        rows = piece.linear_part
        for p in piece.cell.vertices:
            dual = hexagonal.gram.mul_vec(p)  # dual-basis coordinates
            image = Vec3(
                rows[0][0] * dual.x + rows[0][1] * dual.y + piece.offset.x,
                rows[1][0] * dual.x + rows[1][1] * dual.y + piece.offset.y,
                rows[2][0] * dual.x + rows[2][1] * dual.y + piece.offset.z,
            )
            assert image == psi_eval(hexagonal, p)


@pytest.mark.parametrize("coordinate", range(3))
def test_affine_check_fires_on_every_coordinate(monkeypatch, coordinate):
    # psi's numerator off by 1, the least change it can show, in one
    # coordinate at the hexagon vertex m_i, which lies on the cell tau_i alone.
    exact_psi, label = kummer.psi_step, f"tau{coordinate + 1}"
    for gram in (((2, -1), (-1, 2)), ((2, -1), (-1, 3))):
        (cell,) = [c for c in subdivide(make_surface(gram)) if c.label == label]
        vertex = numerators(cell.vertices[2])

        def bent_psi(surface, t0, t1, den):
            image = list(exact_psi(surface, t0, t1, den))
            if (t0, t1, den) == vertex:
                image[coordinate] += 1
            return tuple(image)

        monkeypatch.setattr(kummer, "psi_step", bent_psi)
        with pytest.raises(NotAffineOnCellError, match=f"^cell {label} is not affine$"):
            affine_pieces(make_surface(gram))
        monkeypatch.undo()


@pytest.mark.parametrize(
    "gram",
    [((2, -1), (-1, 2)), ((2, -1), (-1, 3)), ((F(1, 2), F(-1, 5)), (F(-1, 5), F(3, 7)))],
    ids=["hex", "skew", "rational"],
)
def test_affine_pieces_evaluate_each_point_once(monkeypatch, gram):
    # 18 cells check 132 points (a centroid, three midpoints and three or four
    # vertices each), but the cells share their 19 vertices: 91 are distinct.
    exact_psi, points = kummer.psi_step, []

    def counted(surface, t0, t1, den):
        points.append((t0, t1, den))
        return exact_psi(surface, t0, t1, den)

    monkeypatch.setattr(kummer, "psi_step", counted)
    affine_pieces(make_surface(gram))  # fresh: the pieces are memoized
    assert len(points) == len(set(points)) == 91


def test_halfway_writes_the_midpoint_as_numerators_does():
    # Its triples key the psi values, so equal points must give equal triples.
    rng = rng_for(0, "halfway")
    points = [random_point(rng, 3) for _ in range(300)] + [Vec2(0, 0), Vec2(H, -H)]
    for a, b in zip(points, points[1:] + points[:1]):
        got = mean((numerators(a), numerators(b)))
        assert got == numerators(H * (a + b)), (a, b)
    # The centroid too: the mean of 1 to 4 points is the Fraction mean, and a
    # point given twice or in another order gives the same triple.
    for k in range(len(points) - 4):
        group = points[k : k + 1 + k % 4]
        want = F(1, len(group)) * sum(group[1:], group[0])
        assert mean([numerators(p) for p in group]) == numerators(want), group
        doubled = [numerators(p) for p in group + group[::-1]]
        assert mean(doubled) == numerators(want), group


def test_affine_check_fires_at_a_shared_vertex(monkeypatch):
    # The origin is a vertex of all 12 sigma and rho cells; psi's numerator off
    # by 1 there is evaluated once and caught on the first cell, sigma1.
    exact_psi = kummer.psi_step

    def bent_psi(surface, t0, t1, den):
        n10, n01, n11 = exact_psi(surface, t0, t1, den)
        return (n10 + 1, n01, n11) if (t0, t1) == (0, 0) else (n10, n01, n11)

    monkeypatch.setattr(kummer, "psi_step", bent_psi)
    for gram in (((2, -1), (-1, 2)), ((2, -1), (-1, 3))):
        with pytest.raises(NotAffineOnCellError, match="^cell sigma1 is not affine$"):
            affine_pieces(make_surface(gram))


def _affine_by_fractions(surface):
    """`affine_pieces`' check in Fractions: at each cell's centroid, its
    midpoints to the first three vertices and every vertex, psi_eval is
    Q(s_c - s_00, x) + (Q(s_c) - Q(s_00)) / 4, s_c = 2 a_c + c for the
    theta_eval minimizers a_c at the centroid.  The first cell where it is not,
    or None."""
    for cell in subdivide(surface):
        verts = cell.vertices
        mid = F(1, len(verts)) * sum(verts[1:], verts[0])
        shifts = [
            2 * theta_eval(surface, char, mid).minimizer + Vec2(*char.vector(surface))
            for char in CHARACTERISTICS
        ]
        s0 = shifts[0]
        for p in (mid, *[H * (mid + v) for v in verts[:3]], *verts):
            piece = [
                surface.q(s - s0, p) + (surface.norm(s) - surface.norm(s0)) / 4
                for s in shifts[1:]
            ]
            if Vec3(*piece) != psi_eval(surface, p):
                return cell.label
    return None


def test_affine_pieces_match_their_fraction_statement():
    # The integer check `num == den (4 r^T H t + den gap)` against the
    # Fraction one, on 13 irreducible surfaces and their cut descents, most of
    # which fail it.
    grams = [((2, -1), (-1, 2)), ((2, -1), (-1, 3)), PSI_GRAMS[2], PSI_GRAMS[5]]
    surfaces = [make_surface(g) for g in grams]
    surfaces += [
        random_irreducible_surface(rng_for(37, "affine-twin", k), max_entry=12)
        for k in range(9)
    ]
    labels = set()
    for surface in surfaces:
        for s in (surface, cut_descent(surface)):
            want = _affine_by_fractions(s)
            try:
                affine_pieces(s)
                got = None
            except NotAffineOnCellError as exc:
                got = str(exc).split()[1]
            assert got == want, s.gram.describe()
            labels.add(got)
    assert None in labels and len(labels) > 1


def test_coplanarity_report_hexagonal(hexagonal):
    report = coplanarity_report(hexagonal)
    t10, t01, t11 = theta_constants(hexagonal)
    by_key = {
        (face.normal, face.offset): cells for face, cells in report.items()
    }
    assert by_key[((1, 1, -1), t10 + t01 - t11)] == (
        "rho3",
        "rho6",
        "sigma1",
        "sigma4",
    )
    assert by_key[((1, -1, -1), -t10 + t01 + t11)] == ("tau1", "tau4")


def test_coplanarity_report_skew(skew_hexagonal):
    report = coplanarity_report(skew_hexagonal)
    t10, t01, t11 = theta_constants(skew_hexagonal)
    assert -t10 + t01 + t11 == 1
    by_key = {
        (face.normal, face.offset): cells for face, cells in report.items()
    }
    assert by_key[((1, -1, -1), F(1))] == ("tau1", "tau4")


def _retable(monkeypatch, edit):
    """Make `build_quartic` pass the faces' source-cell lists through `edit`."""
    face_table = kummer._face_table

    def edited(surface):
        faces = face_table(surface)
        cells = edit([list(face.source_cells) for face in faces])
        return tuple(
            FacePlane(face.normal, face.offset, face.vertex_ids, tuple(c))
            for face, c in zip(faces, cells)
        )

    monkeypatch.setattr(kummer, "_face_table", edited)


def _moved(label, source, target):
    def edit(cells):
        cells[source].remove(label)
        cells[target].append(label)
        return cells

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        # To the opposite face: the normal agrees, the offset does not.
        (_moved("sigma1", 0, 1), "^cell sigma1: no affine piece on face"),
        # To a face with another normal.
        (_moved("tau2", 1, 4), "^cell tau2: no affine piece on face"),
        # Named on two faces.
        (lambda cells: cells[:5] + [cells[5] + ["rho2"]], "^cell rho2: no affine"),
        # Named on none.
        (
            lambda cells: [cells[0][1:]] + cells[1:],
            r"^cells \['sigma1'\] are on no face$",
        ),
    ],
)
def test_coplanarity_report_raises_on_a_wrong_table(monkeypatch, edit, message):
    _retable(monkeypatch, edit)
    # A fresh surface: `build_quartic` is memoized on the surface.
    with pytest.raises(InternalInconsistencyError, match=message):
        coplanarity_report(make_surface([[2, -1], [-1, 3]]))


@pytest.mark.parametrize("bent", ["offset", "linear part"])
def test_coplanarity_report_raises_on_a_bent_piece(monkeypatch, skew_hexagonal, bent):
    # Each piece in turn, its offset moved by 10^-12 off its face's plane, or
    # its linear part taken from a piece on a face with another normal.
    exact = affine_pieces(skew_hexagonal)
    faces = build_quartic(skew_hexagonal).faces
    normal = {cell: face.normal for face in faces for cell in face.source_cells}
    for k, piece in enumerate(exact):
        label = piece.cell.label
        offset, linear_part = piece.offset, piece.linear_part
        if bent == "offset":
            offset += Vec3(F(1, 10**12), 0, 0)
        else:
            linear_part = next(
                q.linear_part for q in exact if normal[q.cell.label] != normal[label]
            )
        pieces = list(exact)
        pieces[k] = AffinePiece(piece.cell, linear_part, offset, piece.unimodular)
        monkeypatch.setattr(kummer, "affine_pieces", lambda surface: tuple(pieces))
        with pytest.raises(InternalInconsistencyError, match=f"^cell {label}: "):
            coplanarity_report(skew_hexagonal)


@pytest.mark.parametrize(
    "conorms, message",
    [
        ((1, 1, 2), r"^cell tau1: no affine piece on face \(1, -1, -1\)=1/2$"),
        ((2, 1, 1), r"^cell sigma1: no affine piece on face \(1, 1, -1\)=1$"),
    ],
)
def test_coplanarity_report_raises_on_permuted_conorms(
    skew_hexagonal, conorms, message
):
    # The skew hexagon's conorms are (1, 2, 1).  Permuted, they still give a
    # consistent quartic, but the pieces' offsets come from `form` on the
    # minimizers, so a wrong stored conorm cannot pass silently.
    s = skew_hexagonal
    assert s.conorms == (1, 2, 1)
    with pytest.raises(InternalInconsistencyError, match=message):
        coplanarity_report(with_fields(s, conorms=conorms))


def _pieces_text(surface):
    """The affine pieces and the coplanarity table, or the error they raise."""
    try:
        report = coplanarity_report(surface)
        table = sorted((f.normal, f.offset, cells) for f, cells in report.items())
        return repr((affine_pieces(surface), table))
    except RuntimeError as exc:  # NotAffineOnCellError, InternalInconsistencyError
        return f"{type(exc).__name__}: {exc}"


# SHA-256 of `_pieces_text` on 45 irreducible surfaces, each as given and
# with its descent cut to +-u, +-v.  The cut moves no point of the cell, so
# `psi_step` is exact there and the cut reaches only the theta minimizers
# the pieces are read from; 19 of the 45 cut surfaces raise.
PIECES_SHA256 = (
    "d467402ddaca32457cb7d42e710fa24722bd9f26dd94d2d24c8d5dca8780e0ff"
)


def test_affine_pieces_pinned():
    grams = (((2, -1), (-1, 2)), ((2, -1), (-1, 3))) + GRAMS[2:]
    surfaces = [make_surface(g) for g in grams]
    surfaces += [
        random_irreducible_surface(rng_for(0, "pieces-pin", k), max_entry=12)
        for k in range(40)
    ]
    h = hashlib.sha256()
    for surface in surfaces:
        for s in (surface, cut_descent(surface)):
            h.update(_pieces_text(s).encode() + b"\n")
    assert h.hexdigest() == PIECES_SHA256


def test_two_torsion_images(hexagonal):
    rows = two_torsion_images(hexagonal)
    rb = lagrange_reduce(hexagonal)
    reps = [r[0] for r in rows]
    assert reps == [
        Vec2(0, 0),
        H * rb.u,
        H * rb.v,
        H * (rb.u + rb.v),
    ]
    assert rows[0][1] == Vec3(H, H, H)
    assert rows[1][1] == Vec3(-H, 0, 0)
    assert all(flag for _, _, flag in rows)


def test_two_torsion_images_reject_product_type(unit_square):
    with pytest.raises(ProductTypeError):
        two_torsion_images(unit_square)


def test_orbit_matches_closed_form_display(hexagonal, skew_hexagonal):
    # The eight orbit vertices against their closed-form expressions in the
    # theta constants (third coordinate of tau_3 taken with the minus sign,
    # the reading the face planes single out).
    for s in (hexagonal, skew_hexagonal):
        quartic = build_quartic(s)
        a, b, c = quartic.theta_constants  # (t10, t01, t11)
        display = {
            "tau_0": Vec3(a, b, c),
            "tau_1": Vec3(-a, c - a, b - a),
            "tau_2": Vec3(c - b, -b, a - b),
            "tau_3": Vec3(b - c, a - c, -c),
            "tau_tilde_0": Vec3(-a, -b, -c),
            "tau_tilde_1": Vec3(a, a - c, a - b),
            "tau_tilde_2": Vec3(b - c, b, b - a),
            "tau_tilde_3": Vec3(c - b, c - a, c),
        }
        for label, expected in display.items():
            assert quartic.vertex(label) == expected
        for face in quartic.faces:
            for vid in face.vertex_ids:
                assert face.evaluate(display[vid]) == face.offset


def test_vertex_sign_diagnostics(hexagonal, skew_hexagonal):
    for s in (hexagonal, skew_hexagonal):
        report = vertex_sign_diagnostics(s)
        assert report["consistent_reading"] == "minus"
        assert report["plane_consistency"] == {"minus": True, "plus": False}
        t10, t01, t11 = theta_constants(s)
        assert report["orbit_vertex"] == Vec3(t01 - t11, t10 - t11, -t11)
