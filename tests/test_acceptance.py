"""Acceptance suite: one test per release criterion, all exact (tolerance zero).

Each test prints a single PASS line when its criterion holds; sample counts
and seeds are fixed so the suite is reproducible run to run.
"""

import json
from fractions import Fraction

from tropical_kummer import (
    CHARACTERISTICS,
    EquivalentMinus,
    EquivalentPlus,
    SurfaceClass,
    ThetaCharacteristic,
    Vec2,
    Vec3,
    affine_pieces,
    build_quartic,
    build_series,
    classify,
    cli,
    injectivity_check,
    lagrange_reduce,
    make_surface,
    psi_eval,
    reduce_point,
    safe_cutoff,
    theta_constants,
    theta_eval,
    tropicalize_series,
    vertex_sign_diagnostics,
)
from tropical_kummer.errors import RadiusTooSmallError
from tropical_kummer.exact import numerators
from tropical_kummer.kummer import contains_step, psi_step
from tropical_kummer.sampling import (
    random_integer_vector,
    random_irreducible_surface,
    random_point,
    random_surface,
    rng_for,
)
from tropical_kummer.theta import step_scale, theta_eval_bruteforce

F = Fraction
CH = ThetaCharacteristic
SEED = 20250810

HEX = make_surface([[2, -1], [-1, 2]])
SQUARE = make_surface([[1, 0], [0, 1]])
SKEW_PRODUCT = make_surface([[5, 3], [3, 2]])


def report(number: int, text: str) -> None:
    print(f"CRITERION {number:2d}: PASS - {text}")


def test_criterion_01_classification():
    assert classify(HEX) is SurfaceClass.IRREDUCIBLE
    assert classify(SQUARE) is SurfaceClass.PRODUCT_TYPE
    assert classify(SKEW_PRODUCT) is SurfaceClass.PRODUCT_TYPE
    report(1, "hexagonal vs product classification on the three fixed matrices")


def test_criterion_02_theta_constants():
    constants = theta_constants(HEX)
    assert constants == (F(1, 2), F(1, 2), F(1, 2))
    rb = lagrange_reduce(HEX)
    closed_form = (
        HEX.norm(rb.u) / 4,
        HEX.norm(rb.v) / 4,
        HEX.norm(rb.w) / 4,
    )
    assert constants == closed_form
    origin = Vec2(0, 0)
    values = tuple(
        theta_eval(HEX, char, origin).value for char in CHARACTERISTICS[1:]
    )
    assert values == constants
    assert theta_eval(HEX, CH(0, 0), origin).value == 0
    report(2, "theta constants (1/2, 1/2, 1/2) match values at 0 and Q/4 closed form")


def test_criterion_03_zero_on_voronoi():
    for k in range(100):
        x = random_point(rng_for(SEED, "zero-on-cell", k), 5)
        x0, _ = reduce_point(HEX, x)
        assert theta_eval(HEX, CH(0, 0), x0).value == 0
    report(3, "theta[00] vanishes on 100 points reduced into the Voronoi cell")


def _oracle(surface, char, x):
    shift = x + F(1, 2) * Vec2(*char.vector(surface))
    radius = int(shift.sup_norm()) + 2
    while True:
        try:
            return theta_eval_bruteforce(surface, char, x, radius)
        except RadiusTooSmallError:
            radius += 2


def test_criterion_04_oracle_equivalence():
    cases = 0
    for k in range(20):
        surface = random_surface(rng_for(SEED, "oracle-gram", k))
        for j in range(50):
            rng = rng_for(SEED, "oracle-point", k, j)
            x = random_point(rng, 2)
            char = CHARACTERISTICS[rng.randrange(4)]
            assert theta_eval(surface, char, x).value == _oracle(
                surface, char, x
            ).value
            cases += 1
    assert cases == 1000
    report(4, "descent evaluation equals certified brute force on 1000 points "
              "across 20 seeded Gram matrices")


def test_criterion_05_theta_identities():
    s = HEX
    rb = lagrange_reduce(s)
    half = F(1, 2)
    for k in range(200):
        rng = rng_for(SEED, "identities", k)
        x = random_point(rng, 3)
        up = random_integer_vector(rng, 3)
        char = CHARACTERISTICS[rng.randrange(4)]
        # evenness
        assert theta_eval(s, char, -x).value == theta_eval(s, char, x).value
        # quasi-periodicity for the doubled form
        assert (
            theta_eval(s, char, x + up).value
            == theta_eval(s, char, x).value - 2 * s.q(x, up) - s.norm(up)
        )
        # translation identities tying the four functions together
        for ch, vec in ((CH(1, 0), rb.u), (CH(0, 1), rb.v), (CH(1, 1), rb.w)):
            assert theta_eval(s, ch, x).value == (
                theta_eval(s, CH(0, 0), x + half * vec).value
                + s.q(x, vec)
                + s.norm(vec) / 4
            )
    report(5, "evenness, quasi-periodicity, translation identities exact on "
              "200 seeded samples each")


def test_criterion_06_injectivity_modulo_sign():
    s = HEX
    equivalents = 0
    for k in range(10_000):
        rng = rng_for(SEED, "pairs", k)
        y = random_point(rng, 3)
        mode = rng.randrange(3)
        if mode == 0:
            yp = y + random_integer_vector(rng, 3)
        elif mode == 1:
            yp = -y + random_integer_vector(rng, 3)
        else:
            yp = random_point(rng, 3)
        verdict = injectivity_check(s, y, yp)  # raises on any inconsistency
        equivalent = isinstance(verdict, (EquivalentPlus, EquivalentMinus))
        assert equivalent == (psi_eval(s, y) == psi_eval(s, yp))
        equivalents += equivalent
    assert 0 < equivalents < 10_000  # both sides of the biconditional were hit
    report(6, "psi agreement iff y' = +-y mod Z^2 on 10000 seeded pairs, "
              "zero inconsistencies")


def test_criterion_07_product_type_non_injectivity():
    s = SQUARE
    for k in range(100):
        x = random_point(rng_for(SEED, "collapse", k), 3)
        mirrored = Vec2(x.x, -x.y)
        assert psi_eval(s, x) == psi_eval(s, mirrored)
    report(7, "product-type psi identifies (x1, x2) with (x1, -x2) on 100 samples")


def test_criterion_08_parallelepiped_and_coverage():
    for surface in (HEX, make_surface([[2, -1], [-1, 3]])):
        quartic = build_quartic(surface)  # construction validates faces
        vertices = set(quartic.vertices)
        assert len(vertices) == 8
        base = quartic.vertex("tau_tilde_0")
        e1 = quartic.vertex("tau_3") - base
        e2 = quartic.vertex("tau_2") - base
        e3 = quartic.vertex("tau_1") - base
        spanned = {
            base + i * e1 + j * e2 + k * e3
            for i in (0, 1)
            for j in (0, 1)
            for k in (0, 1)
        }
        assert spanned == vertices
        for face in quartic.faces:
            for vid in face.vertex_ids:
                assert face.evaluate(quartic.vertex(vid)) == face.offset
    quartic = build_quartic(HEX)
    expected = {
        (F(1, 2), F(1, 2), F(1, 2)),
        (-F(1, 2), 0, 0),
        (0, -F(1, 2), 0),
        (0, 0, -F(1, 2)),
        (-F(1, 2), -F(1, 2), -F(1, 2)),
        (F(1, 2), 0, 0),
        (0, F(1, 2), 0),
        (0, 0, F(1, 2)),
    }
    assert {v.as_tuple() for v in quartic.vertices} == expected
    # psi's numerators over its scale, as the `quartic-coverage` row reads them.
    for k in range(500):
        t0, t1, den = numerators(random_point(rng_for(SEED, "coverage", k), 4))
        assert contains_step(quartic, *psi_step(HEX, t0, t1, den), step_scale(HEX, den))
    report(8, "orbit vertices span a parallelepiped on the face-table planes; "
              "500 embedded points lie on it")


def test_criterion_09_unimodularity():
    sigma = next(
        p for p in affine_pieces(HEX) if p.cell.label == "sigma1"
    )
    assert sigma.linear_part == ((1, 0), (0, 1), (1, 1))
    for k in range(20):
        surface = random_irreducible_surface(rng_for(SEED, "unimodular", k))
        pieces = affine_pieces(surface)
        assert len(pieces) == 18
        assert all(p.unimodular for p in pieces)
    report(9, "all 18 affine pieces unimodular on 20 seeded irreducible "
              "Gram matrices; sigma piece is ((1,0),(0,1),(1,1))")


def test_criterion_10_nonarchimedean_lift():
    s = HEX
    bound = F(2)
    for char in CHARACTERISTICS:
        cutoff = safe_cutoff(s, char, bound)
        series = build_series(s, char, cutoff)
        doubled = build_series(s, char, 2 * cutoff)
        for k in range(200):
            v = random_point(rng_for(SEED, "lift", str(char), k), 2)
            value = tropicalize_series(series, v)
            assert value == theta_eval(s, char, v).value
            if k < 100:  # doubling stability spot-check
                assert value == tropicalize_series(doubled, v)
    report(10, "tropicalized truncated series equals direct theta values on "
               "200 points per characteristic, stable under cutoff doubling")


def test_criterion_11_vertex_display_resolution():
    for surface in (HEX, make_surface([[2, -1], [-1, 3]])):
        diagnostics = vertex_sign_diagnostics(surface)
        t10, t01, t11 = theta_constants(surface)
        assert diagnostics["consistent_reading"] == "minus"
        assert diagnostics["orbit_vertex"] == Vec3(t01 - t11, t10 - t11, -t11)
        face = next(
            f
            for f in build_quartic(surface).faces
            if f.normal == (1, -1, -1) and f.offset == -t10 + t01 + t11
        )
        assert "tau_3" in face.vertex_ids
        assert face.evaluate(diagnostics["orbit_vertex"]) == face.offset
    report(11, "orbit vertex on the plane T1-T2-T3 = -t10+t01+t11 has third "
               "coordinate -t11 (the consistent closed-form reading)")


def test_criterion_12_verify_determinism(tmp_path, capsys):
    config = tmp_path / "surface.json"
    config.write_text(
        json.dumps({"gram": [["2", "-1"], ["-1", "2"]], "seed": 11, "samples": 40})
    )
    code1 = cli.main(["verify", str(config)])
    first = capsys.readouterr().out
    code2 = cli.main(["verify", str(config)])
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
    assert json.loads(first)["passed"] is True
    report(12, "two verify runs with the same seed emit byte-identical reports")
