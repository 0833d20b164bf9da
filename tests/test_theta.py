from fractions import Fraction
from itertools import product

import pytest
from conftest import cut_descent

from tropical_kummer import (
    ProductTypeError,
    RadiusTooSmallError,
    ThetaCharacteristic,
    Vec2,
    lagrange_reduce,
    make_surface,
    theta_constants,
    theta_eval,
    theta_eval_bruteforce,
    verify,
)
from tropical_kummer.exact import form, numerators
from tropical_kummer.lattice import HALF
from tropical_kummer.sampling import (
    random_integer_vector,
    random_irreducible_surface,
    random_point,
    rng_for,
)
from tropical_kummer.theta import CHARACTERISTICS, _certifies, theta_step

F = Fraction
CH = ThetaCharacteristic


def test_theta_eval_examples(hexagonal):
    assert theta_eval(hexagonal, CH(0, 0), Vec2(F(1, 10), F(1, 10))).value == 0
    assert theta_eval(hexagonal, CH(1, 0), Vec2(0, 0)).value == F(1, 2)
    assert theta_eval(hexagonal, CH(1, 0), Vec2(F(1, 2), 0)).value == -F(1, 2)


def test_theta_eval_matches_bruteforce_examples(hexagonal):
    points = (Vec2(F(1, 10), F(1, 10)), Vec2(0, 0), Vec2(F(1, 2), 0))
    chars = (CH(0, 0), CH(1, 0), CH(1, 0))
    for char, x in zip(chars, points):
        fast = theta_eval(hexagonal, char, x)
        slow = theta_eval_bruteforce(hexagonal, char, x, 5)
        assert fast.value == slow.value


def test_bruteforce_radius_certificate(hexagonal):
    assert theta_eval_bruteforce(hexagonal, CH(0, 0), Vec2(0, 0), 1).value == 0
    with pytest.raises(RadiusTooSmallError):
        theta_eval_bruteforce(hexagonal, CH(0, 0), Vec2(4, 4), 0)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        theta_eval_bruteforce(hexagonal, CH(0, 0), Vec2(0, 0), -1)


def test_bruteforce_rejects_a_radius_that_is_not_an_int(hexagonal):
    # A fractional radius used to return a minimum certified on a fractional box.
    x = Vec2(7, F(1, 3))
    for bad in (7.5, F(15, 2), F(7), True):
        with pytest.raises(ValueError, match="^radius must be an int"):
            theta_eval_bruteforce(hexagonal, CH(0, 0), x, bad)
    assert theta_eval_bruteforce(hexagonal, CH(0, 0), x, 7) == theta_eval(
        hexagonal, CH(0, 0), x
    )


def test_characteristic_indices_are_bits():
    with pytest.raises(ValueError, match="must be 0 or 1"):
        CH(2, 0)


def test_certificate_is_sound_on_small_forms():
    # `_certifies(H, m, bound)` promises y^T H y > bound wherever |y|_inf >= m,
    # checked here up to |y|_inf = |m| + 4.  For m <= 0 that region holds
    # y = 0, so it must never certify there, whatever det(H) m^2 is.
    forms = ((1, 0, 1), (2, -1, 2), (2, -1, 3), (5, 3, 2), (1, 0, 7), (3, -1, 1))
    certified = 0
    for h, m, bound in product(forms, range(-3, 5), range(40)):
        if _certifies(h, m, bound):
            certified += 1
            side = range(-abs(m) - 4, abs(m) + 5)
            shell = [y for y in product(side, side) if max(map(abs, y)) >= m]
            assert min(form(h, y, y) for y in shell) > bound, (h, m, bound)
    assert certified > 100


def test_minimizer_is_attained(row_passes, hexagonal, skew_hexagonal):
    row_passes(
        "theta-minimizer-attained", hexagonal, skew_hexagonal, samples=40, seed=3
    )


def test_theta_constants_examples(hexagonal, skew_hexagonal):
    assert theta_constants(hexagonal) == (F(1, 2), F(1, 2), F(1, 2))
    assert theta_constants(skew_hexagonal) == (F(1, 2), F(3, 4), F(3, 4))
    from tropical_kummer import make_surface

    doubled = make_surface([[4, -2], [-2, 4]])
    assert theta_constants(doubled) == (1, 1, 1)
    # Seeded rational Grams and their shears S^T G S, S = [[1, k], [0, 1]],
    # against the reduced basis's norms through the Fraction `gram_eval`.
    for i in range(40):
        rng = rng_for(18, i)
        g = random_irreducible_surface(rng, 60).gram
        den, k = rng.randint(1, 1000), rng.randint(-(10**3), 10**3)
        a, b, d = g.a / den, g.b / den, g.d / den
        sheared = [[a, a * k + b], [a * k + b, a * k * k + 2 * b * k + d]]
        found = []
        for gram in ([[a, b], [b, d]], sheared):
            s = make_surface(gram)
            rb = lagrange_reduce(s)
            want = tuple(s.norm(r) / 4 for r in (rb.u, rb.v, rb.w))
            assert theta_constants(s) == want, gram
            found.append(sorted(want))
        assert found[0] == found[1]  # the obtuse superbase's norms are invariant


def test_theta_constants_equal_values_at_zero(hexagonal, skew_hexagonal):
    for s in (hexagonal, skew_hexagonal):
        t10, t01, t11 = theta_constants(s)
        origin = Vec2(0, 0)
        assert theta_eval(s, CH(0, 0), origin).value == 0
        assert theta_eval(s, CH(1, 0), origin).value == t10
        assert theta_eval(s, CH(0, 1), origin).value == t01
        assert theta_eval(s, CH(1, 1), origin).value == t11


def test_theta_constants_reject_product_type(unit_square):
    with pytest.raises(ProductTypeError):
        theta_constants(unit_square)


def test_zero_on_voronoi_cell(row_passes, hexagonal, hidden_product):
    row_passes("theta-zero-on-cell", hexagonal, hidden_product, samples=40, seed=9)


def test_evenness(row_passes, hexagonal, skew_hexagonal, hidden_product):
    surfaces = (hexagonal, skew_hexagonal, hidden_product)
    row_passes("theta-evenness", *surfaces, samples=40, seed=13)


def test_quasi_periodicity(row_passes, hexagonal, skew_hexagonal):
    row_passes(
        "theta-quasi-periodicity", hexagonal, skew_hexagonal, samples=40, seed=17
    )


def test_translation_identities(row_passes, hexagonal, skew_hexagonal):
    row_passes(
        "theta-translation-identities", hexagonal, skew_hexagonal, samples=40, seed=19
    )


def test_concavity(row_passes, hexagonal):
    row_passes("theta-concavity", hexagonal, samples=40, seed=21)


def test_oracle_equivalence_on_random_surfaces(row_passes, hexagonal):
    # The hexagon and 15 random surfaces, 10 points each.
    row_passes("theta-bruteforce-oracle", hexagonal, samples=160, seed=29)


# The Fraction statement of each identity that `verify`'s four theta rows
# check on integer numerators: a row and its statement draw the same case
# from the same rng and must return the same thing (None or the same dict).
def _vec(v):
    return [str(c) for c in v.as_tuple()]


def _evenness(s, rng):
    x = random_point(rng, 4)
    for char in CHARACTERISTICS:
        if theta_eval(s, char, x).value != theta_eval(s, char, -x).value:
            return {"x": _vec(x), "char": str(char)}


def _quasi_periodicity(s, rng):
    x = random_point(rng, 3)
    up = random_integer_vector(rng, 3)
    anomaly = 2 * s.q(x, up) + s.norm(up)
    for char in CHARACTERISTICS:
        lhs = theta_eval(s, char, x + up).value
        if lhs != theta_eval(s, char, x).value - anomaly:
            return {"x": _vec(x), "shift": _vec(up), "char": str(char)}


def _translation(s, rng):
    # theta_c(x) = theta_00(x +- vec/2) +- Q(x, vec) + Q(vec)/4 for
    # c, vec = 10, u; 01, v; 11, w.
    rb = lagrange_reduce(s)
    x = random_point(rng, 3)
    for char, vec in zip(CHARACTERISTICS[1:], (rb.u, rb.v, rb.w)):
        lhs = theta_eval(s, char, x).value
        q, quarter = s.q(x, vec), s.norm(vec) / 4
        plus = theta_eval(s, CHARACTERISTICS[0], x + HALF * vec).value + q + quarter
        minus = theta_eval(s, CHARACTERISTICS[0], x - HALF * vec).value - q + quarter
        if lhs != plus or lhs != minus:
            return {"x": _vec(x), "char": str(char)}


def _concavity(s, rng):
    x, y = random_point(rng, 3), random_point(rng, 3)
    for char in CHARACTERISTICS:
        lhs = theta_eval(s, char, HALF * (x + y)).value
        rhs = (theta_eval(s, char, x).value + theta_eval(s, char, y).value) / 2
        if lhs < rhs:
            return {"x": _vec(x), "y": _vec(y)}


FRACTION_STATEMENTS = {
    "theta-evenness": _evenness,
    "theta-quasi-periodicity": _quasi_periodicity,
    "theta-translation-identities": _translation,
    "theta-concavity": _concavity,
}

SKEW = make_surface([[2, -1], [-1, 3]])
TWIN_SURFACES = {
    "hexagonal": make_surface([[2, -1], [-1, 2]]),
    "skew": SKEW,
    "rational": make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]]),
    "hidden-product": make_surface([[5, 3], [3, 2]]),
    "skew-descent-cut": cut_descent(SKEW),  # some cases fail: dicts compared
}


@pytest.mark.parametrize("name", FRACTION_STATEMENTS)
def test_integer_rows_match_their_fraction_statement(name):
    statement = FRACTION_STATEMENTS[name]
    (check,) = [c for c in verify.CHECKS if c.name == name]
    returned = set()
    for s in TWIN_SURFACES.values():
        extra = () if check.setup is None else (check.setup(s),)
        for seed, k in product((7, 8), range(50)):
            want = statement(s, rng_for(seed, check.key, k))
            got = check.fn(s, rng_for(seed, check.key, k), *extra)
            assert got == want, (s.gram.describe(), seed, k)
            returned.add(got is None)
    assert returned == {True, False}  # both the holding and the failing returns


def test_theta_step_is_theta_eval_over_any_common_denominator():
    # num / (gram_den (2 den)^2) is theta_eval's value and a its minimizer, for
    # every characteristic; (k t, k den) gives k^2 num and the same a.
    g = 10**6
    grams = [
        [[2, -1], [-1, 2]],
        [[2, -1], [-1, 3]],
        [[5, 3], [3, 2]],
        [[1, 0], [0, 1]],
        [[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]],
        [[F(7, 3), F(5, 4)], [F(5, 4), F(9, 5)]],
        [[g, 1 - g], [1 - g, g]],
        [[g, 3 * g - 1], [3 * g - 1, 9 * g - 5]],
    ]
    for i, gram in enumerate(grams):
        s = make_surface(gram)
        for j in range(25):
            rng = rng_for(28, i, j)
            x = random_point(rng, 5)
            t0, t1, den = numerators(x)
            k = rng.randint(2, 7)
            for char in CHARACTERISTICS:
                tv = theta_eval(s, char, x)
                num, a = theta_step(s, char, t0, t1, den)
                assert F(num, s.gram_den * (2 * den) ** 2) == tv.value, (gram, x, char)
                assert Vec2(*a) == tv.minimizer
                scaled = theta_step(s, char, k * t0, k * t1, k * den)
                assert scaled == (k * k * num, a), (gram, x, char, k)
