from fractions import Fraction
from itertools import product

import pytest
import reference
from conftest import cut_descend, cut_descent
from test_kernel_pinned import GRAMS

from tropical_kummer import (
    ProductTypeError,
    RadiusTooSmallError,
    ThetaCharacteristic,
    Vec2,
    lagrange_reduce,
    make_surface,
    reduce_point,
    safe_cutoff,
    theta_constants,
    theta_eval,
    verify,
)
from tropical_kummer import lattice, theta
from tropical_kummer.exact import form, numerators
from tropical_kummer.lattice import HALF
from tropical_kummer.sampling import (
    random_integer_vector,
    random_irreducible_surface,
    random_point,
    rng_for,
)
from tropical_kummer.theta import CHARACTERISTICS, _certifies, box_step, theta_step
from tropical_kummer.theta import theta_eval_bruteforce

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


def test_characteristic_indices_are_ints_not_bools_or_floats():
    # (True, False) used to print as "TrueFalse", and (1.0, 0) as "1.00",
    # whose `vector` then indexed a tuple with a float.
    for j1, j2 in ((True, 0), (1.0, 0), (0, False)):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            CH(j1, j2)


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
    # against the reduced basis's norms through `s.norm` on the integer Gram.
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


# The Fraction statement of each theta row that `verify` checks on integer
# numerators: a row and its statement draw the same case from the same rng
# and must return the same thing (None or the same dict).
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


def _zero_on_cell(s, rng):
    x0, _ = reduce_point(s, random_point(rng, 5))
    val = theta_eval(s, CHARACTERISTICS[0], x0).value
    if val != 0:
        return {"x0": _vec(x0), "value": str(val)}


def _minimizer(s, rng):
    x = random_point(rng, 4)
    char = CHARACTERISTICS[rng.randrange(4)]
    tv = theta_eval(s, char, x)
    shift = x + HALF * Vec2(*char.vector(s))
    attained = s.norm(tv.minimizer + shift) - s.norm(x)
    if attained != tv.value or not tv.minimizer.is_integral():
        return {"x": _vec(x), "char": str(char)}


def _oracle_theta(surface, char, x):
    cutoff = safe_cutoff(surface, char, x.sup_norm())
    return theta_eval_bruteforce(surface, char, x, cutoff).value


def _theta_oracle(s, seed, samples):
    surfaces = verify._sweep(s, seed, "theta-oracle-gram", verify._n_matrices(samples))
    cases = 0
    per_surface = max(1, samples // len(surfaces))
    for si, surface in enumerate(surfaces):
        for k in range(per_surface):
            rng = rng_for(seed, "theta-oracle", si, k)
            x = random_point(rng, 2)
            char = CHARACTERISTICS[rng.randrange(4)]
            cases += 1
            fast = theta_eval(surface, char, x).value
            slow = _oracle_theta(surface, char, x)
            if fast != slow:
                counterexample = {
                    "gram": [[str(e) for e in row] for row in surface.gram.rows()],
                    "x": _vec(x),
                    "char": str(char),
                    "fast": str(fast),
                    "oracle": str(slow),
                }
                return verify.FAIL, cases, counterexample, None
    return verify.PASS, cases, None, None


def _cvp_oracle(s, rng):
    x = random_point(rng, 5)
    x0, p = reduce_point(s, x)
    if x0 + p != x or not p.is_integral():
        return {"x": _vec(x), "problem": "bad decomposition"}
    expected = _oracle_theta(s, CHARACTERISTICS[0], x) + s.norm(x)
    if s.norm(x0) != expected:
        return {"x": _vec(x), "descent": str(s.norm(x0)), "oracle": str(expected)}


def _off_the_lattice(descend):
    """`descend` ending one step off s + d Z^2: theta's value is no longer the
    one its minimizer attains."""

    def moved(surface, t0, t1, den):
        n0, n1 = descend(surface, t0, t1, den)
        return n0 + 1, n1

    return moved


# row: (its Fraction statement, None or a fault that both read, as
# `row_matches` takes it); a `lattice.descend` fault breaks `reduce_point` alone.
FRACTION_STATEMENTS = {
    "theta-evenness": (_evenness, None),
    "theta-quasi-periodicity": (_quasi_periodicity, None),
    "theta-translation-identities": (_translation, None),
    "theta-concavity": (_concavity, None),
    "theta-zero-on-cell": (_zero_on_cell, (lattice, "descend", cut_descend)),
    "theta-minimizer-attained": (_minimizer, (theta, "descend", _off_the_lattice)),
    "theta-bruteforce-oracle": (_theta_oracle, (theta, "descend", cut_descend)),
    "cvp-descent-oracle": (_cvp_oracle, (lattice, "descend", cut_descend)),
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
def test_integer_rows_match_their_fraction_statement(row_matches, name):
    statement, fault = FRACTION_STATEMENTS[name]
    row_matches(name, statement, list(TWIN_SURFACES.values()), fault)


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


def test_box_step_is_the_reference_box_minimum():
    # On hex, product-type, rational, sheared and skew Grams:
    # num / (gram_den (2 den)^2) is the box's least Q(a + s) - Q(x), a its
    # first minimizer in lexicographic order, and the flag `reference`'s
    # certificate, whether or not it certifies; (k t, k den) gives k^2 num,
    # the same a and the same flag.
    certified = set()
    for i, gram in enumerate(GRAMS + (((2, -1), (-1, 3)),)):
        s = make_surface(gram)
        for j in range(12):
            rng = rng_for(29, i, j)
            x = random_point(rng, 3)
            t0, t1, den = numerators(x)
            k = rng.randint(2, 7)
            for char, radius in product(CHARACTERISTICS, range(4)):
                shift = x + HALF * Vec2(*char.vector(s))
                least, first = reference.box_minimum(gram, shift, radius)
                step = box_step(s, char, t0, t1, den, radius)
                num, a, flag = step
                value = F(num, s.gram_den * (2 * den) ** 2)
                assert value == least - reference.q(gram, x, x), (gram, x, char)
                assert a == first, (gram, x, char, radius)
                reach = shift.sup_norm()
                assert flag == reference.certifies(gram, reach, radius, least)
                scaled = box_step(s, char, k * t0, k * t1, k * den, radius)
                assert scaled == (k * k * num, a, flag), (gram, x, char, radius, k)
                certified.add(flag)
    assert certified == {True, False}
