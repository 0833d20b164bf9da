import hashlib
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_kernel_pinned import GRAMS
from test_theta import _kernel, _vec

from tropical_kummer import (
    CHARACTERISTICS,
    FormalThetaSeries,
    RadiusTooSmallError,
    ThetaCharacteristic,
    Vec2,
    build_series,
    descent_datum,
    make_surface,
    safe_cutoff,
    theta_eval,
    tropicalize_series,
)
from tropical_kummer.exact import numerators
from tropical_kummer.nonarch import tropicalize_step
from tropical_kummer.sampling import random_integer_vector, random_point, rng_for
from tropical_kummer.theta import theta_eval_bruteforce

F = Fraction
CH = ThetaCharacteristic

lattice_vectors = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)
).map(lambda t: Vec2(t[0], t[1]))


def test_descent_datum_examples(hexagonal):
    datum = descent_datum(hexagonal)
    assert datum.den == 1
    assert datum.gamma((1, 0)) == 2
    assert datum.gamma((0, 0)) == 0
    # Hand check of the cocycle identity at (1,0), (0,1).
    lhs = datum.gamma((1, 1)) - datum.gamma((1, 0)) - datum.gamma((0, 1))
    assert lhs == -2
    assert lhs == 2 * hexagonal.q(Vec2(0, 1), Vec2(1, 0))
    assert datum.lambda_matrix == ((2, 0), (0, 2))


@settings(max_examples=60, deadline=None)
@given(lattice_vectors, lattice_vectors)
def test_descent_cocycle_identity(u1, u2):
    from tropical_kummer import make_surface

    datum = descent_datum(make_surface([[2, -1], [-1, 3]]))
    a, b = numerators(u1)[:2], numerators(u2)[:2]
    assert datum.cocycle_defect(a, b) == 0
    assert datum.gamma(a) == datum.gamma((-a[0], -a[1]))


def _descent_cocycle(s, rng):
    # The Fraction statement of the `descent-datum-cocycle` row, which runs
    # on the datum's integer numerators: B = pairing / den, gamma = B(u, u)/2.
    u1, u2 = random_integer_vector(rng, 5), random_integer_vector(rng, 5)
    datum = descent_datum(s)
    b11, b12, b22 = (F(b, datum.den) for b in datum.pairing)
    pairing = ((b11, b12), (b12, b22))

    def gamma(u):
        return reference.q(pairing, u, u) / 2

    if gamma(u1 + u2) - gamma(u1) - gamma(u2) - reference.q(pairing, u1, u2) != 0:
        return {"u1": _vec(u1), "u2": _vec(u2)}
    if gamma(u1) != gamma(-u1):
        return {"u1": _vec(u1), "problem": "gamma not even"}
    if gamma(u1) != s.norm(u1):
        return {"u1": _vec(u1), "problem": "gamma != Q(u,u)"}


def _gram_raised(integer_gram):
    """A fault: the datum's Gram H with h11 one higher, so gamma != Q."""

    def raised(gram):
        (h11, h12, h22), den = integer_gram(gram)
        return (h11 + 1, h12, h22), den

    return raised


def test_build_series_examples(hexagonal):
    single = build_series(hexagonal, CH(1, 0), 0)
    assert single.support == (((1, 0), F(0)),)
    assert single.constant_shift == F(1, 2)

    nine = build_series(hexagonal, CH(0, 0), 1)
    assert len(nine.support) == 9
    terms = dict(nine.support)
    assert terms[(0, 0)] == 0
    assert terms[(2, 0)] == 2


def test_constant_shift_is_a_quarter_of_the_characteristic_norm(
    hexagonal, skew_hexagonal, hidden_product, unit_square
):
    # It reads the stored conorms; Q(c, c) is recomputed from the Gram, and
    # theta_c(0) = Q(c/2) by the descent, which shares no code with the
    # conorm rule.  On the skew hexagon Q(u) != Q(v), and on a product type
    # p_uv = 0.
    rational = make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]])
    for s in (hexagonal, skew_hexagonal, hidden_product, unit_square, rational):
        for char in CHARACTERISTICS:
            shift = build_series(s, char, 0).constant_shift
            assert shift == s.norm(Vec2(*char.vector(s))) / 4, (s, char)
            assert shift == theta_eval(s, char, Vec2(0, 0)).value, (s, char)


def _peak_bytes(fn):
    """The peak of the memory `fn()` allocates, traced by `tracemalloc`."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_costs_constant_memory(hexagonal):
    # A series stores none of the 200,001 rows of this box, and an
    # evaluation keeps only the lowest row seen so far.
    assert _peak_bytes(lambda: build_series(hexagonal, CH(1, 1), 10**5)) < 10**6
    v = Vec2(-40, F(17, 3))
    small = build_series(hexagonal, CH(1, 1), 1000)
    tropicalize_series(small, v)  # the shift is computed once, on first use
    assert _peak_bytes(lambda: tropicalize_series(small, v)) < 16 * 1024
    for bad in (-1, -(10**5)):
        with pytest.raises(ValueError):
            build_series(hexagonal, CH(1, 1), bad)
        with pytest.raises(ValueError):
            FormalThetaSeries(hexagonal, CH(1, 1), bad)


def test_series_rejects_a_cutoff_that_is_not_an_int(hexagonal):
    # A float cutoff used to build a series with n_terms 36.0 whose evaluation,
    # where the box binds, raised an unclassified TypeError.
    for bad in (2.5, F(5, 2), F(2), True, "2"):
        with pytest.raises(ValueError, match="^cutoff must be an int"):
            build_series(hexagonal, CH(0, 0), bad)
        with pytest.raises(ValueError, match="^cutoff must be an int"):
            FormalThetaSeries(hexagonal, CH(0, 0), bad)
    assert build_series(hexagonal, CH(0, 0), 2).n_terms == 25


def test_safe_cutoff_rejects_a_float_or_bool_bound(hexagonal):
    # Both used to be accepted: 0.1 through its binary expansion, True as 1.
    for bad in (0.1, 1.0, True, False):
        with pytest.raises(TypeError):
            safe_cutoff(hexagonal, CH(1, 0), bad)
    assert safe_cutoff(hexagonal, CH(1, 0), 1) == safe_cutoff(hexagonal, CH(1, 0), F(1))
    assert safe_cutoff(hexagonal, CH(1, 0), "1/10") == safe_cutoff(
        hexagonal, CH(1, 0), F(1, 10)
    )


def test_series_exponents_distinct(hexagonal, skew_hexagonal):
    for s in (hexagonal, skew_hexagonal):
        for char in CHARACTERISTICS:
            series = build_series(s, char, 2)
            exponents = [e for e, _ in series.support]
            assert len(set(exponents)) == len(exponents)


def test_tropicalize_examples(hexagonal):
    series = build_series(hexagonal, CH(1, 0), 3)
    assert tropicalize_series(series, Vec2(0, 0)) == F(1, 2)

    series00 = build_series(hexagonal, CH(0, 0), 3)
    assert tropicalize_series(series00, Vec2(F(1, 10), F(1, 10))) == 0


def test_integer_series_on_rational_gram():
    s = make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]])
    for char in CHARACTERISTICS:
        c = Vec2(*char.vector(s))
        for (ex, ey), val in build_series(s, char, 3).support:
            up = Vec2(F(ex - c.x, 2), F(ey - c.y, 2))
            assert up.is_integral()
            assert val == s.norm(up) + s.q(c, up)
        series = build_series(s, char, safe_cutoff(s, char, F(2)))
        for k in range(20):
            v = random_point(rng_for(73, "rational-gram", k), 2)
            assert tropicalize_series(series, v) == theta_eval(s, char, v).value


def test_safe_cutoff_examples(hexagonal):
    r = safe_cutoff(hexagonal, CH(0, 0), F(1))
    assert 1 <= r <= 10
    assert safe_cutoff(hexagonal, CH(1, 1), F(0)) >= 1
    with pytest.raises(ValueError, match="region_bound must be nonnegative"):
        safe_cutoff(hexagonal, CH(0, 0), F(-1))


def test_safe_cutoff_matches_stepping(hexagonal, skew_hexagonal, unit_square):
    surfaces = (
        hexagonal,
        skew_hexagonal,
        make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]]),
        make_surface([[1, 0], [0, 10**4]]),
        unit_square,
    )
    bounds = [F(n) for n in range(0, 13)] + [
        F(1, 3), F(1, 2), F(5, 7), F(7, 2), F(99, 10), F(101, 7), F(40, 3)
    ]
    for s in surfaces:
        for char in CHARACTERISTICS:
            half_c = Vec2(*char.vector(s)).sup_norm() / 2
            for bound in bounds:
                reach = bound + half_c
                want = reference.radius_by_steps(s.gram, reach)
                assert safe_cutoff(s, char, bound) == want, (s.gram, char, bound)
    # On diag(1, 1), lam_low = 1/2 and sum |G_ij| = 2, so a bound with
    # reach = bound + |c|_inf / 2 = (R + 1) / 3 meets the certificate with
    # equality at R, and the cutoff must step to R + 1.
    for char in CHARACTERISTICS:
        half_c = Vec2(*char.vector(unit_square)).sup_norm() / 2
        for r in range(1, 20):
            bound = F(r + 1, 3) - half_c
            if bound >= 0:
                want = reference.radius_by_steps(unit_square.gram, bound + half_c)
                assert safe_cutoff(unit_square, char, bound) == want == r + 1
    assert safe_cutoff(unit_square, CH(1, 0), F(1, 2)) == 3  # equality at R = 2
    start = time.perf_counter()
    huge = safe_cutoff(hexagonal, CH(1, 1), F(10**12))
    assert time.perf_counter() - start < 0.05
    assert huge > 10**12


def test_cutoff_monotone_and_stabilized(hexagonal):
    char = CH(1, 1)
    v = Vec2(F(3, 2), F(-1, 3))
    r = safe_cutoff(hexagonal, char, v.sup_norm())
    values = [
        tropicalize_series(build_series(hexagonal, char, c), v)
        for c in range(0, 2 * r + 1)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[r] == values[2 * r]


@st.composite
def rational_grams(draw):
    """Positive definite 2x2 Grams with small rational entries."""
    ratio = st.fractions(min_value=-4, max_value=4, max_denominator=9)
    a = draw(ratio.filter(lambda q: q > 0))
    b = draw(ratio)
    d = draw(ratio.filter(lambda q: q > 0 and a * q > b * b))
    return make_surface([[a, b], [b, d]])


@settings(max_examples=60, deadline=None)
@given(
    rational_grams(),
    st.sampled_from(CHARACTERISTICS),
    st.integers(min_value=0, max_value=6),
    st.lists(
        st.tuples(
            st.fractions(min_value=-5, max_value=5, max_denominator=11),
            st.fractions(min_value=-5, max_value=5, max_denominator=11),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_closed_form_rows_match_term_scan(s, char, cutoff, points):
    # The rows `tropicalize_series` writes in closed form against the terms
    # that `reference.series_scan` writes one by one from the box.
    series = build_series(s, char, cutoff)
    assert series.n_terms == len(series.support) == (2 * cutoff + 1) ** 2
    for x, y in points:
        v = Vec2(x, y)
        want = reference.series_scan(s.gram, char.vector(s), cutoff, v)
        assert tropicalize_series(series, v) == want


@st.composite
def extreme_grams(draw):
    """Positive definite Grams with entries up to 10^6, some nearly singular."""
    a = draw(st.integers(min_value=1, max_value=10**6))
    d = draw(st.integers(min_value=1, max_value=10**6))
    top = min(math.isqrt(a * d - 1), 10**6)  # |b| <= top keeps a d - b^2 >= 1
    b = draw(st.one_of(st.sampled_from((top, -top)), st.integers(-top, top)))
    den = draw(st.sampled_from((1, 7, 1000)))
    return make_surface([[F(a, den), F(b, den)], [F(b, den), F(d, den)]])


huge_fractions = st.fractions(
    min_value=-(10**30), max_value=10**30, max_denominator=10**30
)

# Seconds allowed for one build or one tropicalization at cutoff <= 6.
SERIES_CALL_BUDGET_S = 0.1


@settings(max_examples=60, deadline=None)
@given(
    extreme_grams(),
    st.sampled_from(CHARACTERISTICS),
    st.integers(min_value=0, max_value=6),
    st.lists(st.tuples(huge_fractions, huge_fractions), min_size=1, max_size=4),
)
def test_series_rows_at_extreme_inputs(s, char, cutoff, points):
    start = time.perf_counter()
    series = build_series(s, char, cutoff)
    assert time.perf_counter() - start < SERIES_CALL_BUDGET_S
    for x, y in points:
        v = Vec2(x, y)
        start = time.perf_counter()
        value = tropicalize_series(series, v)
        assert time.perf_counter() - start < SERIES_CALL_BUDGET_S, (x, y)
        assert value == reference.series_scan(s.gram, char.vector(s), cutoff, v)


# Points near the origin, where a box of radius <= 5 can certify its minimum.
near_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=10**30)


@settings(max_examples=60, deadline=None)
@given(
    extreme_grams(),
    st.sampled_from(CHARACTERISTICS),
    st.integers(min_value=0, max_value=5),
    st.lists(
        st.tuples(
            st.one_of(near_fractions, huge_fractions),
            st.one_of(near_fractions, huge_fractions),
        ),
        min_size=1,
        max_size=4,
    ),
)
# The bound met with equality: (1/3, 1/3) off the box corner, margin 2/3.
@example(make_surface([[1, 0], [0, 1]]), CH(0, 0), 2, [(F(-7, 3), F(-7, 3))])
# |s|_inf read off the second coordinate, s = (-3/2, -3).
@example(make_surface([[2, -1], [-1, 2]]), CH(1, 0), 2, [(F(-2), F(-3))])
def test_bruteforce_certificate_at_extreme_inputs(s, char, radius, points):
    # The walk's certificate on integers against the bound on Fractions:
    # lam_low (R + 1 - |s|_inf)^2 > box_min, lam_low read off the Gram.
    for x, y in points:
        v = Vec2(x, y)
        # The oracle's premise: the safe box certifies, or the walk raises.
        theta_eval_bruteforce(s, char, v, safe_cutoff(s, char, v.sup_norm()))
        shift = v + F(1, 2) * Vec2(*char.vector(s))
        box_min, first = reference.box_minimum(s.gram, shift, radius)
        if reference.certifies(s.gram, shift.sup_norm(), radius, box_min):
            tv = theta_eval_bruteforce(s, char, v, radius)
            assert tv.value == box_min - reference.q(s.gram, v, v), (x, y)
            assert (tv.minimizer.x, tv.minimizer.y) == first, (x, y)
        else:
            with pytest.raises(RadiusTooSmallError) as raised:
                theta_eval_bruteforce(s, char, v, radius)
            assert str(raised.value) == (
                f"radius {radius} cannot certify the minimum for shift "
                f"{shift.as_tuple()}"
            )


def _variant_cases():
    grams = (
        [[2, -1], [-1, 2]],
        [[2, -1], [-1, 3]],
        [[5, 3], [3, 2]],
        [[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]],
        [[1, 0], [0, 10**4]],
    )
    for gram in grams:
        s = make_surface(gram)
        for char in CHARACTERISTICS:
            for cutoff in (0, 1, 2, 3, 4, 7):
                series = build_series(s, char, cutoff)
                for k in range(12):
                    key = (str(gram), str(char), cutoff, k)
                    # Far points put the row vertices outside the box.
                    v = random_point(rng_for(83, *key), 3 if k % 2 else 40)
                    yield key, series, v


def test_tropicalize_matches_scan():
    for key, series, v in _variant_cases():
        s, c = series.surface, series.char.vector(series.surface)
        want = reference.series_scan(s.gram, c, series.cutoff, v)
        assert tropicalize_series(series, v) == want, key


# SHA-256 of every `_variant_cases` value, recorded with the earlier
# `build_series`, which stored each of its rows.
TROPICALIZE_VARIANTS_SHA256 = (
    "972854bf627b9feb75be8ca660092351c98aaec570e6667d24b6d4fa41db5399"
)


def test_tropicalize_variants_pinned():
    digest = hashlib.sha256()
    for key, series, v in _variant_cases():
        digest.update(f"{key}:{tropicalize_series(series, v)}\n".encode())
    assert digest.hexdigest() == TROPICALIZE_VARIANTS_SHA256


def test_tropicalize_step_is_the_scan_over_any_common_denominator():
    # On hex, product-type, rational, sheared and skew Grams, the step's
    # numerator over gram_den (2 den)^2 is the term-by-term scan and
    # `tropicalize_series`; (k t, k den) gives k^2 num.
    for i, gram in enumerate(GRAMS + (((2, -1), (-1, 3)),)):
        s = make_surface(gram)
        for char, cutoff in product(CHARACTERISTICS, (0, 1, 3)):
            series = build_series(s, char, cutoff)
            for j in range(6):
                rng = rng_for(31, i, str(char), cutoff, j)
                v = random_point(rng, 3)
                t0, t1, den = numerators(v)
                k = rng.randint(2, 7)
                num = tropicalize_step(series, t0, t1, den)
                want = reference.series_scan(gram, char.vector(s), cutoff, v)
                value = F(num, s.gram_den * (2 * den) ** 2)
                assert value == want == tropicalize_series(series, v), (gram, v)
                scaled = tropicalize_step(series, k * t0, k * t1, k * den)
                assert scaled == k * k * num, (gram, v, char, cutoff, k)


# The Fraction statement of each series row that `verify` checks on
# `tropicalize_step` numerators, which `test_invariants.TWINS` runs beside
# its row.  A statement builds the series that the row's setup builds.
def _tables(s, bound):
    return [build_series(s, c, safe_cutoff(s, c, bound)) for c in CHARACTERISTICS]


def _series_lift(s, rng):
    v = random_point(rng, 2)
    for char, series, want in zip(CHARACTERISTICS, _tables(s, F(2)), _kernel(s, v)):
        got = tropicalize_series(series, v)
        if got != want:
            return {
                "v": _vec(v),
                "char": str(char),
                "series": str(got),
                "theta": str(want),
            }


def _series_quasi_periodicity(s, rng):
    v = random_point(rng, 2)
    up = random_integer_vector(rng, 2)
    shifted, anomaly = v + up, 2 * s.q(v, up) + s.norm(up)
    for series in _tables(s, F(5)):
        lhs = tropicalize_series(series, shifted)
        if lhs != tropicalize_series(series, v) - anomaly:
            return {"v": _vec(v), "shift": _vec(up)}


def _cutoff_stability(s, rng):
    v = random_point(rng, 2)
    for char in CHARACTERISTICS:
        safe = safe_cutoff(s, char, F(2))
        cutoffs = (max(0, safe - 1), safe, 2 * safe)
        values = [tropicalize_series(build_series(s, char, r), v) for r in cutoffs]
        if values[1] > values[0] or values[2] > values[1]:
            return {"v": _vec(v), "char": str(char)}
        if values[2] != values[1]:
            return {"v": _vec(v), "char": str(char), "problem": "not stabilized"}


def _raised(by):
    """A fault: `box_step` with its numerator raised by by(t0, radius)."""

    def wrap(box_step):
        def raised(surface, char, t0, t1, den, radius):
            num, a, certified = box_step(surface, char, t0, t1, den, radius)
            return num + by(t0, radius), a, certified

        return raised

    return wrap
