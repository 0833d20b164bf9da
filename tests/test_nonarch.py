import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    theta_eval_bruteforce,
    tropicalize_series,
)
from tropical_kummer.sampling import random_point, rng_for

F = Fraction
CH = ThetaCharacteristic

lattice_vectors = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)
).map(lambda t: Vec2(t[0], t[1]))


def test_descent_datum_examples(hexagonal):
    datum = descent_datum(hexagonal)
    assert datum.gamma(Vec2(1, 0)) == 2
    assert datum.gamma(Vec2(0, 0)) == 0
    # Hand check of the cocycle identity at (1,0), (0,1).
    lhs = datum.gamma(Vec2(1, 1)) - datum.gamma(Vec2(1, 0)) - datum.gamma(Vec2(0, 1))
    assert lhs == -2
    assert lhs == 2 * hexagonal.q(Vec2(0, 1), Vec2(1, 0))
    assert datum.lambda_matrix == ((2, 0), (0, 2))


@settings(max_examples=60, deadline=None)
@given(lattice_vectors, lattice_vectors)
def test_descent_cocycle_identity(u1, u2):
    from tropical_kummer import make_surface

    datum = descent_datum(make_surface([[2, -1], [-1, 3]]))
    assert datum.cocycle_defect(u1, u2) == 0
    assert datum.gamma(u1) == datum.gamma(-u1)


def test_build_series_examples(hexagonal):
    single = build_series(hexagonal, CH(1, 0), 0)
    assert single.support == (((1, 0), F(0)),)
    assert single.constant_shift == F(1, 2)

    nine = build_series(hexagonal, CH(0, 0), 1)
    assert len(nine.support) == 9
    terms = dict(nine.support)
    assert terms[(0, 0)] == 0
    assert terms[(2, 0)] == 2


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


def _safe_cutoff_by_steps(surface, char, region_bound):
    """`safe_cutoff` as it was first written: radius raised one at a time."""
    bound = F(region_bound)
    g = surface.gram
    c = Vec2(*char.vector(surface))
    reach = bound + c.sup_norm() / 2
    weight = abs(g.a) + abs(g.b) + abs(g.c) + abs(g.d)
    upper = weight * reach * reach
    lam_low = g.det() / (g.a + g.d)  # read off the Fraction Gram
    radius = 1
    while True:
        margin = radius + 1 - reach
        if margin > 0 and lam_low * margin * margin > upper:
            return radius
        radius += 1


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
            for bound in bounds:
                want = _safe_cutoff_by_steps(s, char, bound)
                assert safe_cutoff(s, char, bound) == want, (s.gram, char, bound)
    # On diag(1, 1), lam_low = 1/2 and sum |G_ij| = 2, so a bound with
    # reach = bound + |c|_inf / 2 = (R + 1) / 3 meets the certificate with
    # equality at R, and the cutoff must step to R + 1.
    for char in CHARACTERISTICS:
        half_c = Vec2(*char.vector(unit_square)).sup_norm() / 2
        for r in range(1, 20):
            bound = F(r + 1, 3) - half_c
            if bound >= 0:
                want = _safe_cutoff_by_steps(unit_square, char, bound)
                assert safe_cutoff(unit_square, char, bound) == want == r + 1
    assert safe_cutoff(unit_square, CH(1, 0), F(1, 2)) == 3  # equality at R = 2
    start = time.perf_counter()
    huge = safe_cutoff(hexagonal, CH(1, 1), F(10**12))
    assert time.perf_counter() - start < 0.05
    assert huge > 10**12


def test_safe_cutoff_doubling_stability(row_passes, hexagonal, skew_hexagonal):
    # 25 points: the row reads a quarter of the samples.
    row_passes(
        "series-cutoff-stability", hexagonal, skew_hexagonal, samples=100, seed=61
    )


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


def test_lift_consistency(row_passes, hexagonal, skew_hexagonal, hidden_product):
    surfaces = (hexagonal, skew_hexagonal, hidden_product)
    row_passes("series-lift-consistency", *surfaces, samples=50, seed=67)


def test_series_quasi_periodicity(row_passes, hexagonal):
    # 15 points: the row reads a quarter of the samples.
    row_passes("series-quasi-periodicity", hexagonal, samples=60, seed=71)


@st.composite
def rational_grams(draw):
    """Positive definite 2x2 Grams with small rational entries."""
    ratio = st.fractions(min_value=-4, max_value=4, max_denominator=9)
    a = draw(ratio.filter(lambda q: q > 0))
    b = draw(ratio)
    d = draw(ratio.filter(lambda q: q > 0 and a * q > b * b))
    return make_surface([[a, b], [b, d]])


def _scan(series, v):
    """The definition of tropicalization, term by term on Fractions."""
    s = series.surface
    g = s.gram
    gx = g.a * v.x + g.b * v.y
    gy = g.c * v.x + g.d * v.y
    shift = s.norm(Vec2(*series.char.vector(s))) / 4
    return shift + min(ex * gx + ey * gy + val for (ex, ey), val in series.support)


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
    # of `support`, which are built one by one from the box.
    series = build_series(s, char, cutoff)
    assert series.n_terms == len(series.support) == (2 * cutoff + 1) ** 2
    for x, y in points:
        v = Vec2(x, y)
        assert tropicalize_series(series, v) == _scan(series, v)


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
        assert value == _scan(series, v)


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
    g = s.gram
    lam_low = g.det() / (g.a + g.d)
    side = range(-radius, radius + 1)
    box = [(a1, a2) for a1 in side for a2 in side]
    for x, y in points:
        v = Vec2(x, y)
        # The oracle's premise: the safe box certifies, or the walk raises.
        theta_eval_bruteforce(s, char, v, safe_cutoff(s, char, v.sup_norm()))
        shift = v + F(1, 2) * Vec2(*char.vector(s))
        box_min, first = min((s.norm(Vec2(*a) + shift), a) for a in box)
        margin = radius + 1 - shift.sup_norm()
        if margin > 0 and lam_low * margin * margin > box_min:
            tv = theta_eval_bruteforce(s, char, v, radius)
            assert tv.value == box_min - s.norm(v), (x, y)
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
        assert tropicalize_series(series, v) == _scan(series, v), key


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
