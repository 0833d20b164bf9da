import hashlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_kummer import (
    CHARACTERISTICS,
    EmptySupportError,
    FormalThetaSeries,
    ThetaCharacteristic,
    Vec2,
    build_series,
    descent_datum,
    make_surface,
    safe_cutoff,
    theta_eval,
    tropicalize_series,
)
from tropical_kummer.sampling import random_point, rng_for
from tropical_kummer.theta import char_vector, spectral_floor

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


def test_tropicalize_is_shift_equivariant(hexagonal):
    base = build_series(hexagonal, CH(0, 1), 2)
    v = Vec2(F(1, 3), F(-2, 7))
    # The second shift puts the valuations on a denominator the Gram lacks.
    for shift in (7, F(1, 3)):
        shifted = FormalThetaSeries(
            surface=base.surface,
            support=tuple((e, val + shift) for e, val in base.support),
            constant_shift=base.constant_shift,
            char=base.char,
            cutoff=base.cutoff,
        )
        assert tropicalize_series(shifted, v) == tropicalize_series(base, v) + shift


def test_integer_series_on_rational_gram():
    s = make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]])
    for char in CHARACTERISTICS:
        c = char_vector(s, char)
        for (ex, ey), val in build_series(s, char, 3).support:
            up = Vec2(F(ex - c.x, 2), F(ey - c.y, 2))
            assert up.is_integral()
            assert val == s.norm(up) + s.q(c, up)
        series = build_series(s, char, safe_cutoff(s, char, F(2)))
        for k in range(20):
            v = random_point(rng_for(73, "rational-gram", k), 2)
            assert tropicalize_series(series, v) == theta_eval(s, char, v).value


def test_tropicalize_empty_support(hexagonal):
    empty = FormalThetaSeries(
        surface=hexagonal,
        support=(),
        constant_shift=F(0),
        char=CH(0, 0),
        cutoff=0,
    )
    with pytest.raises(EmptySupportError):
        tropicalize_series(empty, Vec2(0, 0))


def test_safe_cutoff_examples(hexagonal):
    r = safe_cutoff(hexagonal, CH(0, 0), F(1))
    assert 1 <= r <= 10
    assert safe_cutoff(hexagonal, CH(1, 1), F(0)) >= 1


def _safe_cutoff_by_steps(surface, char, region_bound):
    """`safe_cutoff` as it was first written: radius raised one at a time."""
    bound = F(region_bound)
    g = surface.gram
    c = char_vector(surface, char)
    reach = bound + c.sup_norm() / 2
    weight = abs(g.a) + abs(g.b) + abs(g.c) + abs(g.d)
    upper = weight * reach * reach
    lam_low = spectral_floor(surface)
    radius = 1
    while True:
        margin = radius + 1 - reach
        if margin > 0 and lam_low * margin * margin > upper:
            return radius
        radius += 1


def test_safe_cutoff_matches_stepping(hexagonal, skew_hexagonal):
    surfaces = (
        hexagonal,
        skew_hexagonal,
        make_surface([[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]]),
        make_surface([[1, 0], [0, 10**4]]),
    )
    bounds = [F(n) for n in range(0, 13)] + [
        F(1, 3), F(1, 2), F(5, 7), F(7, 2), F(99, 10), F(101, 7), F(40, 3)
    ]
    for s in surfaces:
        for char in CHARACTERISTICS:
            for bound in bounds:
                want = _safe_cutoff_by_steps(s, char, bound)
                assert safe_cutoff(s, char, bound) == want, (s.gram, char, bound)
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
def test_closed_form_rows_match_fitted_rows(s, char, cutoff, points):
    # The rows `build_series` writes against the rows fitted from its terms,
    # which are built one by one from the box.
    series = build_series(s, char, cutoff)
    fitted = FormalThetaSeries(
        surface=s,
        support=series.support,
        constant_shift=series.constant_shift,
        char=char,
        cutoff=cutoff,
    )
    assert series.n_terms == len(series.support) == (2 * cutoff + 1) ** 2
    for x, y in points:
        v = Vec2(x, y)
        assert tropicalize_series(series, v) == tropicalize_series(fitted, v)


def _scan(series, v):
    """The definition of tropicalization, term by term on Fractions."""
    g = series.surface.gram
    gx = g.a * v.x + g.b * v.y
    gy = g.c * v.x + g.d * v.y
    return series.constant_shift + min(
        ex * gx + ey * gy + val for (ex, ey), val in series.support
    )


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


def _support_variants(s, char, cutoff):
    """Supports derived from one `build_series` support, by name."""
    base = build_series(s, char, cutoff)
    sup = base.support
    width = 2 * cutoff + 1  # build_series emits rows of this length
    rng = rng_for(79, "variants", s.gram.describe(), str(char), cutoff)
    first_per_row = {}
    for (ex, ey), val in sup:
        first_per_row.setdefault(ex, ((ex, ey), val))
    shuffled = list(sup)
    rng.shuffle(shuffled)
    variants = {
        "base": sup,
        "shift 7": tuple((e, val + 7) for e, val in sup),
        "shift 1/3": tuple((e, val + F(1, 3)) for e, val in sup),
        # Each row shifted by its own constant and tilted linearly.
        "row-wise affine": tuple(
            ((ex, ey), val + F(ex, 5) - ey) for (ex, ey), val in sup
        ),
        "decimated": tuple(t for k, t in enumerate(sup) if k % width % 2 == 0),
        "irregular": sup[:1] + tuple(t for t in sup[1:] if rng.random() < 0.7),
        "duplicates": sup
        + tuple((e, val + rng.randint(-2, 2)) for e, val in sup[::3]),
        "concave": tuple((e, -val) for e, val in sup),
        "concave shuffled": tuple((e, -val) for e, val in shuffled),
        "single-term rows": tuple(first_per_row.values()),
        "one perturbed term": sup[:-1] + ((sup[-1][0], sup[-1][1] + F(1, 5)),),
        "shuffled": tuple(shuffled),
    }
    for name, support in variants.items():
        yield name, FormalThetaSeries(
            surface=s,
            support=support,
            constant_shift=base.constant_shift,
            char=char,
            cutoff=cutoff,
        )


def _variant_cases():
    grams = (
        [[2, -1], [-1, 2]],
        [[2, -1], [-1, 3]],
        [[5, 3], [3, 2]],
        [[F(1, 2), F(-1, 5)], [F(-1, 5), F(3, 7)]],
    )
    for gram in grams:
        s = make_surface(gram)
        for char in CHARACTERISTICS:
            for cutoff in (0, 1, 2, 4):
                for name, series in _support_variants(s, char, cutoff):
                    for k in range(5):
                        key = (str(gram), str(char), cutoff, name, k)
                        v = random_point(rng_for(83, *key), 3)
                        yield key, series, v


def test_tropicalize_matches_scan():
    for key, series, v in _variant_cases():
        assert tropicalize_series(series, v) == _scan(series, v), key


# SHA-256 of every `_variant_cases` value, recorded before the series rows
# replaced the flat term table.
TROPICALIZE_VARIANTS_SHA256 = (
    "d1687c587c4054fb827fb1e5a0e67f143d284f8dfe989e6f47c1fe7c3bbbee1c"
)


def test_tropicalize_variants_pinned():
    digest = hashlib.sha256()
    for key, series, v in _variant_cases():
        digest.update(f"{key}:{tropicalize_series(series, v)}\n".encode())
    assert digest.hexdigest() == TROPICALIZE_VARIANTS_SHA256
