import enum
import math
from fractions import Fraction

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_kummer import (
    Mat2,
    NonSymmetricError,
    Vec2,
    fraction_decimal,
    is_unimodular,
    to_fraction,
)
from tropical_kummer.exact import form, integer_gram, is_positive_form, lex_positive
from tropical_kummer.exact import as_strings, mul_vec, numerators, point

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
small_ints = st.integers(min_value=-6, max_value=6)


def test_rational_parsing_round_trip():
    assert to_fraction("3/4") == Fraction(3, 4)
    assert to_fraction("-2") == Fraction(-2)
    assert to_fraction(5) == Fraction(5)
    # Rationals serialize as str(Fraction): lowest terms, "p/q" or "n".
    assert str(Fraction(3, 4)) == "3/4"
    assert str(Fraction(-7)) == "-7"
    assert str(Fraction(6, 4)) == "3/2"


def test_rational_rejects_junk():
    with pytest.raises(TypeError):
        to_fraction(0.5)
    with pytest.raises(TypeError):
        to_fraction(True)


def test_rational_reads_an_int_subclass_but_not_a_bool():
    class Level(enum.IntEnum):
        HIGH = 7

    assert to_fraction(Level.HIGH) == Fraction(7)
    assert type(to_fraction(Level.HIGH)) is Fraction
    with pytest.raises(TypeError, match="booleans"):
        to_fraction(True)


def test_lex_positive_picks_the_sign_with_a_positive_leading_entry():
    cases = {
        (3, -1): (3, -1),
        (-3, 1): (3, -1),
        (0, -2): (0, 2),
        (0, 2): (0, 2),
        (0, 0): (0, 0),
        (-1, 2, 3): (1, -2, -3),
        (0, -1, 2): (0, 1, -2),
        (0, 0, -5): (0, 0, 5),
        (0, 0, 5): (0, 0, 5),
        (0, 0, 0): (0, 0, 0),
    }
    for vec, want in cases.items():
        assert lex_positive(vec) == want, vec
        assert lex_positive(tuple(-c for c in vec)) == want, vec
        assert type(lex_positive(vec)) is tuple


def test_rational_rejects_zero_denominator():
    for text in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            to_fraction(text)
    with pytest.raises(ValueError):
        Vec2("1", "2/0")


def test_fraction_decimal_is_exactly_rounded():
    assert fraction_decimal(Fraction(1, 3), 6) == "0.333333"
    assert fraction_decimal(Fraction(-1, 2), 3) == "-0.500"
    assert fraction_decimal(Fraction(2), 2) == "2.00"
    # error strictly below one unit in the last place
    val = Fraction(22, 7)
    printed = Fraction(fraction_decimal(val, 9).replace(".", "")) / 10**9
    assert abs(printed - val) < Fraction(1, 10**8)
    with pytest.raises(ValueError, match="digits must be positive"):
        fraction_decimal(val, 0)
    for digits in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="digits must be an int"):
            fraction_decimal(val, digits)


def test_singular_inverse_raises():
    with pytest.raises(ZeroDivisionError, match="singular"):
        Mat2(1, 2, 2, 4).inverse()


def test_positive_definite_examples():
    assert is_positive_form(integer_gram(Mat2.from_rows([[2, -1], [-1, 2]]))[0])
    assert is_positive_form(integer_gram(Mat2.from_rows([[1, 0], [0, 1]]))[0])
    assert not is_positive_form(integer_gram(Mat2.from_rows([[1, 2], [2, 1]]))[0])


def test_positive_definite_rejects_asymmetric():
    with pytest.raises(NonSymmetricError):
        is_positive_form(integer_gram(Mat2.from_rows([[1, 2], [3, 1]]))[0])


def test_unimodular_examples():
    assert is_unimodular([(1, 0), (0, 1), (1, 1)])
    assert not is_unimodular([(2, 0), (0, 2)])
    assert not is_unimodular([(1, 0), (2, 0)])


def test_unimodular_rejects_malformed():
    with pytest.raises(ValueError):
        is_unimodular([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        is_unimodular([(1, 0)])
    # A generator is consumed once; the shape check must still see its rows.
    with pytest.raises(ValueError):
        is_unimodular(r for r in [(1, 0, 5), (0, 1, 7)])
    # A non-integral entry is refused, not truncated or parsed.
    for rows in (
        [(Fraction(3, 2), 0), (0, 1)],
        [(1.9, 0), (0, 1)],
        [("1", "0"), ("0", "1")],
        [(True, False), (False, True)],
    ):
        with pytest.raises(ValueError):
            is_unimodular(rows)
    assert is_unimodular([(Fraction(2, 2), 0), (0, 1)])


# Denominators up to 10^6, numerators up to 300 digits.
wide_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**300) + 1, max_value=10**300 - 1),
    st.integers(min_value=1, max_value=10**6),
)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[wide_rationals] * 3), st.tuples(*[wide_rationals] * 4))
def test_integer_layer_matches_fractions(entries, coordinates):
    a, b, d = entries
    x1, x2, y1, y2 = coordinates
    x, y = Vec2(x1, x2), Vec2(y1, y2)
    for p in (x, y):
        t0, t1, den = numerators(p)
        assert den == math.lcm(p.x.denominator, p.y.denominator)
        assert (Fraction(t0, den), Fraction(t1, den)) == p.as_tuple()
        assert point(t0, t1, den) == point(-3 * t0, -3 * t1, -3 * den) == p
        assert as_strings(p) == [str(p.x), str(p.y)]
    g = Mat2(a, b, b, d)
    h, den = integer_gram(g)
    (x0, x1n, dx), (y0, y1n, dy) = numerators(x), numerators(y)
    value = Fraction(form(h, (x0, x1n), (y0, y1n)), den * dx * dy)
    assert value == reference.q(g, x, y)
    assert value == x1 * (a * y1 + b * y2) + x2 * (b * y1 + d * y2)
    hx, hy = mul_vec(h, (x0, x1n))  # H t = den dx G x
    assert (Fraction(hx, den * dx), Fraction(hy, den * dx)) == g.mul_vec(x).as_tuple()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    small_ints,
    rationals,
    rationals,
)
def test_positive_definite_forms_are_positive(a, d, b, x1, x2):
    g = Mat2(a, b, b, d)
    if not is_positive_form(integer_gram(g)[0]):
        return
    x = Vec2(x1, x2)
    if x != Vec2(0, 0):
        assert reference.q(g, x, x) > 0


@st.composite
def int_matrix_rows(draw):
    m = draw(st.integers(min_value=2, max_value=3))
    return [
        (draw(small_ints), draw(small_ints)) for _ in range(m)
    ]


@st.composite
def gl2z(draw):
    # Build from elementary operations so the determinant stays +-1.
    m = [[1, 0], [0, 1]]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        op = draw(st.integers(min_value=0, max_value=2))
        if op == 0:
            m = [m[1], m[0]]
        elif op == 1:
            m = [[-m[0][0], -m[0][1]], m[1]]
        else:
            k = draw(st.integers(min_value=-3, max_value=3))
            m = [m[0], [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]]
    return m


@settings(max_examples=80, deadline=None)
@given(int_matrix_rows(), gl2z(), st.randoms(use_true_random=False))
def test_unimodular_invariance(rows, u, rng):
    base = is_unimodular(rows)
    permuted = list(rows)
    rng.shuffle(permuted)
    assert is_unimodular(permuted) == base
    transformed = [
        (r[0] * u[0][0] + r[1] * u[1][0], r[0] * u[0][1] + r[1] * u[1][1])
        for r in rows
    ]
    assert is_unimodular(transformed) == base
