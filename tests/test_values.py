"""The contract of the value types: constructor, equality, hash, repr, frozenness.

Each former record class keeps the behaviour it had as a generated record:
the same positional and keyword constructor with the same defaults, equality
only within its own class, a hash equal to that of the tuple of its compared
fields, the same ``repr`` and, unless it is a report, no assignment.
"""

from fractions import Fraction as F

import pytest

from tropical_kummer import (
    Distinct,
    EquivalentMinus,
    EquivalentPlus,
    Mat2,
    PrincipallyPolarizedSurface,
    ThetaCharacteristic,
    Vec2,
    Vec3,
    affine_pieces,
    build_quartic,
    injectivity_check,
    lagrange_reduce,
    make_surface,
    psi_eval,
    subdivide,
    theta_eval,
    voronoi_cell,
)
from tropical_kummer import verify
from tropical_kummer.nonarch import build_series, descent_datum
from tropical_kummer.theta import theta_eval_bruteforce

HEX = make_surface([[2, -1], [-1, 2]])

# Every frozen, hashable value type, one instance each, with its compared
# fields in constructor order.
FIELDS = {
    "Vec2": ("x", "y"),
    "Vec3": ("x", "y", "z"),
    "Mat2": ("a", "b", "c", "d"),
    "ReducedBasis": ("u", "v", "norms"),
    "VoronoiCell": ("kind", "relevant_vectors", "vertices"),
    "Cell": ("kind", "quadrilateral", "vertices"),
    "ThetaCharacteristic": ("j1", "j2"),
    "ThetaValue": ("value", "minimizer"),
    "FacePlane": ("normal", "offset", "vertex_ids", "source_cells"),
    "KummerQuartic": ("vertices", "faces", "theta_constants"),
    "AffinePiece": ("cell", "linear_part", "offset", "unimodular"),
    "EquivalentPlus": ("shift",),
    "EquivalentMinus": ("shift",),
    "Distinct": ("witness",),
    "TropicalDescentDatum": ("lambda_matrix", "pairing", "den"),
    "Check": ("name", "fn", "key", "count", "needs", "setup"),
}


def _instances():
    quartic = build_quartic(HEX)
    objs = [
        Vec2(1, F(-1, 2)),
        Vec3(1, 2, F(3, 4)),
        HEX.gram,
        lagrange_reduce(HEX),
        voronoi_cell(HEX),
        subdivide(HEX)[0],
        ThetaCharacteristic(1, 0),
        theta_eval(HEX, ThetaCharacteristic(1, 0), Vec2(F(1, 2), 0)),
        quartic.faces[0],
        quartic,
        affine_pieces(HEX)[0],
        injectivity_check(HEX, Vec2(F(1, 5), F(1, 7)), Vec2(F(6, 5), F(8, 7))),
        injectivity_check(HEX, Vec2(F(1, 5), F(1, 7)), Vec2(F(-1, 5), F(-1, 7))),
        injectivity_check(HEX, Vec2(F(1, 5), F(1, 7)), Vec2(F(1, 3), 0)),
        descent_datum(HEX),
        verify.CHECKS[0],
    ]
    assert [type(o).__name__ for o in objs] == list(FIELDS)
    return objs


@pytest.mark.parametrize("obj", _instances(), ids=list(FIELDS))
def test_frozen_value_type_contract(obj):
    cls, names = type(obj), FIELDS[type(obj).__name__]
    values = tuple(getattr(obj, n) for n in names)
    assert hash(obj) == hash(values)
    assert cls(*values) == obj and hash(cls(*values)) == hash(obj)
    assert cls(**dict(zip(names, values))) == obj
    assert obj != values and obj.__eq__(values) is NotImplemented
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(obj) == f"{cls.__qualname__}({shown})"
    with pytest.raises(AttributeError):
        setattr(obj, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(obj, names[-1])
    for args, kwargs in (
        (values + values[:1], {}),  # one argument too many
        (values, {names[0]: values[0]}),  # the first field given twice
        (values[:-1], {"bogus": values[-1]}),  # a field that does not exist
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_reprs_are_unchanged():
    # Recorded from the generated record classes these types replace.
    assert repr(Vec2(1, F(-1, 2))) == "Vec2(x=Fraction(1, 1), y=Fraction(-1, 2))"
    assert repr(Mat2(2, -1, -1, 2)) == (
        "Mat2(a=Fraction(2, 1), b=Fraction(-1, 1), c=Fraction(-1, 1), "
        "d=Fraction(2, 1))"
    )
    value = theta_eval(HEX, ThetaCharacteristic(1, 0), Vec2(F(1, 2), 0))
    assert repr(value) == (
        "ThetaValue(value=Fraction(-1, 2), "
        "minimizer=Vec2(x=Fraction(-1, 1), y=Fraction(0, 1)))"
    )
    assert repr(build_quartic(HEX).faces[0]) == (
        "FacePlane(normal=(1, 1, -1), offset=Fraction(1, 2), "
        "vertex_ids=('tau_0', 'tau_3', 'tau_tilde_1', 'tau_tilde_2'), "
        "source_cells=('sigma1', 'rho3', 'sigma4', 'rho6'))"
    )
    assert repr(HEX) == (
        "PrincipallyPolarizedSurface(gram=Mat2(a=Fraction(2, 1), "
        "b=Fraction(-1, 1), c=Fraction(-1, 1), d=Fraction(2, 1)))"
    )


def _same_as_public(obj):
    """obj, rebuilt by its public (coercing) constructor, is indistinguishable."""
    values = tuple(getattr(obj, n) for n in FIELDS[type(obj).__name__])
    public = type(obj)(*values)
    assert obj == public and hash(obj) == hash(public) and repr(obj) == repr(public)
    if isinstance(obj, (Vec2, Vec3, Mat2)):  # what `to_fraction` would have made
        assert all(type(e) is F for e in values), repr(obj)


def test_arithmetic_builds_what_the_public_constructors_build():
    # Arithmetic and the kernels build values through the private `_of`, which
    # does not coerce: the fields must already be what the public one makes.
    skew = make_surface([[2, -1], [-1, 3]])
    u, v = Vec2(F(1, 3), -2), Vec2(5, F(-7, 4))
    p, q = Vec3(F(1, 3), -2, 0), Vec3(5, F(-7, 4), F(2, 9))
    m = Mat2(2, F(1, 2), -1, 3)
    for obj in (u + v, u - v, -u, 3 * u, F(-2, 5) * v, m.mul_vec(u)):
        _same_as_public(obj)
    for obj in (p + q, p - q, -q, 4 * p, F(3, 7) * q):
        _same_as_public(obj)
    for obj in (m.mul_mat(HEX.gram), m.transpose(), m.inverse()):
        _same_as_public(obj)
    for surface in (HEX, skew):
        for char in (ThetaCharacteristic(0, 0), ThetaCharacteristic(1, 1)):
            for x in (Vec2(0, 0), Vec2(F(1, 2), 0), Vec2(F(-13, 3), F(22, 7))):
                for value in (
                    theta_eval(surface, char, x),
                    theta_eval_bruteforce(surface, char, x, 12),
                ):
                    _same_as_public(value)
                    _same_as_public(value.minimizer)
                _same_as_public(psi_eval(surface, x))
        _same_as_public(lagrange_reduce(surface))
        _same_as_public(lagrange_reduce(surface).u)
        _same_as_public(lagrange_reduce(surface).v)


def test_public_constructors_still_coerce_and_reject():
    assert Vec2(1, "1/2").as_tuple() == (F(1), F(1, 2))
    for build, args in ((Vec2, (True, 0)), (Vec3, (0.5, 0, 0)), (Mat2, (1.0, 0, 0, 1))):
        with pytest.raises(TypeError):
            build(*args)


def test_equality_stays_within_a_class():
    shift = Vec2(0, 0)
    assert EquivalentPlus(shift) != EquivalentMinus(shift)
    assert EquivalentPlus(shift) == EquivalentPlus(Vec2(0, 0))
    assert Vec2(1, 2) != (1, 2)
    assert Vec2(1, 2) == Vec2(F(1), "2")
    assert Distinct(ThetaCharacteristic(0, 1)) != ThetaCharacteristic(0, 1)
    assert len({Vec2(1, 2), Vec2(1, 2), Vec3(1, 2, 0)}) == 2


def test_surface_compares_and_shows_only_its_gram():
    rebuilt = PrincipallyPolarizedSurface(
        HEX.entries,
        HEX.int_gram,
        HEX.gram_den,
        HEX.descent[:2],
        HEX.char_vectors,
        HEX.conorms,
        HEX.candidates,
    )
    assert rebuilt.lazy == {} and rebuilt.lazy is not HEX.lazy
    assert rebuilt == HEX and hash(rebuilt) == hash((HEX.gram,))
    assert repr(rebuilt) == repr(HEX)
    keyword = PrincipallyPolarizedSurface(
        entries=HEX.entries,
        int_gram=HEX.int_gram,
        gram_den=HEX.gram_den,
        descent=HEX.descent,
        char_vectors=HEX.char_vectors,
        conorms=HEX.conorms,
        candidates=HEX.candidates,
    )
    assert keyword.lazy == {} and keyword.lazy is not rebuilt.lazy
    assert make_surface([[2, -1], [-1, 3]]) != HEX
    with pytest.raises(AttributeError):
        HEX.lazy = {}
    with pytest.raises(TypeError):
        PrincipallyPolarizedSurface(HEX.entries)


def test_series_keeps_identity_equality():
    char = ThetaCharacteristic(1, 1)
    a, b = build_series(HEX, char, 2), build_series(HEX, char, 2)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert repr(a) == f"FormalThetaSeries(surface={HEX!r}, char={char!r}, cutoff=2)"
    with pytest.raises(AttributeError):
        a.cutoff = 3
    assert a.constant_shift == b.constant_shift  # cached reads still work
    with pytest.raises(ValueError):
        build_series(HEX, char, -1)


def test_check_defaults():
    def fn(surface, rng):
        return None

    row = verify.Check("row", fn)
    assert (row.key, row.needs, row.setup) == (None, None, None)
    assert row.count(7) == 7
    keyed = verify.Check(name="row", fn=fn, key="k", count=abs)
    assert (keyed.key, keyed.count) == ("k", abs)
    assert row != keyed and row == verify.Check("row", fn, None)


def test_reports_stay_mutable_and_unhashable():
    result = verify.CheckResult("a", verify.PASS, 3)
    assert (result.counterexample, result.detail) == (None, None)
    assert (result.elapsed, result.traceback) == (0.0, None)
    assert result == verify.CheckResult(
        name="a", status=verify.PASS, cases=3, elapsed=0.0
    )
    result.status = verify.FAIL
    assert result.status == verify.FAIL
    assert repr(result) == (
        "CheckResult(name='a', status='fail', cases=3, counterexample=None, "
        "detail=None, elapsed=0.0, traceback=None)"
    )
    first = verify.VerificationReport(HEX.gram, 7, 3, "irreducible")
    second = verify.VerificationReport(
        gram=HEX.gram, seed=7, samples=3, surface_class="irreducible"
    )
    assert first.checks == [] and first.checks is not second.checks
    first.checks.append(result)
    assert second.checks == [] and first != second
    first.samples = 4
    assert first.samples == 4
    for obj in (result, first):
        with pytest.raises(TypeError):
            hash(obj)
    with pytest.raises(TypeError):
        verify.CheckResult("a", verify.PASS)
