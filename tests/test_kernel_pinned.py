"""Pinned outputs of the closest-vector kernel and an independent oracle.

The digest below was recorded from the `Fraction`-based descent that
preceded the integer kernel; every later kernel must reproduce it byte for
byte, including the minimizer chosen on cell boundaries, where the descent
has ties to break.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest

from tropical_kummer import (
    CHARACTERISTICS,
    Mat2,
    ProductTypeError,
    RadiusTooSmallError,
    Vec2,
    build_series,
    injectivity_check,
    make_surface,
    psi_eval,
    reduce_point,
    relevant_vectors,
    theta_eval,
    theta_eval_bruteforce,
    tropicalize_series,
    verify,
    voronoi_cell,
)
from tropical_kummer.sampling import random_integer_vector, rng_for
from tropical_kummer.theta import certified_radius, char_vector, spectral_floor

F = Fraction


def _sheared(rows, p):
    """U^T G U for the shear U = [[1, p], [0, 1]]."""
    g = Mat2.from_rows(rows)
    u = Mat2(1, p, 0, 1)
    return u.transpose().mul_mat(g).mul_mat(u)


GRAMS = (
    ((2, -1), (-1, 2)),
    ((5, 3), (3, 2)),
    ((F(1, 2), F(-1, 5)), (F(-1, 5), F(3, 7))),
    _sheared(((2, -1), (-1, 3)), 3),
    _sheared(((F(1, 2), F(-1, 5)), (F(-1, 5), F(3, 7))), -2),
)


def _point(rng, bound):
    coords = []
    for _ in range(2):
        den = rng.randint(1, 12)
        coords.append(F(rng.randint(-bound * den, bound * den), den))
    return Vec2(*coords)


def _boundary_points(surface):
    """Voronoi vertices and facet midpoints, as given and shifted by a period."""
    half = F(1, 2)
    base = list(voronoi_cell(surface).vertices)
    base += [half * r for r in relevant_vectors(surface)]
    shifts = (Vec2(0, 0), Vec2(1, 0), Vec2(-2, 3), Vec2(7, -5))
    return [p + t for p in base for t in shifts]


def _sample_points(gram_index, count=40, bound=50):
    rng = rng_for(20, "kernel-pinned", gram_index)
    return [_point(rng, bound) for _ in range(count)]


def _kernel_lines(surface, points, pairs):
    for x in points:
        x0, p = reduce_point(surface, x)
        yield f"reduce {x.x} {x.y} -> {x0.x} {x0.y} {p.x} {p.y}"
        for char in CHARACTERISTICS:
            tv = theta_eval(surface, char, x)
            m = tv.minimizer
            yield f"theta {char} {x.x} {x.y} -> {tv.value} {m.x} {m.y}"
        image = psi_eval(surface, x)
        yield f"psi {x.x} {x.y} -> {image.x} {image.y} {image.z}"
    for y, yp in pairs:
        try:
            verdict = injectivity_check(surface, y, yp)
        except ProductTypeError:
            yield f"inj {y.x} {y.y} {yp.x} {yp.y} -> ProductTypeError"
            continue
        shift = getattr(verdict, "shift", None)
        tail = f"{shift.x} {shift.y}" if shift is not None else str(verdict.witness)
        yield f"inj {y.x} {y.y} {yp.x} {yp.y} -> {type(verdict).__name__} {tail}"


def _pairs(gram_index, count=30, bound=50):
    rng = rng_for(20, "kernel-pinned-pairs", gram_index)
    pairs = []
    for _ in range(count):
        y = _point(rng, bound)
        mode = rng.randrange(3)
        if mode == 0:
            yp = y + random_integer_vector(rng, 9)
        elif mode == 1:
            yp = -y + random_integer_vector(rng, 9)
        else:
            yp = _point(rng, bound)
        pairs.append((y, yp))
    return pairs


KERNEL_SHA256 = (
    "a3eec881c55a04bc76892783639b3b56d10408562483b666f77f6ae5fbfffac3"
)


def test_kernel_outputs_pinned():
    h = hashlib.sha256()
    for i, gram in enumerate(GRAMS):
        surface = make_surface(gram)
        points = _sample_points(i) + _boundary_points(surface)
        for line in _kernel_lines(surface, points, _pairs(i)):
            h.update(line.encode() + b"\n")
    assert h.hexdigest() == KERNEL_SHA256


def _certified_theta(surface, char, x):
    """The certified box minimum, grown until its certificate holds."""
    radius = 1
    while True:
        try:
            return theta_eval_bruteforce(surface, char, x, radius)
        except RadiusTooSmallError:
            radius += 2


def _first_minimum(table, radius):
    """(value, minimizer): the box minimum of `table`, first in lexicographic order."""
    best = None
    for a1 in range(-radius, radius + 1):
        for a2 in range(-radius, radius + 1):
            if best is None or table[a1, a2] < best[0]:
                best = (table[a1, a2], (a1, a2))
    return best


def test_box_walk_matches_double_loop():
    """Both callers of the row walk against a double loop, ties included.

    On the grids (1/q)Z^2 many shifts s = x + c/2 are equidistant from
    several lattice points, so the box minimum is attained more than once
    and the walk must return the first minimizer in lexicographic order.
    """
    for i, gram in enumerate(GRAMS):
        surface = make_surface(gram)
        lam_low = spectral_floor(surface)
        rng = rng_for(20, "box-walk", i)
        points = [
            Vec2(F(rng.randint(-2 * q, 2 * q), q), F(rng.randint(-2 * q, 2 * q), q))
            for q in (1, 2, 3, 4, 6)
            for _ in range(3)
        ]
        box = list(itertools.product(range(-9, 10), repeat=2))
        quad = {a: surface.norm(Vec2(*a)) for a in box}
        for x, char in itertools.product(points, CHARACTERISTICS):
            s = x + F(1, 2) * char_vector(surface, char)
            # Q(a + s) - Q(x) = Q(a) + 2 Q(a, s) + Q(s) - Q(x), over one
            # denominator `den` for every a in the largest box.
            lin = (2 * surface.q(Vec2(1, 0), s), 2 * surface.q(Vec2(0, 1), s))
            const = surface.norm(s) - surface.norm(x)
            parts = [*quad.values(), *lin, const]
            den = math.lcm(*(q.denominator for q in parts))
            lin0, lin1, c = (int(q * den) for q in (*lin, const))
            table = {
                a: int(quad[a] * den) + a[0] * lin0 + a[1] * lin1 + c for a in box
            }
            for radius in range(10):
                value, minimizer = _first_minimum(table, radius)
                value = F(value, den)
                margin = radius + 1 - s.sup_norm()
                box_min = value + surface.norm(x)
                certified = margin > 0 and lam_low * margin * margin > box_min
                try:
                    tv = theta_eval_bruteforce(surface, char, x, radius)
                    got = (True, tv.value, (tv.minimizer.x, tv.minimizer.y))
                except RadiusTooSmallError:
                    got = (False,)
                want = (True, value, minimizer) if certified else (False,)
                assert got == want, (gram, x, char, radius)
                series = build_series(surface, char, radius)
                assert tropicalize_series(series, x) == value, (gram, x, char, radius)


def test_theta_matches_bruteforce_on_rational_grams():
    for i, gram in enumerate(GRAMS):
        surface = make_surface(gram)
        points = _sample_points(i, count=25, bound=3) + _boundary_points(surface)[::4]
        for x in points:
            for char in CHARACTERISTICS:
                fast = theta_eval(surface, char, x)
                slow = _certified_theta(surface, char, x)
                assert fast.value == slow.value, (gram, x, char)
                # The descent's minimizer attains the certified minimum.
                s = x + F(1, 2) * char_vector(surface, char)
                attained = surface.norm(fast.minimizer + s) - surface.norm(x)
                assert attained == slow.value, (gram, x, char)


ORACLE_GRAMS = (
    ((2, -1), (-1, 2)),
    ((2, -1), (-1, 3)),
    ((F(1, 2), F(-1, 5)), (F(-1, 5), F(3, 7))),
    ((1, 0), (0, 10**4)),
)


def test_verify_oracle_enumerates_one_box(monkeypatch):
    radii = []

    def recorded(surface, char, x, radius):
        radii.append(radius)
        return theta_eval_bruteforce(surface, char, x, radius)

    monkeypatch.setattr(verify, "theta_eval_bruteforce", recorded)
    for i, gram in enumerate(ORACLE_GRAMS):
        surface = make_surface(gram)
        # (1/3, 2/7) took 15 growing boxes on diag(1, 10^4) under char 00.
        points = [Vec2(0, 0), Vec2(F(1, 3), F(2, 7))] + _sample_points(
            i, count=8, bound=3
        )
        for x in points:
            for char in CHARACTERISTICS:
                radii.clear()
                value = verify._oracle_theta(surface, char, x)
                assert len(radii) == 1, (gram, x, char, radii)
                assert value == _certified_theta(surface, char, x).value


ILL_CONDITIONED_GRAMS = (
    ((1, 0), (0, 10**6)),
    ((10**6, 0), (0, 1)),
    ((10**6, -999999), (-999999, 10**6)),
)


@pytest.mark.parametrize("row", ["cvp-descent-oracle", "theta-bruteforce-oracle"])
def test_oracle_rows_bounded_on_ill_conditioned_grams(row):
    # Each took 0.8-14 s with a box enumerated term by term; now 8-40 ms.
    (check,) = [c for c in verify.CHECKS if c.name == row]
    for gram in ILL_CONDITIONED_GRAMS:
        result = verify.run_check(check, make_surface(gram), 7, 50)
        assert result.status == verify.PASS, (gram, result)
        assert result.elapsed < 1.0, (gram, result.elapsed)


def _radius_by_steps(surface, reach, ceiling):
    lam_low = spectral_floor(surface)
    radius = 1
    while True:
        margin = radius + 1 - reach
        if margin > 0 and lam_low * margin * margin > ceiling:
            return radius
        radius += 1


def test_certified_radius_matches_stepping():
    reaches = [F(0), F(1, 3), F(1, 2), F(5, 7), F(1), F(7, 2), F(99, 10), F(40, 3)]
    for gram in ORACLE_GRAMS:
        surface = make_surface(gram)
        lam_low = spectral_floor(surface)
        for reach in reaches:
            ceilings = [F(0), F(1, 7), F(3, 2), F(100, 3), F(10**4 + 1, 9)]
            # Ceilings met with equality at some radius, where it must step.
            ceilings += [lam_low * (r + 1 - reach) ** 2 for r in range(1, 20)]
            for ceiling in ceilings:
                want = _radius_by_steps(surface, reach, ceiling)
                got = certified_radius(surface, reach, ceiling)
                assert got == want, (gram, reach, ceiling)
