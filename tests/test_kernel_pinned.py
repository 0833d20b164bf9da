"""Pinned outputs of the closest-vector kernel and an independent oracle.

The digest below was recorded from the `Fraction`-based descent that
preceded the integer kernel; every later kernel must reproduce it byte for
byte, including the minimizer chosen on cell boundaries, where the descent
has ties to break.
"""

import hashlib
from fractions import Fraction

from tropical_kummer import (
    CHARACTERISTICS,
    Mat2,
    ProductTypeError,
    RadiusTooSmallError,
    Vec2,
    injectivity_check,
    make_surface,
    psi_eval,
    reduce_point,
    relevant_vectors,
    theta_eval,
    theta_eval_bruteforce,
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
