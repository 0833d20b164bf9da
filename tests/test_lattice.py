from fractions import Fraction

import pytest

from tropical_kummer import (
    CellKind,
    NonSymmetricError,
    NotPositiveDefiniteError,
    ProductTypeError,
    SurfaceClass,
    Vec2,
    classify,
    lagrange_reduce,
    make_surface,
    reduce_point,
    relevant_vectors,
    subdivide,
    voronoi_cell,
)
from tropical_kummer.sampling import (
    random_point,
    random_surface,
    random_unimodular,
    rng_for,
)

F = Fraction


def test_make_surface_examples(hexagonal, unit_square):
    assert hexagonal.n_basis.rows() == (
        (F(2, 3), F(1, 3)),
        (F(1, 3), F(2, 3)),
    )
    assert unit_square.n_basis.rows() == ((1, 0), (0, 1))


def test_make_surface_rejects_bad_input():
    with pytest.raises(NotPositiveDefiniteError):
        make_surface([[1, 2], [2, 1]])
    with pytest.raises(NonSymmetricError):
        make_surface([[1, 2], [3, 1]])


def test_dual_basis_pairing_is_kronecker(row_passes, hexagonal, skew_hexagonal):
    row_passes("dual-basis-integrality", hexagonal, skew_hexagonal, samples=1, seed=0)


def test_lagrange_reduce_examples(hexagonal, unit_square, hidden_product):
    rb = lagrange_reduce(hexagonal)
    assert (rb.u, rb.v) == (Vec2(1, 0), Vec2(0, 1))
    assert rb.norms == (2, 2, -1)

    rb = lagrange_reduce(unit_square)
    assert (rb.u, rb.v) == (Vec2(1, 0), Vec2(0, 1))
    assert rb.norms == (1, 1, 0)

    rb = lagrange_reduce(hidden_product)
    assert (rb.u, rb.v) == (Vec2(1, -2), Vec2(1, -1))
    assert rb.norms == (1, 1, 0)


def test_reduced_basis_brute_force_minimality(hidden_product):
    # Shortest nonzero norms over a box certify the reduction of [[5,3],[3,2]].
    s = hidden_product
    norms = sorted(
        s.norm(Vec2(a, b))
        for a in range(-10, 11)
        for b in range(-10, 11)
        if (a, b) != (0, 0)
    )
    rb = lagrange_reduce(s)
    assert rb.norms[0] == norms[0] == 1
    assert rb.norms[1] == norms[1] == 1
    assert rb.norms[2] == 0


def test_reduction_invariants_on_random_matrices():
    for k in range(30):
        s = random_surface(rng_for(11, "reduction", k))
        rb = lagrange_reduce(s)
        quu, qvv, quv = rb.norms
        assert rb.u.x * rb.v.y - rb.u.y * rb.v.x in (-1, 1)
        assert quu <= qvv
        assert quv <= 0
        assert 2 * abs(quv) <= quu


def test_classify_examples(hexagonal, unit_square, hidden_product):
    assert classify(hexagonal) is SurfaceClass.IRREDUCIBLE
    assert classify(unit_square) is SurfaceClass.PRODUCT_TYPE
    assert classify(hidden_product) is SurfaceClass.PRODUCT_TYPE


def test_classify_is_congruence_invariant():
    for k in range(25):
        rng = rng_for(5, "congruence", k)
        s = random_surface(rng)
        u = random_unimodular(rng)
        conj = make_surface(u.transpose().mul_mat(s.gram).mul_mat(u))
        assert classify(conj) is classify(s)


def test_voronoi_hexagon_vertices(hexagonal):
    cell = voronoi_cell(hexagonal)
    assert cell.kind is CellKind.HEXAGON
    expected = [
        (F(-1, 3), F(-2, 3)),
        (F(1, 3), F(-1, 3)),
        (F(2, 3), F(1, 3)),
        (F(1, 3), F(2, 3)),
        (F(-1, 3), F(1, 3)),
        (F(-2, 3), F(-1, 3)),
    ]
    assert [m.as_tuple() for m in cell.vertices] == expected
    # Adjacent vertices of the facet defined by -v sum to -v.
    assert cell.vertices[0] + cell.vertices[1] == Vec2(0, -1)


def test_voronoi_rectangle(unit_square):
    cell = voronoi_cell(unit_square)
    assert cell.kind is CellKind.RECTANGLE
    corners = {m.as_tuple() for m in cell.vertices}
    assert corners == {
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(-1, 2), F(-1, 2)),
    }


def test_voronoi_relevant_norms(skew_hexagonal):
    rel = relevant_vectors(skew_hexagonal)
    assert [skew_hexagonal.norm(r) for r in rel[:3]] == [2, 3, 3]


def test_voronoi_geometry_on_seeded_matrices(row_passes, hexagonal):
    # The hexagon and 20 random surfaces.
    row_passes("voronoi-geometry", hexagonal, samples=200, seed=23)


def test_reduce_point_examples(hexagonal):
    x0, p = reduce_point(hexagonal, Vec2(F(3, 2), 0))
    assert (x0, p) == (Vec2(F(1, 2), 0), Vec2(1, 0))

    x0, p = reduce_point(hexagonal, Vec2(0, 0))
    assert (x0, p) == (Vec2(0, 0), Vec2(0, 0))

    tiny = Vec2(F(1, 10), F(1, 10))
    x0, p = reduce_point(hexagonal, tiny)
    assert (x0, p) == (tiny, Vec2(0, 0))
    assert all(
        hexagonal.norm(tiny - r) > hexagonal.norm(tiny)
        for r in relevant_vectors(hexagonal)
    )


def test_reduce_point_idempotent(row_passes, hexagonal, hidden_product):
    # x = x0 + p with p integral, then reducing x0 again moves nothing.
    for name in ("cvp-descent-oracle", "reduce-idempotence"):
        row_passes(name, hexagonal, hidden_product, samples=50, seed=2)


def _cvp_oracle(s, x):
    """Independent exact closest-vector oracle: certified box enumeration.

    Deliberately avoids the library's reduction and integer-lift helpers;
    the only shared ingredient is the Gram matrix itself.
    """
    import math

    g = s.gram
    lam_low = g.det() / (g.a + g.d)
    bound = s.norm(x)  # the lattice point 0 is within this distance
    radius = 1
    while True:
        margin = radius + 1 - x.sup_norm()
        if margin > 0 and lam_low * margin * margin > bound:
            break
        radius += 1
    den_g = math.lcm(g.a.denominator, g.b.denominator, g.d.denominator)
    h11, h12, h22 = int(g.a * den_g), int(g.b * den_g), int(g.d * den_g)
    den_x = math.lcm(x.x.denominator, x.y.denominator)
    tx, ty = int(x.x * den_x), int(x.y * den_x)
    best = None
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            y0, y1 = tx - den_x * a, ty - den_x * b
            q = h11 * y0 * y0 + 2 * h12 * y0 * y1 + h22 * y1 * y1
            if best is None or q < best:
                best = q
    return F(best, den_g * den_x * den_x)


def test_reduce_point_matches_brute_force_cvp(hexagonal):
    for k in range(1000):
        x = random_point(rng_for(31, "cvp", k), 5)
        x0, _ = reduce_point(hexagonal, x)
        assert hexagonal.norm(x0) == _cvp_oracle(hexagonal, x)


def test_reduce_point_matches_cvp_on_random_surfaces():
    for k in range(8):
        rng = rng_for(37, "cvp-surface", k)
        s = random_surface(rng)
        for j in range(12):
            x = random_point(rng_for(37, "cvp-point", k, j), 5)
            x0, _ = reduce_point(s, x)
            assert s.norm(x0) == _cvp_oracle(s, x)


def test_subdivide_sigma_cell(hexagonal):
    (sigma,) = [c for c in subdivide(hexagonal).cells if c.label == "sigma1"]
    assert set(p.as_tuple() for p in sigma.vertices) == {
        (F(0), F(0)),
        (F(-1, 6), F(-1, 3)),  # midpoint of the m2--m6 chord
        (F(-1, 2), F(-1, 2)),  # half of w
    }


def test_subdivide_area_adds_to_covolume(hexagonal, skew_hexagonal):
    for s in (hexagonal, skew_hexagonal):
        cells = subdivide(s).cells
        assert len(cells) == 18
        assert sum(c.area() for c in cells) == 1


def test_subdivide_rejects_product_type(unit_square):
    with pytest.raises(ProductTypeError):
        subdivide(unit_square)


def test_subdivision_cells_stay_in_cell(row_passes, hexagonal, skew_hexagonal):
    row_passes("subdivision-geometry", hexagonal, skew_hexagonal, samples=1, seed=0)


def test_first_quadrilateral_translates_into_cell(
    row_passes, hexagonal, skew_hexagonal
):
    # Shifting the first quadrilateral by v/2 or by -w/2 stays inside.
    row_passes("subdivision-geometry", hexagonal, skew_hexagonal, samples=1, seed=0)


def test_subdivision_quadrant_labels(hexagonal):
    cells = subdivide(hexagonal).cells
    labels = sorted(c.label for c in cells)
    expected = sorted(
        f"{kind}{q}" for kind in ("sigma", "tau", "rho") for q in range(1, 7)
    )
    assert labels == expected
    # Antipodal quadrants carry antipodal cells.
    by_label = {c.label: c for c in cells}
    for kind in ("sigma", "tau", "rho"):
        for q in (1, 2, 3):
            a, b = by_label[f"{kind}{q}"], by_label[f"{kind}{q + 3}"]
            assert tuple(-p for p in a.vertices) == b.vertices
