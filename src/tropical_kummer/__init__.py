"""Exact toolkit for tropical abelian surfaces and tropical Kummer quartics.

Everything is computed in rational arithmetic: the Lagrange-reduced basis
and Voronoi cell of a polarized surface, the four tropical theta functions
of second order, the theta embedding into tropical P^3 with its
parallelepiped image, and tropicalized truncated theta series.
"""

from types import ModuleType as _ModuleType

from .errors import (
    InternalInconsistencyError,
    NonSymmetricError,
    NotAffineOnCellError,
    NotPositiveDefiniteError,
    ProductTypeError,
    RadiusTooSmallError,
)
from .exact import (
    Mat2,
    Vec2,
    Vec3,
    fraction_decimal,
    is_unimodular,
    to_fraction,
)
from .kummer import (
    AffinePiece,
    Distinct,
    EquivalentMinus,
    EquivalentPlus,
    FacePlane,
    KummerQuartic,
    VERTEX_LABELS,
    affine_pieces,
    build_quartic,
    coplanarity_report,
    g_action,
    injectivity_check,
    psi_eval,
    two_torsion_images,
    vertex_sign_diagnostics,
)
from .lattice import (
    Cell,
    CellKind,
    PrincipallyPolarizedSurface,
    ReducedBasis,
    SurfaceClass,
    VoronoiCell,
    classify,
    in_voronoi_cell,
    lagrange_reduce,
    make_surface,
    reduce_point,
    subdivide,
    voronoi_cell,
)
from .nonarch import (
    FormalThetaSeries,
    TropicalDescentDatum,
    build_series,
    descent_datum,
    safe_cutoff,
    tropicalize_series,
)
from .theta import (
    CHARACTERISTICS,
    ThetaCharacteristic,
    ThetaValue,
    theta_constants,
    theta_eval,
)

# The public names are the ones imported above, stated there once; the
# submodules that those imports bind on the package are not among them.
__all__ = sorted(
    name
    for name, value in dict(globals()).items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
