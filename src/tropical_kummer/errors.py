"""Exception types shared across the package."""


class InputError(ValueError):
    """Bad input to a computation; the CLI exits 2 on it."""


class NonSymmetricError(InputError):
    """A matrix that must be symmetric is not."""


class NotPositiveDefiniteError(InputError):
    """A Gram matrix fails the positive-definiteness test."""


class ProductTypeError(InputError):
    """Operation needs an irreducible surface; the Voronoi cell is a rectangle."""


class RadiusTooSmallError(InputError):
    """A brute-force box is too small to certify a global minimum."""


class NotAffineOnCellError(RuntimeError):
    """The embedding failed an affineness cross-check on a subdivision cell."""


class InternalInconsistencyError(RuntimeError):
    """Two independent computations of the same fact disagree."""
