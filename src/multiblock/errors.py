"""Exception types shared across the package."""


class CatalogError(Exception):
    """Base class for catalog parsing / consistency failures."""


class NotTotallyComplex(CatalogError):
    """A catalog field has a real root."""


class CatalogInconsistent(CatalogError):
    """Computed invariant contradicts the catalog entry."""


class PrecisionFailure(Exception):
    """A computed value lost the exactness or range it must keep: it did not
    round to an integer within tolerance, outgrew exact double arithmetic,
    or is not finite."""


class DegenerateLattice(Exception):
    """Numerically rank-deficient Gram matrix."""


class SingularChannel(Exception):
    """A fading block is singular where invertibility is required."""


class EmptyBall(Exception):
    """No nonzero lattice point inside the requested ball."""


class CarveFailed(Exception):
    """Shift search did not reach the target codebook size."""

    def __init__(self, message, best_count=0):
        super().__init__(message)
        self.best_count = best_count


class BudgetExceeded(Exception):
    """Enumeration node budget exhausted."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""
