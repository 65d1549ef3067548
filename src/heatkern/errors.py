"""Error taxonomy shared by all heatkern modules.

Every failure mode raised on purpose derives from HeatkernError so callers
(and the CLI) can distinguish our diagnostics from genuine bugs.  A malformed
input is a ValidationError naming the argument: a matrix (the wrong size, an
entry that is not a number or not finite, a broken symmetry) through
spectra._array and spectra._require, a real scalar (not a number, not finite,
out of its range) through spectra._number.
"""


class HeatkernError(Exception):
    """Base class for all intentional heatkern failures."""


class ValidationError(HeatkernError):
    """Malformed input: wrong shape, broken symmetry, missing field."""


class DomainError(HeatkernError):
    """Input is well formed but outside the mathematical domain
    (divergent integral, pole crossing, singular closed form)."""


class EllipticityError(DomainError):
    """A leading symbol or boundary operator fails positivity."""


class ConditioningError(DomainError):
    """Input is formally admissible but too close to degeneracy for the
    requested accuracy to be honest."""


class StructureError(HeatkernError):
    """Data lacks an assumed algebraic structure (direction-dependent
    spectrum, non-commuting family, broken Jacobi identity)."""


class NumericError(HeatkernError):
    """A numerical routine failed to reach its accuracy target."""


class ResourceError(HeatkernError):
    """Honest evaluation would exceed the configured size budget."""

