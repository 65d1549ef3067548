"""Error taxonomy shared by all heatkern modules.

Every failure mode raised on purpose derives from HeatkernError so callers
(and the CLI) can distinguish our diagnostics from genuine bugs.  A malformed
array input (the wrong size, an entry that is not a number or not finite, or
a broken symmetry) is a ValidationError naming the argument: every matrix-valued
input is read by spectra._array and checked by spectra._require.
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

