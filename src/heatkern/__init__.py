"""heatkern: short-time heat-trace asymptotics for elliptic operators.

A numerical laboratory: jet-space recursion for the diagonal coefficients,
universal form-factor resummation of the quadratic trace, algebraic traces on
symmetric spaces, leading-symbol machinery beyond the Laplace type, oblique
and mixed boundary coefficients, and exact-spectrum oracles to check it all
against.
"""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    DomainError,
    EllipticityError,
    HeatkernError,
    NumericError,
    ResourceError,
    StructureError,
    ValidationError,
)

__all__ = [
    "ConditioningError",
    "DomainError",
    "EllipticityError",
    "HeatkernError",
    "NumericError",
    "ResourceError",
    "StructureError",
    "ValidationError",
]
