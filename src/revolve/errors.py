"""Exception taxonomy shared by all revolve modules.

Two families matter to callers: ValidationError means the inputs or the
prescription itself are unusable (CLI exit code 2), NumericalError means a
numerical procedure failed to meet its tolerance or ran into a singular
configuration (CLI exit code 3).
"""
from __future__ import annotations


class RevolveError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RevolveError):
    """Bad input: wrong parameter ranges, infeasible prescriptions, malformed data."""


class NumericalError(RevolveError):
    """A numerical routine could not deliver its contract."""


# --- validation ---------------------------------------------------------

class DomainViolation(ValidationError):
    """A prescribed quantity leaves its admissible range on the declared domain."""


class SingularAxis(ValidationError):
    """The construction is singular at x = 0 for the given constants."""


class NegativeRadicand(ValidationError):
    """A square-root construction has a negative radicand somewhere on the domain.

    ``interval`` reports one offending open sub-interval (lo, hi).
    """

    def __init__(self, message: str, interval: tuple[float, float] | None = None):
        super().__init__(message)
        self.interval = interval


class AxisSingularity(ValidationError):
    """A curvature along a parallel is requested at x = 0 where it has no finite limit."""


class ExponentForbidden(ValidationError):
    """The exponent n = -2 is excluded from the monomial family."""


class ParamOutOfRange(ValidationError):
    """A catalog or CLI parameter lies outside its documented range."""


class NonPositiveMu(ParamOutOfRange):
    """The inverse-linear coefficient mu must be positive."""


class DegeneratePolyline(ValidationError):
    """A polyline has repeated consecutive points and no usable tangents."""


class DegenerateProfile(ValidationError):
    """A profile is too short or malformed to revolve into a mesh."""


class NonManifold(ValidationError):
    """A triangle mesh has an edge shared by more than two faces."""


class ExpressionSyntaxError(ValidationError):
    """Malformed expression text. ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ValidationError):
    """An expression references a name that is neither x, a known function, nor a parameter."""

    def __init__(self, name: str, offset: int = -1):
        msg = f"unknown identifier {name!r}"
        if offset >= 0:
            msg += f" (at offset {offset})"
        super().__init__(msg)
        self.name = name
        self.offset = offset


class EvaluationDomainError(ValidationError):
    """An expression was evaluated where it is undefined (log of a negative, 1/0, ...)."""


# --- numerical ----------------------------------------------------------

class QuadratureFailure(NumericalError):
    """An adaptive quadrature did not reach the requested tolerance."""


class NonIntegrableSingularity(QuadratureFailure):
    """An integrand grows faster than an inverse square root at an endpoint."""


class EventLocatorFailure(NumericalError):
    """A turning point of a traced profile is degenerate (1 - K^2 has no simple
    zero there): the branch length diverges and continuation is undefined."""


class RootBracketFailure(NumericalError):
    """A bracketed root search failed to find a sign change."""
