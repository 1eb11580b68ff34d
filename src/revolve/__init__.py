"""Rotational surfaces from curvature functions of the distance to the axis.

The package turns a prescribed curvature (parallel, meridian, mean, or
Gauss) into the momentum K(x) — the z-component of the generating curve's
unit tangent as a function of x — reconstructs the curve by quadrature over
its monotone branches, revolves it into meshes, and cross-checks everything
against a catalog of closed-form families.
"""
from .curvature import (CurvatureSample, MeanInverseBranch,
                        classify_mean_inverse, constraint_residual,
                        gauss_curvature, gauss_from_mean, gauss_monomial,
                        mean_curvature, principal_curvatures,
                        weingarten_residual)
from .errors import (AxisSingularity, DegeneratePolyline, DegenerateProfile,
                     DomainViolation, EvaluationDomainError,
                     EventLocatorFailure, ExponentForbidden,
                     ExpressionSyntaxError, NegativeRadicand, NonManifold,
                     NonIntegrableSingularity, NonPositiveMu, NumericalError,
                     ParamOutOfRange, QuadratureFailure, RevolveError,
                     RootBracketFailure, SingularAxis, UnknownIdentifier,
                     ValidationError)
from .expr import Expression, parse_expr
from .momentum import (Momentum, admissible_intervals,
                       momentum_from_gauss, momentum_from_km,
                       momentum_from_kp, momentum_from_mean)
from .reconstruct import (Profile, arclength, discrete_curvatures,
                          graph_height, height_displacement,
                          integrate_profile, momentum_of_profile,
                          profile_to_csv)
from .mesh import (SurfaceMesh, discrete_mesh_curvature, fundamental_forms,
                   revolve, write_obj, write_stl)
from . import catalog

__all__ = [
    "Momentum", "momentum_from_kp", "momentum_from_km",
    "momentum_from_mean", "momentum_from_gauss", "admissible_intervals",
    "CurvatureSample", "MeanInverseBranch",
    "principal_curvatures", "mean_curvature", "gauss_curvature",
    "gauss_from_mean", "gauss_monomial", "constraint_residual",
    "weingarten_residual", "classify_mean_inverse",
    "Profile", "arclength", "graph_height", "height_displacement",
    "integrate_profile", "momentum_of_profile", "discrete_curvatures",
    "profile_to_csv",
    "SurfaceMesh", "revolve", "fundamental_forms", "discrete_mesh_curvature",
    "write_obj", "write_stl",
    "Expression", "parse_expr",
    "catalog",
    "RevolveError", "ValidationError", "NumericalError",
    "DomainViolation", "SingularAxis", "NegativeRadicand", "AxisSingularity",
    "ExponentForbidden", "NonPositiveMu", "ParamOutOfRange",
    "DegeneratePolyline", "DegenerateProfile", "NonManifold",
    "ExpressionSyntaxError", "UnknownIdentifier", "EvaluationDomainError",
    "QuadratureFailure", "NonIntegrableSingularity", "EventLocatorFailure",
    "RootBracketFailure",
]

__version__ = "0.1.0"
