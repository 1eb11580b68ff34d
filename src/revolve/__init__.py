"""Rotational surfaces from curvature functions of the distance to the axis.

The package turns a prescribed curvature (parallel, meridian, mean, or
Gauss) into the momentum K(x) — the z-component of the generating curve's
unit tangent as a function of x — reconstructs the curve by quadrature over
its monotone branches, revolves it into meshes, and cross-checks everything
against a catalog of closed-form families.

Importing the package loads none of its modules: each name of ``__all__`` is
imported from its module on first use (PEP 562 ``__getattr__``), so a
process loads only the layers it touches.
"""
from importlib import import_module as _import_module

_EXPORTS = {  # module -> the names it exports here; "catalog" is the module itself
    "momentum": ("Momentum", "momentum_from_kp", "momentum_from_km",
                 "momentum_from_mean", "momentum_from_gauss", "admissible_intervals"),
    "curvature": ("CurvatureSample", "MeanInverseBranch", "principal_curvatures",
                  "mean_curvature", "gauss_curvature", "gauss_from_mean",
                  "gauss_monomial", "constraint_residual", "weingarten_residual",
                  "classify_mean_inverse"),
    "reconstruct": ("Profile", "arclength", "graph_height", "height_displacement",
                    "integrate_profile", "momentum_of_profile", "discrete_curvatures",
                    "profile_to_csv"),
    "mesh": ("SurfaceMesh", "revolve", "fundamental_forms", "discrete_mesh_curvature",
             "write_obj", "write_stl"),
    "expr": ("Expression", "parse_expr"),
    "catalog": ("catalog",),
    "errors": ("RevolveError", "ValidationError", "NumericalError",
               "DomainViolation", "SingularAxis", "NegativeRadicand",
               "AxisSingularity", "ExponentForbidden", "NonPositiveMu",
               "ParamOutOfRange", "DegeneratePolyline", "DegenerateProfile",
               "NonManifold", "ExpressionSyntaxError", "UnknownIdentifier",
               "EvaluationDomainError", "QuadratureFailure",
               "NonIntegrableSingularity", "EventLocatorFailure",
               "RootBracketFailure"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
