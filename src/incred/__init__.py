"""Reduced differential inclusions toolkit.

Library plus CLI for pruning infeasible directions from box-valued
differential inclusions with locally Lipschitz regular functions,
evaluating set-valued derivatives in closed form, certifying decrease /
invariance / Matrosov conditions on grids, and integrating
selection-based trajectories. ``import incred`` imports no submodule:
each exported name imports its own on first access (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "certify": "Certificate InvarianceReport build_matrosov_problem "
               "certify_lyapunov certify_semidefinite invariance_data "
               "matrosov_chain matrosov_constants matrosov_derivative_bounds "
               "matrosov_grid verify_combined_bound",
    "derivative": "baseline_interval_derivative bilinear_maxmax "
                  "bilinear_minmax generalized_derivative",
    "errors": "DimensionMismatchError DslEvalError DslSyntaxError "
              "EmptySetError IncredError SchemaError SimulationError",
    "fixtures": "available_fixtures fixture_path load_fixture",
    "grids": "GridSpec",
    "intervals": "Annulus Interval IntervalBox contains",
    "reduction": "reduce_collection",
    "setmaps": "CheckSpec GradientValidationReport MatrosovData Piece "
               "PiecewiseBoxMap RegularFunctionSpec SimSpec SystemDef "
               "eval_gradient eval_map load_system system_from_dict "
               "validate_gradient",
    "simulate": "SelectionStrategy Trajectory check_lyapunov_descent "
                "check_partial_convergence check_reduction_membership "
                "integrate",
}.items() for name in names.split()}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    # not cached here, so a patch of the submodule's binding shows at once
    if name in _EXPORTS:
        return getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
