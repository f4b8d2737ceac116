"""Reduced differential inclusions toolkit.

Library plus CLI for pruning infeasible directions from box-valued
differential inclusions with locally Lipschitz regular functions,
evaluating set-valued derivatives in closed form, certifying decrease /
invariance / Matrosov conditions on grids, and integrating
selection-based trajectories.
"""

from .certify import (Certificate, InvarianceReport, build_matrosov_problem,
                      certify_lyapunov, certify_semidefinite, invariance_data,
                      matrosov_chain, matrosov_constants,
                      matrosov_derivative_bounds, matrosov_grid,
                      verify_combined_bound)
from .derivative import (DerivativeValue, baseline_interval_derivative,
                         baseline_max_derivative, bilinear_maxmax,
                         bilinear_minmax, generalized_derivative)
from .errors import (DimensionMismatchError, DslEvalError, DslSyntaxError,
                     EmptySetError, IncredError, SchemaError, SimulationError)
from .fixtures import available_fixtures, fixture_path, load_fixture
from .grids import GridSpec
from .intervals import (Annulus, Interval, IntervalBox, contains,
                        direction_axes)
from .reduction import (ReducedValue, ReductionTable, reduce_collection,
                        reduce_once, tabulate_reduction)
from .setmaps import (CheckSpec, GradientValidationReport, MatrosovData,
                      Piece, PiecewiseBoxMap, RegularFunctionSpec, SimSpec,
                      SystemDef, eval_gradient, eval_map, load_system,
                      system_from_dict, validate_gradient)
from .simulate import (SelectionStrategy, Trajectory, check_lyapunov_descent,
                       check_partial_convergence, check_reduction_membership,
                       integrate)

__version__ = "0.1.0"
