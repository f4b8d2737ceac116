import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import incred.expr as ex
import incred.reduction as red
from incred.cli import main
from incred.errors import (DimensionMismatchError, DslEvalError,
                           EmptySetError, SchemaError, SimulationError)
from incred.fixtures import fixture_path, load_fixture
from incred.intervals import IntervalBox, contains
from incred.setmaps import (Piece, PiecewiseBoxMap, RegularFunctionSpec,
                            SystemDef, eval_gradient, eval_map,
                            system_from_dict)
from incred.simulate import (SelectionStrategy, Trajectory,
                             check_lyapunov_descent,
                             check_partial_convergence,
                             check_reduction_membership, integrate,
                             trajectory_csv)

from test_scan import COORDS, _outcome, _piecewise, _scalar


def test_strategy_kinds_validated():
    with pytest.raises(SchemaError):
        SelectionStrategy("leapfrog")


class TestIntegratePreconditions:
    def test_bad_step(self, example2):
        with pytest.raises(SchemaError):
            integrate(example2, (0.5, 0.5), 0.0, -1e-3, 1.0,
                      SelectionStrategy())

    def test_bad_horizon(self, example2):
        with pytest.raises(SchemaError):
            integrate(example2, (0.5, 0.5), 1.0, 1e-3, 0.5,
                      SelectionStrategy())

    def test_outside_domain(self, example2):
        with pytest.raises(SimulationError):
            integrate(example2, (5.0, 0.0), 0.0, 1e-3, 1.0,
                      SelectionStrategy())

    @pytest.mark.parametrize("t0, h, horizon, message", [
        (0.0, math.nan, 1.0, "step size h must be positive"),
        (math.nan, 1e-3, 1.0, "start time t0 must be finite, got nan"),
        (0.0, 1e-3, math.nan, "horizon T must be finite, got nan"),
        (-math.inf, 1e-3, 1.0, "start time t0 must be finite, got -inf"),
        (0.0, 1e-3, math.inf, "horizon T must be finite, got inf"),
    ])
    def test_nonfinite_argument_is_named(self, example2, t0, h, horizon,
                                         message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            integrate(example2, (0.5, 0.5), t0, h, horizon,
                      SelectionStrategy())

    @pytest.mark.parametrize("flag, message", [
        ("--h=nan", "step size h must be positive"),
        ("--T=nan", "horizon T must be finite, got nan"),
        ("--t0=nan", "start time t0 must be finite, got nan")])
    def test_nan_argument_exits_three(self, tmp_path, capsys, flag, message):
        code = main(["simulate", "-i", str(fixture_path("example3")), flag,
                     "-o", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestIntegrate:
    def test_zero_field_keeps_the_state(self, trivial_zero):
        traj = integrate(trivial_zero, (0.3, -0.2), 0.0, 1e-2, 1.0,
                         SelectionStrategy())
        assert traj.final_x == (0.3, -0.2)
        assert all(s.x == (0.3, -0.2) for s in traj.steps)
        assert not traj.exited

    def test_decay_oracle(self, example2):
        # inside the unit square the field is linear with normal matrix
        # [[-1, 1], [-1, -1]]; the exact flow has |x(t)| = e^-t |x0|
        exact = math.exp(-5.0) * math.sqrt(0.5)
        traj = integrate(example2, (0.5, 0.5), 0.0, 1e-3, 5.0,
                         SelectionStrategy("midpoint"))
        assert traj.final_norm == pytest.approx(exact, abs=5e-4)

    def test_reduced_descent_first_step_on_the_edge(self, example3):
        traj = integrate(example3, (1.0, 0.0), 0.0, 1e-3, 0.1,
                         SelectionStrategy("reduced-descent"))
        q = traj.steps[0].q
        assert q[0] == 0.0
        assert -1.5 <= q[1] <= -0.5

    def test_selection_always_lies_in_the_inclusion(self, example2, example3):
        for system, strategy in [
                (example2, SelectionStrategy("midpoint")),
                (example2, SelectionStrategy("random-extreme", seed=4)),
                (example3, SelectionStrategy("reduced-descent"))]:
            traj = integrate(system, (0.9, 0.4), 0.0, 1e-2, 2.0, strategy)
            for step in traj.steps:
                fbox = eval_map(system.inclusion, step.x, step.t)
                assert contains(fbox, step.q)

    def test_random_extreme_is_seed_reproducible(self, example2):
        a = integrate(example2, (0.5, 0.5), 0.0, 1e-2, 2.0,
                      SelectionStrategy("random-extreme", seed=11))
        b = integrate(example2, (0.5, 0.5), 0.0, 1e-2, 2.0,
                      SelectionStrategy("random-extreme", seed=11))
        assert a.steps == b.steps and a.final_x == b.final_x

    def test_strategies_agree_on_single_valued_stretch(self, example2):
        # from (0.5, 0.5) the trajectory never touches a guard, so the
        # inclusion is single-valued along it and the strategy is moot
        finals = []
        for kind in ("midpoint", "reduced-descent", "random-extreme"):
            traj = integrate(example2, (0.5, 0.5), 0.0, 1e-3, 5.0,
                             SelectionStrategy(kind, seed=3))
            finals.append(traj.final_norm)
        assert max(finals) - min(finals) <= 2e-3

    def test_first_exit_stops_early(self):
        system = system_from_dict({
            "n": 1,
            "F": {"pieces": [{"guard": "otherwise", "value": ["{1}"]}]},
            "V": {"value": "x1*x1",
                  "gradient": [{"guard": "otherwise",
                                "value": ["{2*x1}", "{0}"]}],
                  "regular": True},
            "domain": {"lo": [0], "hi": [1]},
        })
        traj = integrate(system, (0.9,), 0.0, 0.01, 1.0, SelectionStrategy())
        assert traj.exited
        assert len(traj.steps) < 100
        assert traj.final_x[0] > 1.0

    def test_empty_inclusion_is_a_modeling_error(self):
        system = system_from_dict({
            "n": 1,
            "F": {"pieces": [{"guard": "otherwise", "value": "empty"}]},
            "V": {"value": "x1*x1",
                  "gradient": [{"guard": "otherwise",
                                "value": ["{2*x1}", "{0}"]}],
                  "regular": True},
            "domain": {"lo": [-1], "hi": [1]},
        })
        with pytest.raises(SimulationError):
            integrate(system, (0.0,), 0.0, 0.01, 1.0, SelectionStrategy())


class TestMembership:
    def test_smooth_stretch_has_no_violations(self, example2):
        traj = integrate(example2, (0.5, 0.5), 0.0, 1e-3, 5.0,
                         SelectionStrategy("midpoint"))
        report = check_reduction_membership(traj, example2, tol=0.05)
        assert report.violations == 0 and report.passed

    def test_guard_crossings_stay_within_budget(self, example2):
        traj = integrate(example2, (2.0, 0.0), 0.0, 1e-3, 10.0,
                         SelectionStrategy("midpoint"))
        report = check_reduction_membership(traj, example2, tol=0.06)
        assert report.passed
        assert report.fraction <= 0.01

    def test_zero_field_trivially_passes(self, trivial_zero):
        traj = integrate(trivial_zero, (0.3, -0.2), 0.0, 1e-2, 1.0,
                         SelectionStrategy())
        report = check_reduction_membership(traj, trivial_zero, tol=1e-6)
        assert report.fraction == 0.0


class TestDescent:
    def test_example2_descent_with_slack(self, example2):
        traj = integrate(example2, (0.5, 0.5), 0.0, 1e-3, 5.0,
                         SelectionStrategy("midpoint"))
        report = check_lyapunov_descent(traj, example2,
                                        example2.checks.decrease_bound)
        assert report.passed

    def test_zero_field_zero_bound_passes_with_equality(self, trivial_zero):
        traj = integrate(trivial_zero, (0.3, -0.2), 0.0, 1e-2, 1.0,
                         SelectionStrategy())
        report = check_lyapunov_descent(traj, trivial_zero,
                                        ex.parse_scalar("0"))
        assert report.passed
        assert report.max_rate_gap == 0.0

    def test_time_varying_bound(self, example4):
        traj = integrate(example4, (0.5, 0.5), 0.0, 1e-3, 10.0,
                         SelectionStrategy("midpoint"))
        report = check_lyapunov_descent(traj, example4,
                                        example4.checks.decrease_bound)
        assert report.passed

    def test_halving_h_halves_the_rate_gap(self, example2):
        gaps = []
        for h in (1e-3, 5e-4):
            traj = integrate(example2, (0.5, 0.5), 0.0, h, 5.0,
                             SelectionStrategy("midpoint"))
            report = check_lyapunov_descent(traj, example2,
                                            example2.checks.decrease_bound)
            gaps.append(report.max_rate_gap)
        assert gaps[0] / gaps[1] >= 1.8


class TestTail:
    def test_partial_state_decays(self, example5):
        traj = integrate(example5, (0.5, 0.5), 0.0, 1e-3, 30.0,
                         SelectionStrategy("midpoint"))
        report = check_partial_convergence(traj, example5,
                                           example5.checks.semidef_bound, 0.2)
        assert report.passed
        assert report.tail_max < 1e-3

    def test_full_state_decays_on_the_long_horizon(self, example6):
        traj = integrate(example6, (0.5, 0.5), 0.0, 1e-3, 60.0,
                         SelectionStrategy("midpoint"))
        report = check_partial_convergence(
            traj, example6, ex.parse_scalar("x1*x1 + x2*x2"), 0.2)
        assert report.passed

    def test_zero_observable_passes_and_offset_fails(self, trivial_zero):
        traj = integrate(trivial_zero, (0.4, 0.0), 0.0, 1e-2, 1.0,
                         SelectionStrategy())
        w2 = ex.parse_scalar("x2*x2")
        assert check_partial_convergence(traj, trivial_zero, w2, 0.2).tail_max \
            == 0.0
        traj2 = integrate(trivial_zero, (0.3, -0.2), 0.0, 1e-2, 1.0,
                          SelectionStrategy())
        report = check_partial_convergence(traj2, trivial_zero, w2, 0.2)
        assert not report.passed

    def test_tail_fraction_validated(self, trivial_zero):
        traj = integrate(trivial_zero, (0.3, -0.2), 0.0, 1e-2, 1.0,
                         SelectionStrategy())
        with pytest.raises(SchemaError):
            check_partial_convergence(traj, trivial_zero,
                                      ex.parse_scalar("0"), 1.5)


class TestFailClosed:
    """A NaN never passes a trajectory check."""

    def test_nan_bound_is_a_descent_violation(self, example3):
        traj = integrate(example3, (1.0, 0.0), 0.0, 0.01, 1.0,
                         SelectionStrategy("reduced-descent"))
        report = check_lyapunov_descent(
            traj, example3, ex.parse_scalar("(1e308*10) - (1e308*10)"))
        steps = len(traj.steps)
        assert not report.passed
        assert report.bound_violations == report.nonfinite == steps
        assert report.to_dict()["nonfinite"] == steps

    def test_nan_in_the_tail_fails(self, example3):
        # NaN (inf*0) where x1 <= 0.8, after a finite start of the tail
        traj = integrate(example3, (1.0, 0.0), 0.0, 0.01, 1.0,
                         SelectionStrategy("reduced-descent"))
        observable = ex.parse_scalar("min(1e308*10*max(x1 - 0.8, 0), 0)")
        report = check_partial_convergence(traj, example3, observable, 0.5)
        tail = traj.states()[report.tail_start:, 0]
        assert tail[0] > 0.8
        assert report.nonfinite == int((tail <= 0.8).sum()) > 0
        assert report.tail_max == 0.0 and not report.passed

    def test_nan_distance_is_a_membership_violation(self):
        # the midpoint of [-inf, inf] is NaN, so is the difference quotient
        system = system_from_dict({
            "n": 1,
            "F": {"pieces": [{"guard": "otherwise",
                              "value": ["[-1e308*10, 1e308*10]"]}]},
            "V": {"value": "x1*x1",
                  "gradient": [{"guard": "otherwise",
                                "value": ["{2*x1}", "{0}"]}],
                  "regular": True},
            "domain": {"lo": [-1], "hi": [1]},
        })
        traj = integrate(system, (0.5,), 0.0, 0.01, 1.0, SelectionStrategy())
        assert traj.exited and len(traj.steps) == 1
        for tol in (None, 1.0):
            report = check_reduction_membership(traj, system, tol)
            assert report.violations == report.nonfinite == 1
            assert not report.passed and report.max_distance == 0.0

    def test_finite_reports_have_no_nonfinite_key(self, example3):
        traj = integrate(example3, (1.0, 0.0), 0.0, 0.01, 1.0,
                         SelectionStrategy("reduced-descent"))
        w = ex.parse_scalar("x1*x1")
        for report in (check_reduction_membership(traj, example3),
                       check_lyapunov_descent(traj, example3, w),
                       check_partial_convergence(traj, example3, w, 0.5)):
            assert report.nonfinite == 0
            assert "nonfinite" not in report.to_dict()


def test_csv_layout(trivial_zero):
    traj = integrate(trivial_zero, (0.3, -0.2), 0.0, 0.25, 1.0,
                     SelectionStrategy())
    lines = trajectory_csv(traj).splitlines()
    assert lines[0] == "t,x1,x2,q1,q2,V"
    assert len(lines) == 1 + len(traj.steps) + 1
    assert lines[-1].split(",")[3] == ""  # no selection on the final row


# --- the integrator against its former per-step loop ----------------------

def _boxed_integrate(system, x0, t0, h, horizon, strategy):
    """The reference: the integrator's loop on boxes, one environment per
    evaluation (eval_map, then _reduce, eval_gradient and the selection),
    for arguments that pass integrate's checks."""
    rng = (np.random.default_rng(strategy.seed)
           if strategy.kind == "random-extreme" else None)
    x, flat = tuple(x0), []
    for k in range(int(round((horizon - t0) / h))):
        t = t0 + k * h
        fbox = eval_map(system.inclusion, x, t)
        if fbox.is_empty:
            raise SimulationError(
                f"inclusion is empty at x={x}, t={t}; cannot select a "
                "velocity (modeling error)")
        if strategy.kind == "midpoint":
            q = fbox.center
        elif strategy.kind == "random-extreme":
            q = tuple(ax.lo if (ax.is_degenerate or rng.integers(2) == 0)
                      else ax.hi for ax in fbox.axes)
        else:
            reduced = red._reduce(fbox, system.reducers, x, t).result
            base = fbox if reduced.is_empty else reduced
            p = eval_gradient(system.candidate, x, t).center
            q = tuple(ax.lo if c > 0.0 else ax.hi if c < 0.0 else ax.center
                      for c, ax in zip(p, base.axes))
        flat.extend((t, *x, *q, system.candidate.value_at(x, t)))
        x = tuple(xi + h * qi for xi, qi in zip(x, q))
        t = t0 + (k + 1) * h
        if not contains(system.domain, x):
            break
    return Trajectory(t0, h, horizon, strategy,
                      np.array(flat).reshape(-1, 2 * system.n + 2), t, x,
                      system.candidate.value_at(x, t),
                      not contains(system.domain, x))


# a second parameter table, so that some maps need an env of their own
OTHER_PARAMS = (("g", ex.parse_scalar("t - 1")),)
# a function of x1 alone: its gradient map rejects a point of the plane
ONE_D = RegularFunctionSpec("w", 1, ex.Var("x1"), PiecewiseBoxMap(
    1, 2, [Piece(ex.TrueGuard(), (ex.SingletonSet(ex.Num(0.0)),) * 2)]),
    True)


@st.composite
def integrate_cases(draw):
    """A system over (x1, x2) from the scan generators, with risky
    guards, empty pieces and parameters of t; some reducers are not
    regular, some gradients read another parameter table, and a few
    functions have the wrong dimension. The runs are a few steps long."""
    risky = draw(st.booleans())

    def function(name, regular):
        if draw(st.integers(0, 15)) == 0:
            return ONE_D
        gradient = _piecewise(draw, risky, 3, draw(st.booleans()))
        if draw(st.booleans()):
            gradient = PiecewiseBoxMap(2, 3, gradient.pieces, OTHER_PARAMS)
        return RegularFunctionSpec(name, 2, _scalar(draw, risky), gradient,
                                   regular)

    system = SystemDef(
        n=2, inclusion=_piecewise(draw, risky, 2, True),
        candidate=function("V", True),
        reducers=tuple(function(f"U{k + 1}", draw(st.integers(0, 5)) > 0)
                       for k in range(draw(st.integers(0, 2)))),
        domain=IntervalBox.from_bounds((-2.0, -2.0), (2.0, 2.0)))
    t0, h = draw(st.sampled_from([0.0, 1.0])), draw(
        st.sampled_from([0.25, 0.5, 1.0]))
    return (system, draw(st.tuples(st.sampled_from(COORDS),
                                   st.sampled_from(COORDS))),
            t0, h, t0 + h * draw(st.integers(1, 6)),
            SelectionStrategy(draw(st.sampled_from(
                ["midpoint", "reduced-descent", "random-extreme"])),
                draw(st.integers(0, 3))))


def _run_key(result):
    """The rows' bytes and the final fields' bits, or an error."""
    if isinstance(result, tuple):
        return result
    return (result.rows.shape, result.rows.tobytes(),
            struct.pack("d", result.final_t),
            struct.pack(f"{len(result.final_x)}d", *result.final_x),
            struct.pack("d", result.final_v), result.exited)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=integrate_cases())
def test_integrate_is_bit_identical_to_the_boxed_loop(case):
    assert _run_key(_outcome(integrate, *case)) == _run_key(
        _outcome(_boxed_integrate, *case))


SIM_FIXTURES = ("example2", "example3", "example4", "example5", "example6",
                "example6_broken_y2", "trivial_zero")


@pytest.mark.parametrize("kind", ["midpoint", "reduced-descent",
                                  "random-extreme"])
@pytest.mark.parametrize("name", SIM_FIXTURES)
def test_fixture_runs_are_bit_identical_to_the_boxed_loop(name, kind):
    # each fixture's own simulate block, its horizon cut to 2,000 steps;
    # example3's x0 = (1, 0) starts on a guard surface
    system = load_fixture(name)
    sim = system.sim
    case = (system, sim.x0, sim.t0, sim.h,
            min(sim.horizon, sim.t0 + 2000 * sim.h),
            SelectionStrategy(kind, sim.seed))
    assert _run_key(_outcome(integrate, *case)) == _run_key(
        _outcome(_boxed_integrate, *case))


def _system(f_pieces, *, n=1, reducers=(), params=None, v_value="x1*x1"):
    """A system on [-2, 2]^n from piece lists; V's gradient is ``{2*x1}``
    on the first axis, and each reducer's value is ``x1``."""
    doc = {"n": n, "F": {"pieces": f_pieces},
           "V": {"value": v_value, "regular": True,
                 "gradient": [{"guard": "otherwise",
                               "value": ["{2*x1}"] + ["{0}"] * n}]},
           "U": [{"value": "x1", "gradient": g, "regular": True}
                 for g in reducers],
           "domain": {"lo": [-2] * n, "hi": [2] * n},
           "params": params or {}}
    return system_from_dict(doc)


def _when(guard, value, otherwise):
    return [{"guard": guard, "value": value},
            {"guard": "otherwise", "value": otherwise}]


def _both(system, kind, x0=(1.0,), horizon=3.0, h=0.1, seed=0):
    """``integrate`` and the boxed loop on one case: their run keys."""
    case = (system, x0, 0.0, h, horizon, SelectionStrategy(kind, seed))
    return (_run_key(_outcome(integrate, *case)),
            _run_key(_outcome(_boxed_integrate, *case)))


KINDS = ["midpoint", "reduced-descent", "random-extreme"]


class TestHandBack:
    """Steps the generated loop hands back to the boxed calls: every
    error is the boxed loop's, and so is every row before it."""

    def test_nan_set_before_a_division_by_zero(self):
        # below x1 = 0.5 the first set is NaN and the second divides by 0
        system = _system(_when("x1 > 0.5", ["{-1}", "{0}"], [
            "{(1e308*10) - (1e308*10)}", "{1/x2}"]), n=2)
        fast, boxed = _both(system, "midpoint", x0=(1.0, 0.0))
        assert fast == boxed
        assert fast[0] is DslEvalError
        assert fast[1].startswith("set expression {1e+308*10 - 1e+308*10} "
                                  "has a NaN endpoint at x=(0.")

    @pytest.mark.parametrize("kind", KINDS)
    def test_inverted_literal_mid_trajectory(self, kind):
        # [0, x1] turns inverted once x1 < 0, several steps in
        fast, boxed = _both(_system([{"guard": "otherwise",
                                      "value": ["{-1} + [0, x1]"]}]), kind)
        assert fast == boxed
        assert fast[0] is DslEvalError and "lo > hi" in fast[1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_inclusion_empties_after_some_steps(self, kind):
        fast, boxed = _both(_system(_when("x1 < 0.5", "empty", ["{-1}"])),
                            kind)
        assert fast == boxed
        assert fast[0] is SimulationError and "t=0.0;" not in fast[1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_gradient_piece(self, kind):
        # read by reduced-descent only: the others run on
        gradient = _when("x1 < 0.5", "empty", ["{1}", "{0}"])
        fast, boxed = _both(_system([{"guard": "otherwise",
                                      "value": ["{-1}"]}],
                                    reducers=[gradient]), kind)
        assert fast == boxed
        assert (fast[0] is EmptySetError) == (kind == "reduced-descent")

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_regular_reducer(self, kind):
        system = _system([{"guard": "otherwise", "value": ["[-1, 0]"]}],
                         reducers=[[{"guard": "otherwise",
                                     "value": ["[0, 1]", "{0}"]}]])
        u = system.reducers[0]
        system = dataclasses.replace(system, reducers=(RegularFunctionSpec(
            u.name, u.n, u.value, u.gradient, False),))
        fast, boxed = _both(system, kind)
        assert fast == boxed
        if kind == "reduced-descent":
            assert fast == (SchemaError, "U1: reduction requires a regular "
                            "function")
        else:
            assert len(fast) == 6  # a run, not an error

    @pytest.mark.parametrize("kind", KINDS)
    def test_nan_parameter(self, kind):
        # a NaN guard comparison is false; a NaN set endpoint raises
        params = {"g": "(1e308*10) - (1e308*10)"}
        runs = [_both(_system(_when("g > 0", ["{1}"], ["{-x1}"]),
                              params=params), kind),
                _both(_system([{"guard": "otherwise", "value": ["{g}"]}],
                              params=params), kind)]
        assert [fast == boxed for fast, boxed in runs] == [True, True]
        assert len(runs[0][0]) == 6 and runs[1][0][0] is DslEvalError

    def test_map_of_another_dimension(self):
        # V reads x1 only: midpoint runs, reduced-descent reads its gradient
        system = dataclasses.replace(load_fixture("example2"),
                                     candidate=ONE_D)
        for kind in KINDS:
            fast, boxed = _both(system, kind, x0=(0.5, 0.5), horizon=1.0)
            assert fast == boxed
            assert (fast[0] is DimensionMismatchError) == (
                kind == "reduced-descent")

    def test_random_extreme_error_in_v(self):
        # exp overflows once x1 > 709.79/1000, after draws that add 0.01 or
        # 0.03 a step; the message holds x1, so equal errors mean equal
        # draws up to that step
        system = _system([{"guard": "otherwise",
                           "value": ["[0.02, 0.06]"]}], v_value="exp(1000*x1)")
        for seed in range(4):
            short = _both(system, "random-extreme", x0=(0.5,), horizon=2.0,
                          h=0.5, seed=seed)
            fast, boxed = _both(system, "random-extreme", x0=(0.5,),
                                horizon=20.0, h=0.5, seed=seed)
            assert short[0] == short[1] and len(short[0]) == 6
            assert fast == boxed and fast[0] is DslEvalError
