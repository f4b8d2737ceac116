import re

import numpy as np
import pytest

import incred.expr as ex
import incred.grids as grids
from incred.errors import (DimensionMismatchError, DslEvalError,
                           DslSyntaxError, EmptySetError, SchemaError)
from incred.intervals import Interval, IntervalBox
from incred.setmaps import (Piece, PiecewiseBoxMap, RegularFunctionSpec,
                            eval_gradient, eval_map, system_from_dict,
                            validate_gradient)

from conftest import (KINK_RADIUS, PROBES_1D, PROBES_SMOOTH_2D,
                      PROBES_SQUARE_PYRAMID, PROBES_SQUARE_RAMP,
                      SMOOTH_RADIUS)


def _pieces(*entries, variables=None):
    out = []
    for guard, values in entries:
        g = ex.parse_guard(guard, variables)
        v = None if values is None else tuple(
            ex.parse_set(s, variables) for s in values)
        out.append(Piece(g, v))
    return out


class TestPiecewiseBoxMap:
    def test_first_match_wins(self):
        m = PiecewiseBoxMap(1, 1, _pieces(
            ("x1 > 0", ["{1}"]),
            ("x1 > -1", ["{2}"]),
            ("otherwise", ["{3}"]),
        ))
        assert eval_map(m, (0.5,), 0.0) == IntervalBox.point((1.0,))
        assert eval_map(m, (-0.5,), 0.0) == IntervalBox.point((2.0,))
        assert eval_map(m, (-2.0,), 0.0) == IntervalBox.point((3.0,))

    def test_otherwise_is_mandatory_and_last(self):
        with pytest.raises(SchemaError):
            PiecewiseBoxMap(1, 1, _pieces(("x1 > 0", ["{1}"])))
        with pytest.raises(SchemaError):
            PiecewiseBoxMap(1, 1, _pieces(
                ("otherwise", ["{1}"]),
                ("x1 > 0", ["{2}"]),
            ))

    def test_empty_piece_value(self):
        m = PiecewiseBoxMap(1, 1, _pieces(
            ("x1 == 0", None),
            ("otherwise", ["{x1}"]),
        ))
        assert eval_map(m, (0.0,), 0.0).is_empty
        assert eval_map(m, (2.0,), 0.0) == IntervalBox.point((2.0,))

    def test_component_count_checked(self):
        with pytest.raises(SchemaError):
            PiecewiseBoxMap(2, 2, _pieces(("otherwise", ["{0}"])))

    def test_guard_chain_stops_at_the_first_match(self):
        m = PiecewiseBoxMap(1, 1, _pieces(
            ("x1 == 0", ["{1}"]),
            ("1/x1 > 0", ["{2}"]),  # would divide by zero at x1 == 0
            ("otherwise", ["{3}"]),
        ))
        assert eval_map(m, (0.0,), 0.0) == IntervalBox.point((1.0,))
        assert eval_map(m, (-1.0,), 0.0) == IntervalBox.point((3.0,))

    def test_guard_chain_raises_the_guard_error(self):
        guard = "1/x1 > 0"
        m = PiecewiseBoxMap(1, 1, _pieces(
            ("x1 > 0", ["{1}"]), (guard, ["{2}"]), ("otherwise", ["{3}"])))
        with pytest.raises(DslEvalError) as expected:
            ex.compile_guard(ex.parse_guard(guard))({"x1": 0.0, "t": 0.0})
        with pytest.raises(DslEvalError,
                           match=f"^{re.escape(str(expected.value))}$"):
            eval_map(m, (0.0,), 0.0)

    def test_nan_endpoint_names_the_first_nan_set_of_its_piece(self):
        nan = "{x1*1e999 - 1e999}"  # NaN at x1 == 1 only
        m = PiecewiseBoxMap(1, 3, _pieces(
            ("x1 < 0", ["{0}", "{0}", "{0}"]),
            ("otherwise", ["{x1}", nan, "{(1e308*10) - (1e308*10)}"])))
        message = (f"set expression {ex.pretty_set(ex.parse_set(nan))} has "
                   "a NaN endpoint at x=(1.0,), t=0.0")
        with pytest.raises(DslEvalError, match=f"^{re.escape(message)}$"):
            eval_map(m, (1.0,), 0.0)

    def test_a_raising_parameter_names_itself_and_the_time(self):
        params = (("g", ex.parse_scalar("0.5*exp(-t)")),
                  ("h", ex.parse_scalar("1/(t - 1)", {"t"})))
        m = PiecewiseBoxMap(1, 1, _pieces(("otherwise", ["{h}"]),
                                          variables={"x1", "t", "g", "h"}),
                            params)
        assert eval_map(m, (0.5,), 2.0).axes[0].lo == 1.0
        message = "parameter h at t=1.0: division by near-zero denominator 0.0"
        cols = [np.zeros(3)]
        for call in (lambda: eval_map(m, (0.5,), 1.0),
                     lambda: m.env((), 1),
                     lambda: m.chunk_arrays(cols)(*m.env_arrays(cols, 1.0))):
            with pytest.raises(DslEvalError, match=f"^{re.escape(message)}$"):
                call()

    def test_dimension_mismatch_at_eval(self):
        m = PiecewiseBoxMap(2, 2, _pieces(("otherwise", ["{0}", "{0}"])))
        with pytest.raises(DimensionMismatchError):
            eval_map(m, (0.0,), 0.0)


class TestEvalMapExamples:
    def test_example1_off_switch(self, example1):
        assert eval_map(example1.inclusion, (0.5,), 0.0) \
            == IntervalBox.point((-2.0,))

    def test_example1_on_switch(self, example1):
        out = eval_map(example1.inclusion, (1.0,), 0.0)
        assert out == IntervalBox((Interval(-2.0, 5.0),))

    def test_single_otherwise_origin(self, trivial_zero):
        assert eval_map(trivial_zero.inclusion, (0.7, -0.3), 3.0) \
            == IntervalBox.point((0.0, 0.0))

    def test_piece_coverage_under_fuzz(self, example1, example2, example3,
                                       example4, example5, example6):
        # the mandatory otherwise piece makes evaluation total
        rng = np.random.default_rng(123)
        systems = [example1, example2, example3, example4, example5, example6]
        for system in systems:
            lo = system.domain.lo_corner()
            hi = system.domain.hi_corner()
            for _ in range(10_000 // len(systems) + 1):
                x = [rng.uniform(a, b) for a, b in zip(lo, hi)]
                t = rng.uniform(0.0, 10.0)
                box = eval_map(system.inclusion, x, t)
                assert box.dims == system.n
                for f in (system.candidate, *system.reducers):
                    assert eval_gradient(f, x, t).dims == system.n + 1


class TestEvalGradient:
    def test_square_ramp_on_edge(self, example2):
        ramp = example2.reducers[0]
        out = eval_gradient(ramp, (1.0, 0.5), 0.0)
        assert out == IntervalBox((Interval(0, 1), Interval(0, 0),
                                   Interval(0, 0)))

    def test_smooth_quadratic(self, example2):
        out = eval_gradient(example2.candidate, (0.5, 0.5), 0.0)
        assert out == IntervalBox.point((0.5, 0.5, 0.0))

    def test_abs_kink_at_origin(self, example1):
        out = eval_gradient(example1.reducers[0], (0.0,), 0.0)
        assert out == IntervalBox((Interval(-1, 1), Interval(0, 0)))

    def test_empty_gradient_rejected(self):
        grad = PiecewiseBoxMap(1, 2, _pieces(
            ("x1 == 0", None),
            ("otherwise", ["{1}", "{0}"]),
        ))
        f = RegularFunctionSpec("bad", 1, ex.parse_scalar("x1"), grad, True)
        with pytest.raises(EmptySetError):
            eval_gradient(f, (0.0,), 0.0)

    def test_time_independent_functions_have_degenerate_time_axis(
            self, example1, example2, example6):
        probes1 = [(-2.0,), (-1.0,), (0.0,), (0.3,), (1.0,), (2.0,)]
        probes2 = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5),
                   (2.0, -1.0), (0.3, 0.3)]
        cases = [(example1.reducers[0], probes1),
                 (example1.candidate, probes1),
                 (example2.reducers[0], probes2),
                 (example2.candidate, probes2),
                 (example6.matrosov.collections[1][0], probes2)]
        for f, probes in cases:
            assert not f.time_dependent
            for x in probes:
                axis = eval_gradient(f, x, 0.0).axes[-1]
                assert axis == Interval(0.0, 0.0)

    def test_time_varying_candidate_reports_time_slope(self, example4):
        out = eval_gradient(example4.candidate, (0.0, 1.0), 0.0)
        # time slope is the declared coefficient derivative at t=0
        assert out.axes[-1].is_degenerate
        assert out.axes[-1].lo == pytest.approx(-0.5, abs=1e-12)


class TestValidateGradient:
    def test_zero_function_passes(self):
        grad = PiecewiseBoxMap(1, 2, _pieces(("otherwise", ["{0}", "{0}"])))
        f = RegularFunctionSpec("zero", 1, ex.parse_scalar("0"), grad, True)
        rep = validate_gradient(f, (0.3,), 0.0, radius=0.1, samples=100)
        assert rep.passed
        assert rep.estimate_hull.axes[0].lo == pytest.approx(0.0, abs=1e-9)
        assert rep.estimate_hull.axes[0].hi == pytest.approx(0.0, abs=1e-9)

    def test_square_ramp_is_flat_inside_the_square(self, example2):
        # the ramp is identically zero on the open square, so the sampled
        # hull at an interior point is {0}^3, inside the declared {0}^3
        ramp = example2.reducers[0]
        rep = validate_gradient(ramp, (0.5, 0.5), 0.0, radius=0.1,
                                samples=200)
        assert rep.passed
        for axis in rep.estimate_hull.axes:
            assert abs(axis.lo) <= 1e-9 and abs(axis.hi) <= 1e-9

    def test_square_ramp_slope_outside(self, example2):
        ramp = example2.reducers[0]
        rep = validate_gradient(ramp, (1.5, 1.5), 0.0, radius=0.1,
                                samples=200)
        assert rep.passed
        assert rep.estimate_hull.axes[0].lo == pytest.approx(1.0, abs=1e-9)
        assert rep.estimate_hull.axes[1].hi == pytest.approx(1.0, abs=1e-9)

    def test_abs_kink_hull_spans_both_slopes(self, example1):
        rep = validate_gradient(example1.reducers[0], (1.0,), 0.0,
                                radius=0.05, samples=400)
        assert rep.passed
        hull = rep.estimate_hull.axes[0]
        assert hull.lo == pytest.approx(1.0, abs=1e-6)
        assert hull.hi == pytest.approx(2.0, abs=1e-6)
        declared = rep.declared.axes[0].inflate(1e-4)
        assert declared.lo <= hull.lo and hull.hi <= declared.hi

    def test_preconditions(self, example1):
        with pytest.raises(SchemaError):
            validate_gradient(example1.candidate, (0.0,), 0.0, radius=0.0,
                              samples=100)
        with pytest.raises(SchemaError):
            validate_gradient(example1.candidate, (0.0,), 0.0, radius=0.1,
                              samples=5)

    def test_sample_count_is_bounded_before_allocation(self, example1,
                                                       monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("samples drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(SchemaError, match=re.escape(
                f"validate_gradient samples: {grids.MAX_ITEMS + 1} exceeds")):
            validate_gradient(example1.candidate, (0.0,), 0.0, radius=0.1,
                              samples=grids.MAX_ITEMS + 1)

    def test_all_fixture_functions_at_probe_points(
            self, example1, example2, example4, example6):
        cases = [
            (example1.reducers[0], PROBES_1D, KINK_RADIUS),
            (example2.reducers[0], PROBES_SQUARE_RAMP, KINK_RADIUS),
            (example6.matrosov.collections[1][0], PROBES_SQUARE_PYRAMID,
             KINK_RADIUS),
            (example2.candidate, PROBES_SMOOTH_2D, SMOOTH_RADIUS),
            (example4.candidate, PROBES_SMOOTH_2D, SMOOTH_RADIUS),
            (example6.matrosov.functions[1], PROBES_SMOOTH_2D, SMOOTH_RADIUS),
        ]
        for f, probes, radius in cases:
            assert len(probes) == 20
            for x in probes:
                rep = validate_gradient(f, x, 1.0, radius=radius, samples=150)
                assert rep.passed, (f.name, x, rep.fraction_inside)


class TestSystemLoading:
    def _minimal(self):
        return {
            "n": 1,
            "F": {"pieces": [{"guard": "otherwise", "value": ["{0}"]}]},
            "V": {"value": "x1*x1",
                  "gradient": [{"guard": "otherwise",
                                "value": ["{2*x1}", "{0}"]}],
                  "regular": True},
            "domain": {"lo": [-1], "hi": [1]},
        }

    def test_minimal_loads(self):
        system = system_from_dict(self._minimal())
        assert system.n == 1
        assert not system.time_dependent

    def test_unknown_top_level_key(self):
        doc = self._minimal()
        doc["extra"] = 1
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_unknown_nested_key(self):
        doc = self._minimal()
        doc["V"]["mystery"] = 1
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_missing_required_key(self):
        doc = self._minimal()
        del doc["domain"]
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_bad_expression_reports_location(self):
        doc = self._minimal()
        doc["F"]["pieces"][0]["value"] = ["{0"]
        with pytest.raises(DslSyntaxError) as err:
            system_from_dict(doc)
        assert "F.pieces[0].value[0]" in str(err.value)
        assert str(err.value).count("(at offset") == 1

    def test_out_of_range_state_variable(self):
        doc = self._minimal()
        doc["F"]["pieces"][0]["value"] = ["{x2}"]
        with pytest.raises(DslSyntaxError):
            system_from_dict(doc)

    def test_nonregular_reducer_rejected(self):
        doc = self._minimal()
        doc["U"] = [{"value": "x1",
                     "gradient": [{"guard": "otherwise",
                                   "value": ["{1}", "{0}"]}],
                     "regular": False}]
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_invalid_param_name(self):
        doc = self._minimal()
        doc["params"] = {"x1": "t"}
        with pytest.raises(SchemaError):
            system_from_dict(doc)

    def test_param_flows_into_expressions(self):
        doc = self._minimal()
        doc["params"] = {"gain": "2*exp(-t)"}
        doc["F"]["pieces"][0]["value"] = ["{gain*x1}"]
        system = system_from_dict(doc)
        assert system.time_dependent
        out = eval_map(system.inclusion, (1.0,), 0.0)
        assert out == IntervalBox.point((2.0,))

    def test_matrosov_block_shape_checked(self):
        doc = self._minimal()
        doc["matrosov"] = {"delta": 1.0, "Delta": 0.5, "gamma": 1.0,
                           "phi": ["0"], "Y": ["-x1*x1"],
                           "W": [dict(doc["V"])]}
        with pytest.raises(SchemaError):
            system_from_dict(doc)
