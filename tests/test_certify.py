import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import incred.expr as ex
import incred.grids as grids
from incred.certify import (CERTIFIED, VIOLATED, certify_lyapunov,
                            certify_semidefinite, invariance_data)
from incred.derivative import generalized_derivative
from incred.errors import DslEvalError, SchemaError
from incred.fixtures import available_fixtures, fixture_path, load_fixture
from incred.grids import GridSpec
from incred.intervals import IntervalBox
from incred.setmaps import (Piece, PiecewiseBoxMap, RegularFunctionSpec,
                            SystemDef, system_from_dict)

from scans import grid_nodes
from test_derivative import common_value_max


def _decay_1d(value_at_zero: str = "{0}", time_nodes=(0,), at="0"):
    """x' = -x on [-1, 1] with V = x^2/2, so the derivative is -x^2;
    F is ``value_at_zero`` at x1 == ``at`` instead."""
    return system_from_dict({
        "n": 1,
        "F": {"pieces": [{"guard": f"x1 == {at}", "value": [value_at_zero]},
                         {"guard": "otherwise", "value": ["{-x1}"]}]},
        "V": {"value": "0.5*x1*x1", "regular": True,
              "gradient": [{"guard": "otherwise", "value": ["{x1}", "{0}"]}]},
        "domain": {"lo": [-1], "hi": [1]},
        "grid": {"counts": [5], "include": [[0]],
                 "time_nodes": list(time_nodes)},
    })


class TestGridSpec:
    def test_size_limit_admits_fine_grids_and_every_fixture(self):
        # checked_axes checks the size; no node product is walked
        for name in available_fixtures():
            system = load_fixture(name)
            grid = system.require_grid()
            for g in (grid, grid.refined(10), grid.with_uniform_counts(1001)):
                assert len(g.checked_axes(system.domain)) == system.n

    @pytest.mark.parametrize("chunk", [1, 2, 5, 4096])
    @pytest.mark.parametrize("axes, include", [
        ((5,), ((0.1,),)),
        ((3, (-1.5, -0.0, 0.25, 2.0)), ((0.1,), ())),
        ((2, 3, (-2.0, 1e-300, 1.0)), ((), (0.5,), ())),
    ], ids=["1-axis", "2-axis", "3-axis"])
    def test_nodes_are_the_row_major_product(self, monkeypatch, chunk, axes,
                                             include):
        """The walk, stacked, is ``itertools.product`` of the axes bit for
        bit, with runs and last-axis pieces split across chunks, and its
        transpose is C-contiguous, as the scans read it."""
        grid = GridSpec(axes, include)
        domain = IntervalBox.from_bounds([-2.0] * len(axes), [2.0] * len(axes))
        expected = np.array(list(itertools.product(
            *grid.axis_nodes(domain)))).reshape(-1, len(axes))
        monkeypatch.setattr(grids, "_CHUNK", chunk)
        pts = grid_nodes(grid, domain)
        assert pts.shape == expected.shape
        assert pts.tobytes() == expected.tobytes()
        assert pts.T.flags.c_contiguous

    def test_nodes_are_built_in_place(self, example6):
        """The chunks of the walk are written into the result, so the
        peak is the result itself, not the chunks and the result alive
        together: 1001^2 nodes (15.3 MiB)."""
        grid = example6.require_grid().with_uniform_counts(1001)
        tracemalloc.start()
        try:
            pts = grid_nodes(grid, example6.domain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts) > 10 ** 6
        assert peak <= 1.1 * pts.nbytes

    def test_include_nodes_survive_verbatim(self, example2):
        nodes = example2.grid.axis_nodes(example2.domain)
        for axis in nodes:
            assert -1.0 in axis and 1.0 in axis
            assert list(axis) == sorted(set(axis))

    def test_uniform_counts_cover_the_domain(self, example2):
        nodes = example2.grid.axis_nodes(example2.domain)
        assert nodes[0][0] == -2.0 and nodes[0][-1] == 2.0
        assert len(nodes[0]) == 53  # 51 uniform + two guard lines

    def test_refinement_keeps_existing_nodes(self, example2):
        coarse = example2.grid.axis_nodes(example2.domain)
        fine = example2.grid.refined(10).axis_nodes(example2.domain)
        assert set(coarse[0]) <= set(fine[0])
        assert len(fine[0]) > 9 * len(coarse[0])

    def test_explicit_axis_refinement(self):
        grid = GridSpec(((0.0, 1.0, 3.0),), ((),))
        fine = grid.refined(2).axis_nodes(IntervalBox.from_bounds([0], [3]))
        assert fine[0] == (0.0, 0.5, 1.0, 2.0, 3.0)

    def test_size_check_counts_include_nodes(self, monkeypatch):
        """Counts [2, 2] with 4,000 include values per axis: 4 nodes by the
        counts, 4,002^2 once the include lists are merged."""
        include = tuple(float(v) for v in range(1, 4001))
        grid = GridSpec((2, 2), (include, include))
        domain = IntervalBox.from_bounds([0.0, 0.0], [5000.0, 5000.0])

        def no_walk(axes, region=None):
            raise AssertionError("the node product was walked")

        monkeypatch.setattr(grids, "_region_chunks", no_walk)
        message = ("grid node-time pairs (4002 x 4002 nodes x 1 time "
                   "nodes): 16016004 exceeds the limit of 10000000")
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            grid_nodes(grid, domain)

    def test_validation(self):
        with pytest.raises(SchemaError):
            GridSpec((1,), ((),))
        with pytest.raises(SchemaError):
            GridSpec((5,), ((), ()))
        with pytest.raises(SchemaError):
            GridSpec((5,), ((),), time_nodes=())


class TestCertifyLyapunov:
    def test_reduced_certificate_passes(self, example2):
        cert = certify_lyapunov(example2, example2.checks.decrease_bound)
        assert cert.verdict == CERTIFIED
        assert cert.worst_margin <= 1e-9
        assert cert.details["minus_inf_nodes"] > 0
        assert "certified on grid" in cert.details["note"]

    def test_baseline_collection_fails_strict_bound(self, example2_baseline):
        cert = certify_lyapunov(example2_baseline,
                                example2_baseline.checks.decrease_bound)
        assert cert.verdict == VIOLATED
        assert cert.worst_margin == pytest.approx(2.0, abs=1e-9)
        assert cert.details["derivative_violations"] > 0

    def test_violation_witness_is_faithful(self, example2_baseline):
        cert = certify_lyapunov(example2_baseline,
                                example2_baseline.checks.decrease_bound)
        x, t = cert.worst_point, cert.worst_t
        d = common_value_max(example2_baseline.candidate,
                             example2_baseline.inclusion, x, t)
        w = ex.compile_scalar(example2_baseline.checks.decrease_bound)(
            example2_baseline.inclusion.env(x, t))
        assert d + w == pytest.approx(cert.worst_margin, abs=1e-12)
        assert d + w > 1e-9

    def test_trivial_zero_field(self, trivial_zero):
        cert = certify_lyapunov(trivial_zero, trivial_zero.checks.decrease_bound)
        assert cert.verdict == CERTIFIED

    def test_time_varying_with_sandwich(self, example4):
        checks = example4.checks
        cert = certify_lyapunov(
            example4, checks.decrease_bound,
            sandwich=(checks.lower_envelope, checks.upper_envelope))
        assert cert.verdict == CERTIFIED
        assert cert.worst_margin <= 1e-9
        assert cert.details["sandwich_violations"] == 0
        assert cert.grid_summary["time_nodes"] == [0, 0.5, 1, 2, 5, 10]

    def test_positive_definiteness_screen(self, example2):
        # a candidate vanishing on a whole line is caught on the grid
        bad = ex.parse_scalar("x1*x1")
        shifted = type(example2.candidate)(
            "bad", 2, bad, example2.candidate.gradient, True)
        system = type(example2)(
            n=2, inclusion=example2.inclusion, candidate=shifted,
            reducers=example2.reducers, domain=example2.domain,
            grid=example2.grid)
        cert = certify_lyapunov(system, ex.parse_scalar("0"))
        assert cert.verdict == VIOLATED
        assert any("positivity" in s for s in cert.details["screen_failures"])

    def test_candidate_as_reducer_reproduces_the_baseline_verdict(
            self, example2, example2_baseline):
        bound = example2.checks.decrease_bound
        via_override = certify_lyapunov(
            replace(example2, reducers=(example2.candidate,)), bound)
        via_fixture = certify_lyapunov(example2_baseline, bound)
        assert via_override.verdict == via_fixture.verdict == VIOLATED
        assert via_override.worst_margin == via_fixture.worst_margin
        assert via_override.worst_point == via_fixture.worst_point

    def test_refinement_never_flips_violated_to_certified(
            self, example2_baseline):
        bound = example2_baseline.checks.decrease_bound
        coarse_grid = example2_baseline.grid.with_uniform_counts(11)
        coarse = certify_lyapunov(
            replace(example2_baseline, grid=coarse_grid), bound)
        fine = certify_lyapunov(
            replace(example2_baseline, grid=coarse_grid.refined(3)), bound)
        assert coarse.verdict == VIOLATED
        assert fine.verdict == VIOLATED
        assert fine.worst_margin >= coarse.worst_margin - 1e-12


    def test_nan_derivative_is_an_error_and_inf_a_violation(self):
        # F = {inf} at the origin and V' = 0 there: the derivative is
        # 0 * inf = NaN, which must fail closed, not certify.
        with pytest.raises(DslEvalError, match=re.escape(
                "the generalized derivative is NaN at x=(0.0,), t=0")):
            certify_lyapunov(_decay_1d("{1e308*10}"), ex.parse_scalar("x1*x1"))
        # at x1 = 0.5, V' = 0.5: the derivative is inf, a counted violation
        cert = certify_lyapunov(_decay_1d("{1e308*10}", at="0.5"),
                                ex.parse_scalar("x1*x1"))
        assert cert.verdict == VIOLATED
        assert cert.details["nonfinite_margins"] == 1
        assert cert.details["derivative_violations"] == 1
        clean = certify_lyapunov(_decay_1d(), ex.parse_scalar("x1*x1"))
        assert clean.verdict == CERTIFIED
        assert "nonfinite_margins" not in clean.details


class TestCertifySemidefinite:
    def test_partial_bound_passes(self, example5):
        cert = certify_semidefinite(example5, example5.checks.semidef_bound)
        assert cert.verdict == CERTIFIED
        assert cert.worst_margin <= 1e-9

    def test_sandwich_of_example5(self, example5):
        checks = example5.checks
        cert = certify_semidefinite(example5, checks.semidef_bound,
                                    sandwich=checks.sandwich)
        assert cert.verdict == CERTIFIED
        assert cert.details["sandwich_checked"] is True
        assert cert.details["sandwich_violations"] == 0
        plain = certify_semidefinite(example5, checks.semidef_bound)
        assert "sandwich_checked" not in plain.details
        assert plain.worst_margin == cert.worst_margin

    def test_sandwich_screens_match_certify_lyapunov(self, example5):
        # one helper screens the envelopes for both decrease checks
        lower, upper = (ex.parse_scalar("x1*x1"),
                        ex.parse_scalar("x1*x1 + x2*x2 - 1"))
        semi = certify_semidefinite(example5, example5.checks.semidef_bound,
                                    sandwich=(lower, upper))
        lyap = certify_lyapunov(example5, example5.checks.semidef_bound,
                                sandwich=(lower, upper))
        assert semi.verdict == VIOLATED
        assert semi.details["sandwich_violations"] \
            == lyap.details["sandwich_violations"] > 0
        envelope_failures = [f for f in lyap.details["screen_failures"]
                             if "envelope" in f]
        assert semi.details["screen_failures"] == envelope_failures

    def test_zero_bound_trivially_certified(self, trivial_zero):
        cert = certify_semidefinite(trivial_zero, ex.parse_scalar("0"))
        assert cert.verdict == CERTIFIED

    def test_strict_bound_fails_on_the_axis(self, example5):
        cert = certify_semidefinite(example5,
                                    ex.parse_scalar("2*(x1*x1 + x2*x2)"))
        assert cert.verdict == VIOLATED
        x = cert.worst_point
        assert x[1] == 0.0 and x[0] != 0.0
        # witness fidelity
        d = generalized_derivative(example5.candidate, example5.inclusion,
                                   example5.reducers, x, cert.worst_t)
        assert d + 2 * (x[0] ** 2 + x[1] ** 2) == pytest.approx(
            cert.worst_margin, abs=1e-12)

    def test_negative_bound_rejected_by_screen(self, example5):
        cert = certify_semidefinite(example5, ex.parse_scalar("x1"))
        assert cert.verdict == VIOLATED
        assert "screen_failures" in cert.details

    def test_bound_screened_at_every_time_node(self):
        system = _decay_1d(time_nodes=(0, 5))
        bound = ex.parse_scalar("x1*x1*(1 - t)")
        cert = certify_semidefinite(system, bound)
        assert cert.verdict == VIOLATED
        assert cert.details["derivative_violations"] == 0
        assert cert.details["screen_failures"] == [
            "bound([-1.0]) = -4.0 at t=5.0 is negative"]

    def test_a_parameter_that_raises_where_no_gradient_is_read(self):
        """F = [1, 2] reduced by a gradient that moves along x1 is empty
        everywhere, so V's gradient, whose own parameter g = 1/(t - 1)
        raises at t = 1, is never read: the derivative is minus infinity
        at every node-time pair, and the scan certifies."""
        def box_map(sets, params=()):
            return PiecewiseBoxMap(1, len(sets), [Piece(ex.TrueGuard(), tuple(
                ex.parse_set(v, ("x1", "g")) for v in sets))], params)

        reducer = RegularFunctionSpec("U", 1, ex.Num(0.0),
                                      box_map(["[-1, 1]", "{0}"]), True)
        candidate = RegularFunctionSpec(
            "V", 1, ex.parse_scalar("x1*x1", ("x1",)), box_map(
                ["{g*x1}", "{0}"],
                (("g", ex.parse_scalar("1/(t - 1)", ("t",))),)),
            True)
        system = SystemDef(1, box_map(["[1, 2]"]), candidate, (reducer,),
                           IntervalBox.from_bounds([0.0], [2.0]),
                           GridSpec(((0.5, 1.0),), ((),), (0.0, 1.0)))
        assert all(generalized_derivative(candidate, system.inclusion,
                                          [reducer], [x], t) is None
                   for x in (0.5, 1.0) for t in (0.0, 1.0))
        cert = certify_semidefinite(system, ex.Num(0.0))
        assert cert.verdict == CERTIFIED
        assert cert.details["minus_inf_nodes"] == 4


class TestInvarianceData:
    def test_vanishing_set_is_the_horizontal_axis(self, example3):
        report = invariance_data(example3)
        assert report.semidefinite.verdict == CERTIFIED
        e_nodes = set(report.e_nodes)
        assert e_nodes, "expected a nonempty vanishing-set estimate"
        for x in e_nodes:
            assert abs(x[1]) <= 1e-7
        axis_nodes = example3.grid.axis_nodes(example3.domain)
        for x1 in axis_nodes[0]:
            assert (x1, 0.0) in e_nodes

    def test_equilibrium_screening(self, example3):
        report = invariance_data(example3)
        verdicts = {c.point: c.is_equilibrium for c in report.candidates}
        assert verdicts[(0.0, 0.0)] is True
        root2 = math.sqrt(2.0)
        for x1 in (1.0, -1.0, root2, -root2, 2.0, -2.0):
            assert verdicts[(x1, 0.0)] is False

    def test_everything_is_an_equilibrium_for_the_zero_field(
            self, trivial_zero):
        checks = replace(trivial_zero.checks,
                         candidates=[(0.0, 0.0), (0.5, -0.5), (1.0, 1.0)])
        report = invariance_data(replace(trivial_zero, checks=checks))
        assert report.semidefinite.verdict == CERTIFIED
        assert len(report.e_nodes) == 11 * 11
        assert all(c.is_equilibrium for c in report.candidates)

    def test_interior_spiral_vanishes_only_near_origin(self, example2):
        report = invariance_data(example2)
        for x in report.e_nodes:
            assert math.hypot(*x) <= 1e-7

    def test_nonautonomous_rejected(self, example4):
        with pytest.raises(SchemaError):
            invariance_data(example4)


def _tolerance_call(call: str):
    """The library call ``call``, taking its tolerance keyword."""
    import incred.certify as cert
    from incred.simulate import (SelectionStrategy,
                                 check_reduction_membership, integrate)

    example2 = load_fixture("example2_baseline")
    bound = example2.checks.decrease_bound
    if call.startswith("matrosov"):
        example6 = load_fixture("example6")
        nodes = cert.matrosov_grid(example6)
        return lambda **kw: getattr(cert, call)(example6, *nodes, **kw)
    if call == "check_reduction_membership":
        return lambda **kw: check_reduction_membership(integrate(
            example2, (0.5, 0.5), 0.0, 0.1, 1.0, SelectionStrategy()),
            example2, **kw)
    if call == "invariance_data":
        return lambda **kw: invariance_data(example2, **kw)
    return lambda **kw: getattr(cert, call)(example2, bound, **kw)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, keyword", [
    ("certify_lyapunov", "tol"), ("certify_semidefinite", "tol"),
    ("invariance_data", "zero_tol"),
    ("matrosov_chain", "eq_tol"), ("matrosov_constants", "eq_tol"),
    ("check_reduction_membership", "tol")])
def test_tolerance_keywords_must_be_finite(call, keyword, value):
    # the library's rule for the values the CLI's --tol passes on
    with pytest.raises(SchemaError,
                       match=f"^{keyword}: expected a finite number$"):
        _tolerance_call(call)(**{keyword: value})


@pytest.mark.parametrize("value", [-1.0, -1e-300])
@pytest.mark.parametrize("call, keyword", [
    ("invariance_data", "zero_tol"),
    ("matrosov_chain", "eq_tol"), ("matrosov_constants", "eq_tol")])
def test_vanishing_tolerances_must_not_be_negative(call, keyword, value):
    # |d| <= tol never holds for tol < 0: the set it picks would be empty
    with pytest.raises(SchemaError,
                       match=f"^{keyword}: expected a number >= 0$"):
        _tolerance_call(call)(**{keyword: value})


@pytest.mark.parametrize("call", ["certify_lyapunov", "certify_semidefinite",
                                  "check_reduction_membership"])
def test_margin_tolerances_may_be_negative(call):
    # a margin below 0 only makes the check stricter
    assert _tolerance_call(call)(tol=-1e-3) is not None


def test_negative_zero_tol_is_rejected_at_load():
    with open(fixture_path("example2"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.setdefault("certify", {})["zero_tol"] = -1
    with pytest.raises(SchemaError,
                       match=r"^certify\.zero_tol: expected a number >= 0$"):
        system_from_dict(doc)
