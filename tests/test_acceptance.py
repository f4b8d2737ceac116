"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Expected values come from closed-form oracles computed in place or
from the worked systems' exact case tables; tolerances are stated next to
each assertion and are final.
"""

import math
from dataclasses import replace

import numpy as np
from incred.certify import (CERTIFIED, certify_lyapunov, invariance_data,
                            matrosov_chain, matrosov_constants, matrosov_grid,
                            verify_combined_bound)
from incred.derivative import (baseline_interval_derivative,
                               bilinear_maxmax, bilinear_minmax,
                               generalized_derivative)
from incred.intervals import Interval
from incred.reduction import reduce_collection
from incred.setmaps import eval_map, validate_gradient
from incred.simulate import (SelectionStrategy, check_reduction_membership,
                             integrate)

from boxes import intersect, max_vertex_norm
from conftest import (KINK_RADIUS, PROBES_1D, PROBES_SMOOTH_2D,
                      PROBES_SQUARE_PYRAMID, PROBES_SQUARE_RAMP,
                      SMOOTH_RADIUS)
from scans import reduction_table
from test_derivative import (_random_box, brute_maxmax, brute_minmax,
                             common_value_max)
from test_reduction import (box, constant_map, constant_spec, corner_distance,
                            random_reduction_case, reduce_once,
                            reduction_oracle_hull, rows)


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_reduction_table_is_exact(example1):
    nodes = [(float(x),) for x in (-2, -1, -0.5, 0, 0.5, 1, 2)]
    table = reduction_table(example1.inclusion, example1.reducers, nodes,
                            0.0)
    expected = {
        -2.0: Interval(-2, -2), -1.0: Interval(0, 0),
        -0.5: Interval(-2, -2), 0.0: None, 0.5: Interval(-2, -2),
        1.0: Interval(0, 0), 2.0: Interval(2, 2),
    }
    for row in rows(table):
        want = expected[row.x[0]]
        if want is None:
            assert row.reduced.is_empty
        else:
            # zero tolerance: endpoints are exactly representable
            assert row.reduced.axes[0].lo == want.lo
            assert row.reduced.axes[0].hi == want.hi
        if row.x[0] in (-1.0, 1.0):
            assert row.base == box((-2.0, 5.0))
    _report(1, "switching-line reduction table reproduced exactly at "
               "7 probes (zero tolerance)")


def test_criterion_2_planar_derivative_closed_form(example2):
    uniform = [float(v) for v in np.linspace(-2.0, 2.0, 51)]
    worst = 0.0
    for x1 in uniform:
        for x2 in uniform:
            d = generalized_derivative(example2.candidate, example2.inclusion,
                                       example2.reducers, (x1, x2), 0.0)
            assert d is not None
            worst = max(worst, abs(d - (-(x1 * x1) - x2 * x2)))
    assert worst <= 1e-9

    axis_nodes = example2.grid.axis_nodes(example2.domain)
    guard_nodes = [(g, v) for g in (-1.0, 1.0) for v in axis_nodes[1]]
    guard_nodes += [(v, g) for g in (-1.0, 1.0) for v in axis_nodes[0]]
    for node in guard_nodes:
        d = generalized_derivative(example2.candidate, example2.inclusion,
                                   example2.reducers, node, 0.0)
        assert d is None

    for corner in ((1.0, 1.0), (1.0, -1.0)):
        bmax = common_value_max(example2.candidate, example2.inclusion,
                                corner, 0.0)
        pint = baseline_interval_derivative(example2.candidate,
                                            example2.inclusion, corner, 0.0)
        assert abs(bmax) <= 1e-9
        assert abs(pint.hi) <= 1e-9
    _report(2, f"reduced derivative equals -|x|^2 off the guards "
               f"(worst error {worst:.2e} <= 1e-9), -inf on guards, and "
               f"both baseline maxima are 0 at the corners")


def test_criterion_3_invariance_example(example3):
    nodes = [(1.0, 0.0), (-1.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (1.0, -1.0),
             (-1.0, -1.0), (0.5, 0.5), (-0.3, 0.7), (2.0, 0.0)]
    table = reduction_table(example3.inclusion, example3.reducers, nodes,
                            0.0)
    by_x = {row.x: row for row in rows(table)}
    assert by_x[(1.0, 0.0)].reduced == box((0.0, 0.0), (-1.5, -0.5))
    assert by_x[(-1.0, 0.0)].reduced == box((0.0, 0.0), (0.5, 1.5))
    for corner in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        assert by_x[corner].reduced.is_empty
    for interior in ((0.5, 0.5), (-0.3, 0.7), (2.0, 0.0)):
        assert by_x[interior].reduced == by_x[interior].base

    report = invariance_data(example3)
    assert report.semidefinite.verdict == CERTIFIED
    for x in report.e_nodes:
        assert abs(x[1]) <= 1e-7
    for x1 in example3.grid.axis_nodes(example3.domain)[0]:
        assert (x1, 0.0) in set(report.e_nodes)

    verdicts = {c.point: c.is_equilibrium for c in report.candidates}
    assert verdicts[(0.0, 0.0)] is True
    for nu_root in (1.0, math.sqrt(2.0), 2.0):  # nu in {0.5, 1, 2}
        assert verdicts[(nu_root, 0.0)] is False
        assert verdicts[(-nu_root, 0.0)] is False
    _report(3, "four-case reduced table exact, vanishing set is the "
               "x2=0 line, equilibrium screening keeps only the origin")


def test_criterion_4_time_varying_certificate(example4):
    cert = certify_lyapunov(
        example4, example4.checks.decrease_bound,
        sandwich=(example4.checks.lower_envelope,
                  example4.checks.upper_envelope))
    assert cert.verdict == CERTIFIED
    assert cert.grid_summary["time_nodes"] == [0, 0.5, 1, 2, 5, 10]
    assert cert.worst_margin <= 1e-9  # decrease margin >= 0 within 1e-9
    _report(4, f"time-varying decrease bound certified on the grid at six "
               f"time nodes (worst excess {cert.worst_margin:.2e} <= 1e-9)")


def test_criterion_5_matrosov_certificates(example6):
    problem = example6.matrosov
    assert (problem.delta, problem.big_delta, problem.gamma) == (0.1, 2.0, 1.0)
    z_nodes, x_nodes = matrosov_grid(example6)
    chain = matrosov_chain(example6, z_nodes, x_nodes, eq_tol=1e-6)
    assert chain.verdict == CERTIFIED

    result = matrosov_constants(example6, z_nodes, x_nodes, eq_tol=1e-6)
    assert result.certificate.verdict == CERTIFIED
    assert len(result.constants) == 1
    assert result.constants[0] <= 2.0 ** 20
    assert result.zeta >= 0.009

    fine = replace(example6, grid=example6.grid.refined(10))
    verify = verify_combined_bound(fine, result.constants, result.zeta,
                                   *matrosov_grid(fine))
    assert verify.verdict == CERTIFIED  # Z <= -zeta/2 on the 10x finer grid
    _report(5, f"chain certified on the annulus; K={result.constants[0]}, "
               f"zeta={result.zeta:.4f} >= 0.009, combination holds on a "
               f"10x finer grid ({verify.grid_summary['x_nodes']} nodes)")


def test_criterion_6_simulation_decay_oracle(example2):
    # closed form: inside the unit square the field is dx = Ax with normal
    # A = [[-1, 1], [-1, -1]], so |x(t)| = e^-t |x0| exactly
    exact = math.exp(-5.0) * math.sqrt(0.5)
    errors = []
    for h in (1e-3, 5e-4):
        traj = integrate(example2, (0.5, 0.5), 0.0, h, 5.0,
                         SelectionStrategy("midpoint"))
        errors.append(abs(traj.final_norm - exact))
    assert errors[0] <= 5e-4
    assert errors[0] / errors[1] >= 1.8
    _report(6, f"final norm within {errors[0]:.2e} of e^-5*sqrt(0.5) "
               f"(<= 5e-4); halving h shrank the error {errors[0]/errors[1]:.1f}x "
               f"(>= 1.8x)")


def test_criterion_7_membership_of_difference_quotients(example2):
    traj = integrate(example2, (2.0, 0.0), 0.0, 1e-3, 10.0,
                     SelectionStrategy("midpoint"))
    scale = max(max_vertex_norm(eval_map(example2.inclusion, s.x, s.t))
                for s in traj.steps)
    report = check_reduction_membership(traj, example2, tol=1e-2 * scale)
    assert report.fraction <= 0.01
    _report(7, f"difference quotients stay in the reduced inclusion: "
               f"{report.violations}/{report.n_steps} violations "
               f"(fraction {report.fraction:.4f} <= 0.01, tol "
               f"{1e-2 * scale:.3f})")


def test_criterion_8_bilinear_and_reduction_oracles():
    rng = np.random.default_rng(814)
    worst_bilinear = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        p = _random_box(rng, n + 1)
        q = _random_box(rng, n)
        worst_bilinear = max(
            worst_bilinear,
            abs(bilinear_maxmax(p, q) - brute_maxmax(p, q)),
            abs(bilinear_minmax(p, q) - brute_minmax(p, q)))
    assert worst_bilinear <= 1e-6

    worst_reduction = 0.0
    for _ in range(1000):
        fbox, gbox = random_reduction_case(rng)
        reduced, _ = reduce_once(constant_map(fbox), constant_spec(gbox),
                                 (0.0,) * fbox.dims, 0.0)
        hull = reduction_oracle_hull(fbox, gbox, rng)
        dist = corner_distance(reduced, hull)
        assert dist <= 1e-6
        worst_reduction = max(worst_reduction, dist)
    _report(8, f"closed-form bilinear optima within {worst_bilinear:.2e} of "
               f"201-per-axis sampling; reduction within {worst_reduction:.2e} "
               f"in every endpoint of the sampling-acceptance oracle "
               f"(both <= 1e-6, 1000 cases each)")


def test_criterion_9_structural_properties(example1, example2, example3,
                                           example4, example5, example6):
    rng = np.random.default_rng(909)
    systems = (example1, example2, example3, example4, example5, example6)

    # containment of the reduced inclusion, everywhere probed
    for system in systems:
        lo, hi = system.domain.lo_corner(), system.domain.hi_corner()
        for _ in range(100):
            x = [float(rng.uniform(a, b)) for a, b in zip(lo, hi)]
            if rng.random() < 0.5:
                x[rng.integers(len(x))] = [-1.0, 0.0, 1.0][rng.integers(3)]
            t = float(rng.uniform(0.0, 5.0))
            reduced = reduce_collection(system.inclusion, system.reducers,
                                        x, t)
            assert intersect(eval_map(system.inclusion, x, t),
                             reduced) == reduced

    # enlarging the collection never increases the derivative
    pyramid = example6.matrosov.collections[1][0]
    probes = [tuple(rng.uniform(-2, 2, 2)) for _ in range(60)]
    probes += [(0.5, 0.5), (0.3, 0.3), (1.0, 0.0), (1.0, 1.0)]
    for x in probes:
        small = generalized_derivative(example6.candidate, example6.inclusion,
                                       example6.reducers, x, 0.5)
        large = generalized_derivative(example6.candidate, example6.inclusion,
                                       (*example6.reducers, pyramid), x, 0.5)
        if large is not None:
            assert small is not None
            assert large <= small + 1e-12

    # the candidate as the only reducer reproduces the common-value max
    for system in (example2, example3, example4):
        for _ in range(60):
            x = [float(v) for v in rng.uniform(-2, 2, 2)]
            if rng.random() < 0.5:
                x[rng.integers(2)] = [-1.0, 0.0, 1.0][rng.integers(3)]
            t = float(rng.uniform(0.0, 5.0))
            via = generalized_derivative(system.candidate, system.inclusion,
                                         (system.candidate,), x, t)
            direct = common_value_max(system.candidate, system.inclusion,
                                      x, t)
            assert (via is None) == (direct is None)
            if via is not None:
                assert via == direct

    # declared gradients validate at 20 deterministic probes per function
    cases = [
        (example1.reducers[0], PROBES_1D, KINK_RADIUS),
        (example2.reducers[0], PROBES_SQUARE_RAMP, KINK_RADIUS),
        (example6.matrosov.collections[1][0], PROBES_SQUARE_PYRAMID,
         KINK_RADIUS),
        (example2.candidate, PROBES_SMOOTH_2D, SMOOTH_RADIUS),
        (example4.candidate, PROBES_SMOOTH_2D, SMOOTH_RADIUS),
        (example6.matrosov.functions[1], PROBES_SMOOTH_2D, SMOOTH_RADIUS),
    ]
    validated = 0
    for f, probe_list, radius in cases:
        assert len(probe_list) == 20
        for x in probe_list:
            rep = validate_gradient(f, x, 1.0, radius=radius, samples=150)
            assert rep.passed, (f.name, x)
            validated += 1
    _report(9, f"containment, collection monotonicity, baseline equivalence "
               f"and {validated} gradient validations all hold")
