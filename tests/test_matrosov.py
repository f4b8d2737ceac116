import itertools
import json
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import incred.certify as certify
import incred.grids as grids
import incred.reduction as red
from incred.certify import (CERTIFIED, INCONCLUSIVE, VIOLATED, Certificate,
                            build_matrosov_problem, matrosov_chain,
                            matrosov_constants, matrosov_derivative_bounds,
                            matrosov_grid, verify_combined_bound)
from incred.errors import SchemaError
from incred.fixtures import fixture_path, load_fixture
from incred.setmaps import system_from_dict

from scans import row_table, scan, stacked


@pytest.fixture(scope="module")
def annulus_problem(request):
    system = load_fixture("example6")
    problem = build_matrosov_problem(system)
    z_nodes, x_nodes = matrosov_grid(problem, system)
    return system, problem, z_nodes, x_nodes


# a Y that reads z without changing its values
Y_READS_Z = "-x1*x1 + 0*z1"


def _matrosov_doc(y_exprs, delta=0.1, big=2.0, gamma=1.0, phi=("0",),
                  z_counts=None):
    with open(fixture_path("example6"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    block = doc["matrosov"]
    block["Y"] = list(y_exprs)
    block["delta"] = delta
    block["Delta"] = big
    block["gamma"] = gamma
    block["phi"] = list(phi)
    block["W"] = block["W"][:1] * len(y_exprs)
    if z_counts is not None:
        block["z_counts"] = z_counts
    elif len(phi) != 1:
        block["z_counts"] = [3] * len(phi)
    return doc


def _reference_grid(problem, system, grid):
    """``matrosov_grid`` as lists of tuples: ``itertools.product`` of the
    axes, filtered point by point with the scalar squared-norm test."""
    def inside(p, inner, outer):
        sq = 0.0
        for v in p:
            sq += v * v
        return inner * inner <= sq <= outer * outer

    extra = tuple((problem.delta, -problem.delta, problem.big_delta,
                   -problem.big_delta, 0.0) for _ in range(system.n))
    x_nodes = [x for x in itertools.product(
        *grid.axis_nodes(system.domain, extra))
        if inside(x, problem.delta, problem.big_delta)]
    g = problem.gamma
    z_axes = []
    for count in problem.z_counts:
        vals = {float(v) for v in np.linspace(-g, g, count)}
        vals.update((-g, 0.0, g))
        z_axes.append(sorted(vals))
    z_nodes = [z for z in itertools.product(*z_axes) if inside(z, 0.0, g)]
    return z_nodes, x_nodes


def _fixture_reading_z(name):
    """A fixture whose every Y also reads z1, with unchanged values."""
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["matrosov"]["Y"] = [f"{y} + 0*z1" for y in doc["matrosov"]["Y"]]
    return system_from_dict(doc)


class TestGrid:
    def test_annulus_filter_and_radius_nodes(self):
        """example6 with Y reading z, so the whole z grid is built."""
        system = _fixture_reading_z("example6")
        problem = build_matrosov_problem(system)
        z_nodes, x_nodes = matrosov_grid(problem, system)
        ann = problem.annulus()
        x_rows = list(map(tuple, stacked(x_nodes, system.n).tolist()))
        z_rows = list(map(tuple, stacked(z_nodes, problem.m).tolist()))
        assert all(ann.contains(x) for x in x_rows)
        assert (0.1, 0.0) in x_rows and (-0.1, 0.0) in x_rows
        assert (2.0, 0.0) in x_rows
        assert all(abs(z[0]) <= 1.0 for z in z_rows)
        assert (0.0,) in z_rows and (1.0,) in z_rows

    @pytest.mark.parametrize("reads_z", [True, False])
    def test_z_size_check_counts_the_injected_values(self, monkeypatch,
                                                      reads_z):
        """``z_counts`` [2] * 15: 2^15 = 32,768 nodes by the counts, but
        each axis gains 0, so the z grid has 3^15 = 14,348,907 nodes."""
        y = Y_READS_Z if reads_z else "-x1*x1"
        system = system_from_dict(_matrosov_doc([y], phi=("0",) * 15,
                                                z_counts=[2] * 15))
        problem = build_matrosov_problem(system)
        region_masks = grids._region_masks

        def no_z_walk(axes, region):
            assert len(axes) == system.n, "the z grid was walked"
            return region_masks(axes, region)

        monkeypatch.setattr(grids, "_region_masks", no_z_walk)
        message = (f"matrosov z nodes (z_counts {' x '.join(['2'] * 15)}): "
                   f"{3 ** 15} exceeds the limit of 10000000")
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            matrosov_grid(problem, system)

    @pytest.mark.parametrize("source, factor", [
        *((name, f) for name in ("example6", "example6_broken_y2")
          for f in (1, 3, 10)),
        ("m2", 1), ("m3", 3),
    ])
    def test_matches_the_product_reference(self, source, factor):
        """Every Y reads z, so the whole z grid is built."""
        if source == "m2":
            system = system_from_dict(_matrosov_doc(
                [Y_READS_Z], phi=("0", "x1"), z_counts=[4, 5]))
        elif source == "m3":
            system = system_from_dict(_matrosov_doc(
                [Y_READS_Z], phi=("0", "x1", "x2"), z_counts=[3, 4, 6]))
        else:
            system = _fixture_reading_z(source)
        problem = build_matrosov_problem(system)
        grid = system.grid.refined(factor)
        z_nodes, x_nodes = matrosov_grid(problem,
                                         replace(system, grid=grid))
        z_ref, x_ref = _reference_grid(problem, system, grid)
        for got, ref, width in ((z_nodes, z_ref, problem.m),
                                (x_nodes, x_ref, system.n)):
            got = stacked(got, width)
            assert got.shape == (len(ref), width)
            assert got.tobytes() == np.array(ref, dtype=float).tobytes()

    @pytest.mark.parametrize("gamma", [1.0, 0.1, 0.3, 2.5, 1e-300, 3e150])
    def test_z_axis_matches_the_set_reference(self, gamma):
        """Each z axis is the sorted set of the linspace and (-g, 0, g),
        compared bit for bit, so also in which zero it keeps (Y reads z,
        so the whole axis is built)."""
        system = system_from_dict(_matrosov_doc([Y_READS_Z]))
        problem = build_matrosov_problem(system)
        for count in range(1, 51):
            prob = replace(problem, gamma=gamma, z_counts=(count,))
            z_nodes = stacked(matrosov_grid(prob, system)[0], 1)
            vals = {float(v) for v in np.linspace(-gamma, gamma, count)}
            vals.update((-gamma, 0.0, gamma))
            assert z_nodes.shape == (len(vals), 1)
            assert z_nodes.tobytes() == np.array(sorted(vals)).tobytes()

    @pytest.mark.parametrize("phi, z_counts, gamma", [
        (("0",), [5], 1.0), (("0",), [2], 0.3), (("0",), [50], 3e150),
        (("0",), [8], 1e-300), (("0",), [5], 5e-324),
        (("0", "x1"), [4, 5], 1.0),
        (("0", "x1"), [2, 2], 2.5), (("0", "x1", "x2"), [3, 4, 6], 0.1),
    ])
    def test_z_count_and_first_node_match_the_full_grid(self, phi, z_counts,
                                                        gamma):
        """Where no Y reads z, the checks read the z count and the first z
        node only."""
        system = system_from_dict(_matrosov_doc(["-x1*x1"], phi=phi,
                                                gamma=gamma,
                                                z_counts=z_counts))
        problem = build_matrosov_problem(system)
        z_ref, x_ref = _reference_grid(problem, system, system.grid)
        z_kept, x_kept = matrosov_grid(problem, system)
        assert z_kept[1] == len(z_ref)
        assert stacked(z_kept, problem.m)[:1].tobytes() == np.array(
            z_ref[:1]).tobytes()
        assert stacked(x_kept, system.n).tobytes() == np.array(
            x_ref, dtype=float).tobytes()

    def test_inverted_radii_rejected(self):
        with pytest.raises(SchemaError):
            system_from_dict(_matrosov_doc(["-x1*x1"], delta=2.0, big=0.1))

    def test_annulus_must_fit_the_domain(self):
        system = system_from_dict(_matrosov_doc(["-x1*x1"], big=3.0))
        with pytest.raises(SchemaError):
            build_matrosov_problem(system)


class TestChain:
    def test_paired_bounds_certify(self, annulus_problem):
        _, problem, z_nodes, x_nodes = annulus_problem
        cert = matrosov_chain(problem, z_nodes, x_nodes)
        assert cert.verdict == CERTIFIED
        # the full chain never triggers on the annulus
        assert cert.details["trigger_counts"][2] == 0

    def test_single_strictly_negative_bound(self):
        system = system_from_dict(_matrosov_doc(["-1"]))
        problem = build_matrosov_problem(system)
        z_nodes, x_nodes = matrosov_grid(problem, system)
        cert = matrosov_chain(problem, z_nodes, x_nodes)
        assert cert.verdict == CERTIFIED

    def test_positive_second_bound_is_caught(self):
        system = load_fixture("example6_broken_y2")
        problem = build_matrosov_problem(system)
        z_nodes, x_nodes = matrosov_grid(problem, system)
        cert = matrosov_chain(problem, z_nodes, x_nodes)
        assert cert.verdict == VIOLATED
        # witness: a trigger node with x2 ~ 0 where x1^2 > 0
        z_and_x = cert.worst_point
        assert abs(z_and_x[-1]) <= 1e-3
        assert abs(z_and_x[-2]) >= 0.1


class TestConstants:
    def test_doubling_search_on_the_worked_system(self, annulus_problem):
        _, problem, z_nodes, x_nodes = annulus_problem
        result = matrosov_constants(problem, z_nodes, x_nodes)
        assert result.certificate.verdict == CERTIFIED
        assert len(result.constants) == 1
        assert 1.0 <= result.constants[0] <= 2.0 ** 20
        assert result.zeta >= 0.009
        assert result.epsilon_estimate == pytest.approx(0.01, rel=1e-2)

    def test_constants_hold_on_a_finer_grid(self, annulus_problem):
        system, problem, z_nodes, x_nodes = annulus_problem
        result = matrosov_constants(problem, z_nodes, x_nodes)
        fine = system.grid.refined(10)
        zf, _ = matrosov_grid(problem, replace(system, grid=fine))
        cert = verify_combined_bound(problem, system, result.constants,
                                     result.zeta, zf, fine)
        assert cert.verdict == CERTIFIED

    def test_single_function_needs_no_constants(self):
        system = system_from_dict(_matrosov_doc(["-1"]))
        problem = build_matrosov_problem(system)
        z_nodes, x_nodes = matrosov_grid(problem, system)
        result = matrosov_constants(problem, z_nodes, x_nodes)
        assert result.constants == ()
        assert result.zeta == pytest.approx(1.0)
        assert result.certificate.verdict == CERTIFIED

    def test_barely_negative_bound_hits_the_cap(self):
        # the final bound is only ~1e-9 * x1^2 on the trigger set, so no
        # finite constant can reach a meaningful decay target
        system = system_from_dict(
            _matrosov_doc(["-2*x2*x2", "-0.000000001*x1*x1"]))
        problem = build_matrosov_problem(system)
        z_nodes, x_nodes = matrosov_grid(problem, system)
        result = matrosov_constants(problem, z_nodes, x_nodes,
                                    zeta_target=1e-3)
        assert result.certificate.verdict == INCONCLUSIVE
        assert "cap" in result.certificate.details["reason"]
        # with the self-estimated decay level it still certifies
        auto = matrosov_constants(problem, z_nodes, x_nodes)
        assert auto.certificate.verdict == CERTIFIED
        assert auto.zeta <= 1e-10

    def test_three_level_nested_chain(self):
        # z-dependent first bound exercises the nested doubling loop
        doc = _matrosov_doc(["-z1*z1", "-x2*x2", "-x1*x1"])
        system = system_from_dict(doc)
        problem = build_matrosov_problem(system)
        z_nodes, x_nodes = matrosov_grid(problem, system)
        chain = matrosov_chain(problem, z_nodes, x_nodes)
        assert chain.verdict == CERTIFIED
        result = matrosov_constants(problem, z_nodes, x_nodes)
        assert result.certificate.verdict == CERTIFIED
        assert len(result.constants) == 2


# inf - inf: every Y_1 value is NaN, at x1 = 0 too (inf * 0)
NAN_Y = "(1e308*10)*x1 - (1e308*10)*x1"


def _problem(y_exprs):
    system = system_from_dict(_matrosov_doc(y_exprs))
    problem = build_matrosov_problem(system)
    return (system, problem, *matrosov_grid(problem, system))


class TestNonFiniteBounds:
    """A NaN Y value never counts as a pass."""

    def test_chain_fails_closed(self):
        _, problem, z_nodes, x_nodes = _problem([NAN_Y, "-x1*x1"])
        cert = matrosov_chain(problem, z_nodes, x_nodes)
        assert cert.verdict == VIOLATED
        assert cert.details["nonfinite_margins"] == x_nodes[1]
        assert cert.worst_margin is None

    def test_constants_fail_closed(self):
        _, problem, z_nodes, x_nodes = _problem([NAN_Y])
        auto = matrosov_constants(problem, z_nodes, x_nodes)
        assert auto.certificate.verdict != CERTIFIED
        fixed = matrosov_constants(problem, z_nodes, x_nodes,
                                   zeta_target=1e-3)
        assert fixed.certificate.verdict == VIOLATED
        assert fixed.certificate.details["nonfinite_margins"] == x_nodes[1]

    def test_combined_bound_fails_closed(self):
        system, problem, z_nodes, x_nodes = _problem([NAN_Y, "-x1*x1"])
        cert = verify_combined_bound(problem, system, (1.0,), 1e-3, z_nodes,
                                     system.grid)
        assert cert.verdict == VIOLATED
        assert cert.details["nonfinite_margins"] == x_nodes[1]


class TestDerivativeBounds:
    def test_screen_localizes_the_two_mismatch_points(self, annulus_problem):
        # the second comparison function's declared bound fails exactly at
        # (+/-1, 0): the reduction by the pyramid has the nonempty value
        # {0} x (-/+1 + [-1/2, 1/2]) there, giving derivative -1/2 > -1
        system, problem, _, _ = annulus_problem
        cert = matrosov_derivative_bounds(system, problem)
        assert cert.verdict == VIOLATED
        assert cert.details["violations_per_function"][0] == 0
        per_point = cert.details["violations_per_function"][1]
        assert per_point == 2 * len(system.grid.time_nodes)
        assert abs(cert.worst_point[0]) == 1.0 and cert.worst_point[1] == 0.0
        assert cert.worst_margin == pytest.approx(0.5, abs=1e-12)

    def test_first_function_bound_holds(self, annulus_problem):
        system, problem, _, _ = annulus_problem
        cert = matrosov_derivative_bounds(system, problem)
        assert cert.details["violations_per_function"][0] == 0


# --- the streamed verification against the whole-table path ---------------

def _whole_table(prob, z_nodes, x_nodes):
    """The (z, x) rows as one ``(R, m + n)`` array and Y there as ``(M, R)``:
    the whole-table construction the chunked rows replaced."""
    z = np.asarray(z_nodes if prob.aux_uses_z() else z_nodes[:1],
                   dtype=float).reshape(-1, prob.m)
    x = np.asarray(x_nodes, dtype=float)
    points = np.hstack([np.tile(z, (len(x), 1)),
                        np.repeat(x, len(z), axis=0)])
    names = ([f"z{i+1}" for i in range(prob.m)]
             + [f"x{i+1}" for i in range(x.shape[1])])
    job = red._expression_job([(y, None) for y in prob.aux], names)
    return points, np.concatenate(scan([job], points, [0.0])[0])


def _whole_table_bound(prob, constants, zeta, z_nodes, x_nodes):
    """``verify_combined_bound`` on the whole table, one margin array, Z
    summed as ``matrosov_constants`` sums it: K_1 Y_1 + (K_2 Y_2 + (... +
    Y_M)). An overflowing or NaN Z is counted, not warned."""
    M = prob.count
    points, y = _whole_table(prob, z_nodes, x_nodes)
    combined = y[M - 1]
    with np.errstate(all="ignore"):
        for k, yj in reversed(list(zip(constants, y))):
            combined = k * yj + combined
    final_bound = -zeta / (2.0 ** (M - 1))
    margin = combined - final_bound
    return certify._margin_certificate(
        "matrosov-combined-bound", certify._Verdict(0.0).add(
            margin, np.ones(margin.size, dtype=bool),
            lambda k: (k, points[k], 0.0)), {"zeta": zeta},
        {"z_nodes": len(z_nodes), "x_nodes": len(x_nodes)},
        {"final_bound": final_bound}, count="combination_violations")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # compared with the reference's own error
        return type(e), str(e)


def _key(outcome):
    """A certificate's dict with its witness as bits, or an error."""
    if isinstance(outcome, tuple):
        return outcome
    d = outcome.to_dict()
    d["worst_point"] = [struct.pack("d", v) for v in d["worst_point"] or ()]
    d["worst_margin"] = struct.pack("d", d["worst_margin"] or 0.0)
    return d


# NaN where |x1| >= 0.9 (inf - inf); +-inf there; a near-zero denominator
# (an error) at every node with x1 == 0 or x2 == 0, in many chunks
Y_HAZARDS = ("1e308*x1*2 - 1e308*x1*2", "1e308*x1*2", "1/(x1*x2)",
             "-1/(x1 - 0.5)")
Y_PLAIN = ("-1", "-x1*x1 - x2*x2", "-2*x2*x2", "0.25 - x1*x1")


@st.composite
def combined_cases(draw):
    """A Matrosov block on example6 with drawn Y, z grid, state grid,
    refinement and chunk size, and the constants and zeta to verify."""
    m = draw(st.sampled_from([1, 2]))
    z_reads = [f"-z{i+1}*z{i+1}" for i in range(m)] + ["x1*z1 - 1"]
    pool = Y_PLAIN + Y_HAZARDS + tuple(z_reads)
    y = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    doc = _matrosov_doc(y, phi=("0", "x1")[:m],
                        z_counts=draw(st.lists(st.integers(2, 5),
                                               min_size=m, max_size=m)))
    doc["grid"]["counts"] = [draw(st.integers(2, 6))] * 2
    constants = tuple(draw(st.sampled_from([0.5, 1.0, 3.0, 1e308]))
                      for _ in range(len(y) - 1))
    return (doc, draw(st.sampled_from([1, 2, 3])),
            draw(st.sampled_from([2, 3, 5, 7, 64, 4096])), constants,
            draw(st.sampled_from([1e-3, 0.5, 4.0])))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=combined_cases())
def test_streamed_verification_equals_the_whole_table(case):
    """verify_combined_bound on a refined grid, with the reference's z
    nodes and with those ``matrosov`` runs it on, gives the whole-table
    certificate, witness bits included, or its error, whatever the chunk
    size: grids smaller than one chunk, (z, x) blocks and grid runs split
    across chunks, NaN, infinite and raising rows, and ties for the worst
    margin across chunks."""
    doc, factor, chunk, constants, zeta = case
    system = system_from_dict(doc)
    problem = build_matrosov_problem(system)
    grid = system.grid.refined(factor)
    z_ref, x_ref = _reference_grid(problem, system, grid)
    saved, grids._CHUNK = grids._CHUNK, chunk
    try:
        expected = _outcome(_whole_table_bound, problem, constants, zeta,
                            z_ref, x_ref)
        public = _outcome(verify_combined_bound, problem, system, constants,
                          zeta, grids._rows(np.array(z_ref)), grid)
        z_nodes = matrosov_grid(problem, replace(system, grid=grid))[0]
        streamed = _outcome(verify_combined_bound, problem, system,
                            constants, zeta, z_nodes, grid)
        table = _outcome(row_table, problem, z_ref, x_ref)
        whole = _outcome(_whole_table, problem, z_ref, x_ref)
    finally:
        grids._CHUNK = saved
    assert _key(public) == _key(expected)
    assert _key(streamed) == _key(expected)
    if isinstance(whole[0], type):  # an error
        assert table == whole
    else:
        for got, ref in zip(table, whole):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


# --- the streamed chain and constants against the whole table -------------

def _whole_table_triggers(y, eq_tol):
    small = np.abs(y) <= certify._number(eq_tol, "eq_tol")
    return np.vstack([np.ones((1, y.shape[1]), dtype=bool),
                      np.logical_and.accumulate(small, axis=0)])


def _whole_table_chain(prob, z_nodes, x_nodes, eq_tol):
    """``matrosov_chain`` on the whole table: one margin array keyed
    ``row * (M + 1) + j``, row outer."""
    points, y = _whole_table(prob, z_nodes, x_nodes)
    trig = _whole_table_triggers(y, eq_tol)
    nxt = np.vstack([y, np.ones((1, y.shape[1]))])
    width = len(trig)
    return certify._margin_certificate(
        "matrosov-chain", certify._Verdict(0.0).add(
            (nxt - eq_tol).T.ravel(), trig.T.ravel(),
            lambda k: (k, points[k // width], float(k % width))),
        {"eq_tol": eq_tol}, {"z_nodes": len(z_nodes), "x_nodes": len(x_nodes)},
        {"note": certify._GRID_NOTE + "; worst_t is the chain index j, "
         "worst_point is (z, x)",
         "trigger_counts": trig.sum(axis=1).tolist(),
         "aux_uses_z": prob.aux_uses_z()})


@np.errstate(all="ignore")  # overflowing tries are compared, not warned
def _whole_table_constants(prob, z_nodes, x_nodes, zeta_target, eq_tol):
    """``matrosov_constants`` on the whole table: epsilon from one
    ``np.argmax``, and each constant doubled from 1 until every trigger
    row meets the budget, or the cap."""
    certify._check_zeta_target(zeta_target)
    M = prob.count
    points, y = _whole_table(prob, z_nodes, x_nodes)
    trig = _whole_table_triggers(y, eq_tol)
    summary = {"z_nodes": len(z_nodes), "x_nodes": len(x_nodes)}
    tolerances = {"eq_tol": eq_tol, "cap": certify._CONSTANT_CAP}

    def inconclusive(reason, diagnostics):
        return certify.MatrosovConstantsResult((), None, None, Certificate(
            INCONCLUSIVE, "matrosov-constants", None, None, None, tolerances,
            summary, {"reason": reason, **diagnostics}))

    last = y[M - 1, trig[M - 1]]
    epsilon = -float(last[np.argmax(last)]) if last.size else None
    if zeta_target is not None:
        zeta = float(zeta_target)
    elif epsilon is None:
        return inconclusive(
            "no node triggers the full chain; supply zeta_target", {})
    elif not epsilon > 0.0:
        return inconclusive("triggered nodes do not leave a negative gap "
                            "(is the chain certificate CERTIFIED?)",
                            {"epsilon_estimate": epsilon})
    else:
        zeta = epsilon
    running, budget, constants = y[M - 1], zeta, []
    for level in range(M, 1, -1):
        budget /= 2.0
        on, yl, k = trig[level - 2], y[level - 2], 1.0
        while not np.all(k * yl[on] + running[on] <= -budget):
            k *= 2.0
            if k > certify._CONSTANT_CAP:
                worst = np.flatnonzero(on)[np.argmax(yl[on] + running[on])]
                return inconclusive(
                    f"doubling search exceeded the cap at level {level}",
                    {"level": level, "budget": budget,
                     "worst_point": points[worst].tolist(),
                     "epsilon_estimate": epsilon, "zeta": zeta})
        constants.insert(0, k)
        running = k * yl + running
    final_bound = -zeta / (2.0 ** (M - 1))
    cert = certify._margin_certificate(
        "matrosov-constants", certify._Verdict(0.0).add(
            running - final_bound, np.ones(len(running), bool),
            lambda k: (k, points[k], 0.0)), tolerances, summary,
        {"note": certify._GRID_NOTE + "; worst_point is (z, x), margin is "
         "Z - (-zeta / 2^(M-1))", "epsilon_estimate": epsilon,
         "final_bound": final_bound}, count="combination_violations")
    return certify.MatrosovConstantsResult(tuple(constants), zeta, epsilon,
                                           cert)


def _as_bits(outcome):
    """A result's dict with every float as its bits, or an error."""
    if isinstance(outcome, tuple):
        return outcome
    def bits(v):
        if isinstance(v, dict):
            return {k: bits(w) for k, w in v.items()}
        if isinstance(v, (list, tuple)):
            return [bits(w) for w in v]
        return struct.pack("d", v) if isinstance(v, float) else v
    return bits(outcome.to_dict())


# Y that trigger the chain where x2 or x1 is 0, a bound too weak for any
# constant below the cap, and NaN only where x1 >= 0.9, after finite rows
Y_LATE_NAN = "1e308*max(x1, 0)*2 - 1e308*max(x1, 0)*2"
Y_CHAIN = ("-x2*x2", "-x1*x1", "-x1*x1 - x2*x1 + 2*x2*x2",
           "-0.000000001*x1*x1", "0*x1", Y_LATE_NAN)


def _chain_doc(y, counts=3, m=1, z_counts=(3,)):
    doc = _matrosov_doc(y, phi=("0", "x1")[:m], z_counts=list(z_counts))
    doc["grid"]["counts"] = [counts] * 2
    return doc


@st.composite
def chain_cases(draw):
    """A Matrosov block on example6 with drawn Y, z grid and state grid,
    a chunk size (7 puts equal chain margins at falling offsets in
    successive chunks), eq_tol and zeta_target."""
    m = draw(st.sampled_from([1, 2]))
    y = draw(st.lists(st.sampled_from(Y_PLAIN + Y_HAZARDS + Y_CHAIN),
                      min_size=1, max_size=3))
    if draw(st.booleans()):  # one Y reads z
        y[draw(st.integers(0, len(y) - 1))] = draw(st.sampled_from(
            ["-z1*z1", "x1*z1 - 1", f"-z{m}*z{m} - x2*x2"]))
    doc = _chain_doc(y, draw(st.integers(2, 4)), m,
                     draw(st.lists(st.integers(2, 3), min_size=m,
                                   max_size=m)))
    return (doc, draw(st.sampled_from([1, 3, 7, 4096])),
            draw(st.sampled_from([1e-6, 0.01, 0.5])),
            draw(st.sampled_from([None, 1e-3, 0.5])))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=chain_cases())
@example(case=(_chain_doc(["-2*x2*x2", "-0.000000001*x1*x1"]), 3, 1e-6,
               1e-3))  # the cap
@example(case=(_chain_doc(["-1", "-x1*x1"]), 1, 1e-6, None))  # no trigger
@example(case=(_chain_doc([NAN_Y, "-x1*x1"]), 3, 1e-6, 0.5))  # NaN
@example(case=(_chain_doc(["-x2*x2", Y_LATE_NAN]), 3, 1e-6, None))
@example(case=(_chain_doc(["-x2*x2", Y_LATE_NAN]), 4096, 1e-6, 0.5))
@example(case=(_chain_doc(["-x2*x2", "1e308*x1*2", "-x1*x1"]), 4096, 0.5,
               None))  # +-inf
@example(case=(_chain_doc(["-z1*z1", "-x2*x2", "-x1*x1"], 4), 1, 1e-6,
               None))  # z read, three levels
@example(case=(_chain_doc(["-z1*z1"], 2), 7, 1e-6, None))  # ties by chunk
def test_streamed_chain_and_constants_equal_the_whole_table(case):
    """matrosov_chain and matrosov_constants on the node sets of
    ``matrosov_grid`` give the whole-table certificates, constants, zeta
    and epsilon, witnesses as bits, or its error, at any chunk size:
    NaN, infinite and raising Y, the cap failure, no full-chain trigger,
    and Y that read z. A NaN after finite rows is still the first maximum
    that epsilon and the cap failure's worst point read."""
    doc, chunk, eq_tol, zeta_target = case
    system = system_from_dict(doc)
    problem = build_matrosov_problem(system)
    z_ref, x_ref = _reference_grid(problem, system, system.grid)
    saved, grids._CHUNK = grids._CHUNK, chunk
    try:
        z_nodes, x_nodes = matrosov_grid(problem, system)
        chain = _outcome(matrosov_chain, problem, z_nodes, x_nodes, eq_tol)
        constants = _outcome(lambda: matrosov_constants(
            problem, z_nodes, x_nodes, zeta_target=zeta_target,
            eq_tol=eq_tol))
    finally:
        grids._CHUNK = saved
    assert _as_bits(chain) == _as_bits(_outcome(
        _whole_table_chain, problem, z_ref, x_ref, eq_tol))
    assert _as_bits(constants) == _as_bits(_outcome(
        _whole_table_constants, problem, z_ref, x_ref, zeta_target, eq_tol))


def test_verification_sums_z_as_the_constants_do():
    """M = 3: on the constants' own grid, the verification's Z is summed
    K_1 Y_1 + (K_2 Y_2 + Y_3) as the constants' search sums it, so its
    count, witness and margin bits are the constants certificate's. Here
    ((Y_3 + K_1 Y_1) + K_2 Y_2) differs in the last bit at the witness."""
    system = system_from_dict(_matrosov_doc(
        ["-0.1*(x1*x1 + x2*x2)", "-0.1*x1*x1 - 0.3", "-0.7 - 0.1*x2*x2"]))
    problem = build_matrosov_problem(system)
    z_nodes, x_nodes = matrosov_grid(problem, system)
    result = matrosov_constants(problem, z_nodes, x_nodes, zeta_target=0.5)
    assert result.constants == (1.0, 1.0)
    verify = verify_combined_bound(problem, system, result.constants,
                                   result.zeta, z_nodes,
                                   system.grid.refined(1))
    for key in ("combination_violations", "final_bound"):
        assert verify.details[key] == result.certificate.details[key]
    assert verify.worst_point == result.certificate.worst_point
    assert struct.pack("d", verify.worst_margin) == struct.pack(
        "d", result.certificate.worst_margin)


def test_a_tie_across_chunks_keeps_the_earlier_row(monkeypatch):
    system = system_from_dict(_matrosov_doc(["-1"]))
    problem = build_matrosov_problem(system)
    z_nodes, x_nodes = matrosov_grid(problem, system)
    monkeypatch.setattr(grids, "_CHUNK", 5)
    cert = verify_combined_bound(problem, system, (), 1.0, z_nodes,
                                 system.grid)
    assert cert.worst_margin == 0.0
    assert cert.worst_point == tuple(stacked(z_nodes, 1)[0]) + tuple(
        stacked(x_nodes, system.n)[0])


def test_the_fine_grid_is_never_built():
    """The verification ``matrosov`` runs streams the refined grid: its
    allocations stay far below one fine (z, x) table at factor 10."""
    system = load_fixture("example6")
    problem = build_matrosov_problem(system)
    z_nodes, x_nodes = matrosov_grid(problem, system)
    result = matrosov_constants(problem, z_nodes, x_nodes)
    fine = system.grid.refined(10)
    tracemalloc.start()
    try:
        cert = verify_combined_bound(
            problem, system, result.constants, result.zeta, z_nodes, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = cert.grid_summary["x_nodes"]
    assert cert.verdict == CERTIFIED and rows > 100_000
    assert peak < rows * 8  # one float column of the table is rows * 8
