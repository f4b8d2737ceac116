import itertools
import json
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import incred.certify as certify
import incred.reduction as red
from incred.certify import (CERTIFIED, INCONCLUSIVE, VIOLATED,
                            build_matrosov_problem, matrosov_chain,
                            matrosov_constants, matrosov_derivative_bounds,
                            matrosov_grid, verify_combined_bound)
from incred.errors import SchemaError
from incred.fixtures import fixture_path, load_fixture
from incred.setmaps import system_from_dict


@pytest.fixture(scope="module")
def annulus_problem(request):
    system = load_fixture("example6")
    problem = build_matrosov_problem(system)
    z_nodes, x_nodes = matrosov_grid(problem, system)
    return system, problem, z_nodes, x_nodes


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


class TestGrid:
    def test_annulus_filter_and_radius_nodes(self, annulus_problem):
        system, problem, z_nodes, x_nodes = annulus_problem
        ann = problem.annulus()
        x_rows = list(map(tuple, x_nodes.tolist()))
        z_rows = list(map(tuple, z_nodes.tolist()))
        assert all(ann.contains(x) for x in x_rows)
        assert (0.1, 0.0) in x_rows and (-0.1, 0.0) in x_rows
        assert (2.0, 0.0) in x_rows
        assert all(abs(z[0]) <= 1.0 for z in z_rows)
        assert (0.0,) in z_rows and (1.0,) in z_rows

    @pytest.mark.parametrize("every_z", [True, False])
    def test_z_size_check_counts_the_injected_values(self, monkeypatch,
                                                      every_z):
        """``z_counts`` [2] * 15: 2^15 = 32,768 nodes by the counts, but
        each axis gains 0, so the z grid has 3^15 = 14,348,907 nodes."""
        system = system_from_dict(_matrosov_doc(["-x1*x1"], phi=("0",) * 15,
                                                z_counts=[2] * 15))
        problem = build_matrosov_problem(system)
        region_masks = certify._region_masks

        def no_z_walk(axes, region):
            assert len(axes) == system.n, "the z grid was walked"
            return region_masks(axes, region)

        monkeypatch.setattr(certify, "_region_masks", no_z_walk)
        message = (f"matrosov z nodes (z_counts {' x '.join(['2'] * 15)}): "
                   f"{3 ** 15} exceeds the limit of 10000000")
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            certify._matrosov_nodes(problem, system, every_z=every_z)

    @pytest.mark.parametrize("source, factor", [
        *((name, f) for name in ("example6", "example6_broken_y2")
          for f in (1, 3, 10)),
        ("m2", 1), ("m3", 3),
    ])
    def test_matches_the_product_reference(self, source, factor):
        if source == "m2":
            system = system_from_dict(_matrosov_doc(
                ["-x1*x1"], phi=("0", "x1"), z_counts=[4, 5]))
        elif source == "m3":
            system = system_from_dict(_matrosov_doc(
                ["-x1*x1"], phi=("0", "x1", "x2"), z_counts=[3, 4, 6]))
        else:
            system = load_fixture(source)
        problem = build_matrosov_problem(system)
        grid = system.grid.refined(factor)
        z_nodes, x_nodes = matrosov_grid(problem, system, grid)
        z_ref, x_ref = _reference_grid(problem, system, grid)
        for got, ref, width in ((z_nodes, z_ref, problem.m),
                                (x_nodes, x_ref, system.n)):
            assert got.shape == (len(ref), width)
            assert got.tobytes() == np.array(ref, dtype=float).tobytes()

    @pytest.mark.parametrize("gamma", [1.0, 0.1, 0.3, 2.5, 1e-300, 3e150])
    def test_z_axis_matches_the_set_reference(self, annulus_problem, gamma):
        """Each z axis is the sorted set of the linspace and (-g, 0, g),
        compared bit for bit, so also in which zero it keeps."""
        system, problem, _, _ = annulus_problem
        for count in range(1, 51):
            prob = replace(problem, gamma=gamma, z_counts=(count,))
            z_nodes, _ = matrosov_grid(prob, system)
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
        """Where no Y reads z, ``matrosov`` keeps the z count and the first
        z node only."""
        system = system_from_dict(_matrosov_doc(["-x1*x1"], phi=phi,
                                                gamma=gamma,
                                                z_counts=z_counts))
        problem = build_matrosov_problem(system)
        z_nodes, x_nodes = matrosov_grid(problem, system)
        z_kept, x_kept = certify._matrosov_nodes(problem, system,
                                                 every_z=False)
        assert z_kept.shape == z_nodes.shape
        assert z_kept[:1].tobytes() == z_nodes[:1].tobytes()
        assert x_kept.tobytes() == x_nodes.tobytes()

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
        zf, xf = matrosov_grid(problem, system, fine)
        cert = verify_combined_bound(problem, result.constants, result.zeta,
                                     zf, xf)
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
    return (problem, *matrosov_grid(problem, system))


class TestNonFiniteBounds:
    """A NaN Y value never counts as a pass."""

    def test_chain_fails_closed(self):
        problem, z_nodes, x_nodes = _problem([NAN_Y, "-x1*x1"])
        cert = matrosov_chain(problem, z_nodes, x_nodes)
        assert cert.verdict == VIOLATED
        assert cert.details["nonfinite_margins"] == len(x_nodes)
        assert cert.worst_margin is None

    def test_constants_fail_closed(self):
        problem, z_nodes, x_nodes = _problem([NAN_Y])
        auto = matrosov_constants(problem, z_nodes, x_nodes)
        assert auto.certificate.verdict != CERTIFIED
        fixed = matrosov_constants(problem, z_nodes, x_nodes,
                                   zeta_target=1e-3)
        assert fixed.certificate.verdict == VIOLATED
        assert fixed.certificate.details["nonfinite_margins"] == len(x_nodes)

    def test_combined_bound_fails_closed(self):
        problem, z_nodes, x_nodes = _problem([NAN_Y, "-x1*x1"])
        cert = verify_combined_bound(problem, (1.0,), 1e-3, z_nodes, x_nodes)
        assert cert.verdict == VIOLATED
        assert cert.details["nonfinite_margins"] == len(x_nodes)


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
    y = red._columns(prob.aux)(
        len(points), lambda rows: (dict(zip(names, points[rows].T)), False),
        lambda r: dict(zip(names, points[r].tolist())))
    return points, y


def _whole_table_bound(prob, constants, zeta, z_nodes, x_nodes):
    """``verify_combined_bound`` on the whole table, one margin array. An
    overflowing or NaN Z is counted, not warned."""
    M = prob.count
    points, y = _whole_table(prob, z_nodes, x_nodes)
    combined = y[M - 1]
    with np.errstate(all="ignore"):
        for k, yj in zip(constants, y):
            combined = combined + k * yj
    final_bound = -zeta / (2.0 ** (M - 1))
    margin = combined - final_bound
    counted = np.ones(margin.size, dtype=bool)
    violations = certify._violations(margin, counted, 0.0)
    return certify._margin_certificate(
        "matrosov-combined-bound", margin, counted, violations,
        lambda k: (points[k], 0.0), {"zeta": zeta},
        {"z_nodes": len(z_nodes), "x_nodes": len(x_nodes)},
        {"final_bound": final_bound, "combination_violations": violations})


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
    """verify_combined_bound, and the stream ``matrosov`` runs on a refined
    grid, give the whole-table certificate, witness bits included, or its
    error, whatever the chunk size: grids smaller than one chunk, (z, x)
    blocks and grid runs split across chunks, NaN, infinite and raising
    rows, and ties for the worst margin across chunks."""
    doc, factor, chunk, constants, zeta = case
    system = system_from_dict(doc)
    problem = build_matrosov_problem(system)
    grid = system.grid.refined(factor)
    z_ref, x_ref = _reference_grid(problem, system, grid)
    saved, red._CHUNK = red._CHUNK, chunk
    try:
        expected = _outcome(_whole_table_bound, problem, constants, zeta,
                            z_ref, x_ref)
        public = _outcome(verify_combined_bound, problem, constants, zeta,
                          z_ref, x_ref)
        z_nodes = certify._matrosov_nodes(problem, system, grid,
                                          every_z=False)[0]
        streamed = _outcome(certify.verify_bound_on_grid, problem, system,
                            constants, zeta, z_nodes, grid)
        table = _outcome(certify._aux_table, problem, z_ref, x_ref)
        whole = _outcome(_whole_table, problem, z_ref, x_ref)
    finally:
        red._CHUNK = saved
    assert _key(public) == _key(expected)
    assert _key(streamed) == _key(expected)
    if isinstance(whole[0], type):  # an error
        assert table == whole
    else:
        for got, ref in zip(table, whole):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_a_tie_across_chunks_keeps_the_earlier_row(monkeypatch):
    system = system_from_dict(_matrosov_doc(["-1"]))
    problem = build_matrosov_problem(system)
    z_nodes, x_nodes = matrosov_grid(problem, system)
    monkeypatch.setattr(red, "_CHUNK", 5)
    cert = verify_combined_bound(problem, (), 1.0, z_nodes, x_nodes)
    assert cert.worst_margin == 0.0
    assert cert.worst_point == tuple(z_nodes[0]) + tuple(x_nodes[0])


def test_the_fine_grid_is_never_built():
    """The verification ``matrosov`` runs streams the refined grid: its
    allocations stay far below one fine (z, x) table at factor 10."""
    system = load_fixture("example6")
    problem = build_matrosov_problem(system)
    z_nodes, x_nodes = certify._matrosov_nodes(problem, system,
                                               every_z=False)
    result = matrosov_constants(problem, z_nodes, x_nodes)
    fine = system.grid.refined(10)
    tracemalloc.start()
    try:
        cert = certify.verify_bound_on_grid(
            problem, system, result.constants, result.zeta, z_nodes, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = cert.grid_summary["x_nodes"]
    assert cert.verdict == CERTIFIED and rows > 100_000
    assert peak < rows * 8  # one float column of the table is rows * 8
