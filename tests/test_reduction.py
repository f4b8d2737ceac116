import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incred.expr as ex
import incred.reduction as red
from incred.derivative import scan_derivative
from incred.errors import DimensionMismatchError, DslEvalError, SchemaError
from incred.fixtures import fixture_path
from incred.intervals import Interval, IntervalBox
from incred.reduction import reduce_collection, reduce_once, tabulate_reduction
from incred.setmaps import (Piece, PiecewiseBoxMap, RegularFunctionSpec,
                            eval_map, system_from_dict)


def constant_map(box: IntervalBox) -> PiecewiseBoxMap:
    """A map with a single otherwise piece equal to the given box."""
    values = tuple(ex.IntervalSet(ex.Num(iv.lo), ex.Num(iv.hi))
                   for iv in box.axes)
    return PiecewiseBoxMap(box.dims, box.dims,
                           [Piece(ex.TrueGuard(), values)])


def constant_spec(grad_box: IntervalBox, name="u", regular=True,
                  n=None) -> RegularFunctionSpec:
    n = grad_box.dims - 1 if n is None else n
    values = tuple(ex.IntervalSet(ex.Num(iv.lo), ex.Num(iv.hi))
                   for iv in grad_box.axes)
    grad = PiecewiseBoxMap(n, n + 1, [Piece(ex.TrueGuard(), values)])
    return RegularFunctionSpec(name, n, ex.Num(0.0), grad, regular)


def box(*bounds):
    return IntervalBox(Interval(lo, hi) for lo, hi in bounds)


def corner_distance(a: IntervalBox, b: IntervalBox) -> float:
    """Largest endpoint difference of two boxes; inf when exactly one is
    empty, 0.0 when both are."""
    if a.is_empty or b.is_empty:
        return 0.0 if a.is_empty and b.is_empty else math.inf
    return max(abs(u - v) for u, v in zip(a.lo_corner() + a.hi_corner(),
                                          b.lo_corner() + b.hi_corner()))


class TestReduceOnce:
    def test_example1_pinch_on_switch(self, example1):
        rv = reduce_once(example1.inclusion, example1.reducers[0], (1.0,), 0.0)
        assert rv.base == box((-2, 5))
        assert rv.result == box((0, 0))
        assert rv.constrained_axes == {1}
        assert not rv.time_obstruction

    def test_example1_empty_at_origin(self, example1):
        rv = reduce_once(example1.inclusion, example1.reducers[0], (0.0,), 0.0)
        assert rv.base == box((-2, -2))
        assert rv.result.is_empty
        assert rv.constrained_axes == {1}

    def test_singleton_gradient_leaves_inclusion_unchanged(self, example2):
        smooth = example2.candidate  # gradient is a singleton everywhere
        rv = reduce_once(example2.inclusion, smooth, (1.0, 1.0), 0.0)
        assert rv.result == rv.base
        assert rv.constrained_axes == set()

    def test_example3_edge_value(self, example3):
        rv = reduce_once(example3.inclusion, example3.reducers[0], (1.0, 0.0),
                         0.0)
        assert rv.result == box((0, 0), (-1.5, -0.5))

    def test_nonregular_reducer_rejected(self):
        f = constant_spec(box((0, 1), (0, 0)), regular=False)
        m = constant_map(box((0, 1)))
        with pytest.raises(SchemaError):
            reduce_once(m, f, (0.0,), 0.0)

    def test_time_obstruction_forces_empty(self):
        # nondegenerate time axis: no direction can keep the form constant
        f = constant_spec(box((1, 1), (0.5, 1.0)))
        m = constant_map(box((-1, 1)))
        rv = reduce_once(m, f, (0.0,), 0.0)
        assert rv.time_obstruction
        assert rv.result.is_empty

    def test_empty_base_stays_empty(self):
        m = PiecewiseBoxMap(1, 1, [Piece(ex.TrueGuard(), None)])
        f = constant_spec(box((1, 1), (0, 0)))
        rv = reduce_once(m, f, (0.0,), 0.0)
        assert rv.base.is_empty and rv.result.is_empty


class TestReduceCollection:
    def test_singleton_collection_equals_reduce_once(self, example3):
        for x in [(1.0, 0.0), (0.5, 0.5), (1.0, 1.0), (-1.0, 0.0)]:
            once = reduce_once(example3.inclusion, example3.reducers[0], x,
                               0.0).result
            coll = reduce_collection(example3.inclusion, example3.reducers, x,
                                     0.0)
            assert coll == once

    def test_example2_interior(self, example2):
        out = reduce_collection(example2.inclusion, example2.reducers,
                                (0.5, 0.5), 0.0)
        assert out == box((0, 0), (-1, -1))

    def test_example2_corner_empty(self, example2):
        out = reduce_collection(example2.inclusion, example2.reducers,
                                (1.0, 1.0), 0.0)
        assert out.is_empty

    def test_empty_collection_returns_inclusion(self, example2):
        out = reduce_collection(example2.inclusion, (), (1.0, 1.0), 0.0)
        assert out == eval_map(example2.inclusion, (1.0, 1.0), 0.0)

    def test_containment_everywhere(self, example1, example2, example3,
                                    example4, example5, example6):
        rng = np.random.default_rng(31)
        for system in (example1, example2, example3, example4, example5,
                       example6):
            lo = system.domain.lo_corner()
            hi = system.domain.hi_corner()
            guard_values = [-1.0, 0.0, 1.0]
            for _ in range(150):
                x = [rng.uniform(a, b) for a, b in zip(lo, hi)]
                if rng.random() < 0.5:
                    x[rng.integers(len(x))] = guard_values[rng.integers(3)]
                t = rng.uniform(0.0, 5.0)
                base = eval_map(system.inclusion, x, t)
                red = reduce_collection(system.inclusion, system.reducers, x,
                                        t)
                assert base.intersect(red) == red

    def test_monotone_in_the_collection(self, example6):
        pyramid = example6.matrosov.collections[1][0]
        small = example6.reducers
        large = (*small, pyramid)
        rng = np.random.default_rng(17)
        probes = [tuple(rng.uniform(-2, 2, 2)) for _ in range(200)]
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            x[rng.integers(2)] = [-1.0, 0.0, 1.0][rng.integers(3)]
            probes.append(tuple(x))
        # interior diagonal points, where only the pyramid prunes
        probes += [(0.5, 0.5), (-0.3, 0.3), (0.25, -0.25)]
        shrank = 0
        for x in probes:
            out_small = reduce_collection(example6.inclusion, small, x, 0.7)
            out_large = reduce_collection(example6.inclusion, large, x, 0.7)
            assert out_small.intersect(out_large) == out_large
            if out_small != out_large:
                shrank += 1
        assert shrank >= 3  # the larger collection actually bites somewhere

    def test_smooth_collection_is_identity(self, trivial_zero, example2):
        # singleton gradients everywhere: no directions are removed
        rng = np.random.default_rng(5)
        for system in (trivial_zero, example2):
            smooth = constant_spec(box((0.3, 0.3), (-1, -1), (0, 0)),
                                   name="affine")
            for _ in range(50):
                x = rng.uniform(-1, 1, 2)
                base = eval_map(system.inclusion, x, 0.0)
                assert reduce_collection(system.inclusion, (smooth,), x,
                                         0.0) == base


# Axis values for random maps over (x1, x2): constants, values that pass
# through 0 on guard coordinates, and a division that raises at x1 = 0.
F_AXES = ("{0}", "{-x1}", "{x2 - x1}", "[-1, 1]", "[0, 2]", "[-abs(x2), 0]")
GRADIENT_AXES = ("{0}", "{1}", "{x1}", "[-1, 1]", "[-abs(x1), abs(x1)]",
                 "hull(0, sgn(x2))", "{1/x1}")
TIME_AXES = ("{0}", "{0}", "{t}", "[0, 1]")


def one_piece(*values):
    return PiecewiseBoxMap(2, len(values), [Piece(
        ex.TrueGuard(), tuple(ex.parse_set(v) for v in values))])


@st.composite
def reduction_cases(draw):
    """An inclusion over (x1, x2), 0-3 reducers (one in eight not flagged
    regular), a point on guard coordinates and a time."""
    inclusion = one_piece(*draw(st.lists(st.sampled_from(F_AXES),
                                         min_size=2, max_size=2)))
    reducers = [
        RegularFunctionSpec(
            f"u{k}", 2, ex.Num(0.0), one_piece(
                *draw(st.lists(st.sampled_from(GRADIENT_AXES),
                               min_size=2, max_size=2)),
                draw(st.sampled_from(TIME_AXES))),
            draw(st.sampled_from((True,) * 7 + (False,))))
        for k in range(draw(st.integers(0, 3)))]
    coords = st.sampled_from((-1.0, -0.5, -0.0, 0.0, 0.5, 1.0))
    return (inclusion, reducers, (draw(coords), draw(coords)),
            draw(st.sampled_from((0.0, 0.5))))


@settings(max_examples=300, deadline=None)
@given(case=reduction_cases())
def test_one_pinch_is_the_intersection_of_single_reductions(case):
    inclusion, reducers, x, t = case
    base = eval_map(inclusion, x, t)
    try:
        singles = [reduce_once(inclusion, u, x, t) for u in reducers]
    except (DslEvalError, SchemaError) as err:
        # the first reducer that fails fails the collection, in order
        with pytest.raises(type(err), match=re.escape(str(err))):
            red._reduce(base, reducers, x, t)
        return
    out = red._reduce(base, reducers, x, t)
    expected = base
    for single in singles:
        expected = expected.intersect(single.result)
    assert out.result == expected
    assert out.base == base
    assert out.constrained_axes == frozenset().union(
        *(single.constrained_axes for single in singles))
    assert out.time_obstruction == any(
        single.time_obstruction for single in singles)
    assert reduce_collection(inclusion, reducers, x, t) == expected


def reduction_oracle_hull(fbox, gbox, rng):
    """Sampling-acceptance oracle for the reduction (no box reasoning).

    Directions q are sampled on a product grid containing the endpoints
    and 0 of every axis; q is accepted iff the bilinear form differs by
    at most 1e-7 across 200 gradient pairs (deterministic axis-extreme
    pairs plus random vertex pairs). Returns the hull of accepted samples.
    """
    n = fbox.dims
    per_axis = {1: 10_000, 2: 100, 3: 21}[n]
    axes = []
    for iv in fbox.axes:
        vals = {iv.lo, iv.hi}
        if iv.lo <= 0.0 <= iv.hi:
            vals.add(0.0)
        if not iv.is_degenerate:
            vals.update(rng.uniform(iv.lo, iv.hi,
                                    per_axis - len(vals)).tolist())
        axes.append(np.array(sorted(vals)))
    q = np.array(list(itertools.product(*axes)))  # (m, n)

    lo = np.array(gbox.lo_corner())
    hi = np.array(gbox.hi_corner())
    center = (lo + hi) / 2.0
    pairs = []
    for i in range(gbox.dims):
        if lo[i] != hi[i]:
            a, b = center.copy(), center.copy()
            a[i], b[i] = lo[i], hi[i]
            pairs.append((a, b))
    need = 200 - len(pairs)
    pick = rng.integers(0, 2, size=(2, need, gbox.dims))
    pairs.extend(zip(np.where(pick[0] == 0, lo, hi),
                     np.where(pick[1] == 0, lo, hi)))
    # the distinct differences, at most (200, n+1): a duplicate pair
    # leaves the max spread as it is
    deltas = np.unique([a - b for a, b in pairs], axis=0)

    spread = np.abs(deltas[:, :n] @ q.T + deltas[:, n:].sum(axis=1)[:, None])
    accepted = q[spread.max(axis=0) <= 1e-7]
    if len(accepted) == 0:
        return IntervalBox.empty(n)
    return IntervalBox.from_bounds(accepted.min(axis=0),
                                   accepted.max(axis=0))


def random_reduction_case(rng):
    """Random (inclusion box, gradient box) pair for the oracle."""
    n = int(rng.integers(1, 4))
    f_axes = []
    for _ in range(n):
        lo = float(rng.uniform(-3, 3))
        width = float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))
        f_axes.append((lo, lo + width))
    g_axes = []
    for _ in range(n):
        lo = float(rng.uniform(-2, 2))
        width = float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
        g_axes.append((lo, lo + width))
    if rng.random() < 0.05:
        g_axes.append((0.0, 1.0))  # nondegenerate time axis
    else:
        g_axes.append((0.0, 0.0))
    return box(*f_axes), box(*g_axes)


class TestBruteForceOracle:
    def test_matches_closed_form_on_random_boxes(self):
        rng = np.random.default_rng(2024)
        for case in range(1000):
            fbox, gbox = random_reduction_case(rng)
            n = fbox.dims
            rv = reduce_once(constant_map(fbox), constant_spec(gbox),
                             (0.0,) * n, 0.0)
            hull = reduction_oracle_hull(fbox, gbox, rng)
            assert corner_distance(rv.result, hull) <= 1e-6, \
                (case, fbox, gbox, rv.result, hull)


class TestTabulate:
    def test_example1_table(self, example1):
        nodes = [(x,) for x in (-2, -1, -0.5, 0, 0.5, 1, 2)]
        table = tabulate_reduction(example1.inclusion, example1.reducers,
                                   nodes, 0.0)
        assert len(table.rows) == 7
        by_x = {row.x[0]: row for row in table.rows}
        assert by_x[1.0].reduced == box((0, 0))
        assert by_x[-1.0].reduced == box((0, 0))
        assert by_x[0.0].reduced.is_empty
        for x in (-2.0, -0.5, 0.5, 2.0):
            assert by_x[x].reduced == by_x[x].base

    def test_empty_probe_list(self, example1):
        table = tabulate_reduction(example1.inclusion, example1.reducers, [],
                                   0.0)
        assert table.rows == ()
        assert "empty_flag" in table.to_csv().splitlines()[0]

    @pytest.mark.parametrize("nodes", [[0.5], 0.5, [[[0.5]]]])
    def test_nodes_must_be_a_two_dimensional_array(self, example1, nodes):
        calls = (
            lambda: tabulate_reduction(example1.inclusion, example1.reducers,
                                       nodes, 0.0),
            lambda: scan_derivative(example1.candidate, example1.inclusion,
                                    example1.reducers, nodes, (0.0,)))
        for call in calls:
            with pytest.raises(DimensionMismatchError,
                               match=re.escape("an (N, 1) array")):
                call()

    def test_each_map_evaluated_once_per_probe(self, example3, monkeypatch):
        # two reducers, so the per-reducer evaluations would show
        reducers = (example3.reducers[0], example3.candidate)
        maps = [example3.inclusion, *(u.gradient for u in reducers)]
        nodes = np.array([(1.0, 0.0), (0.5, 0.5), (0.0, 0.0)])
        calls = []
        value = PiecewiseBoxMap.value
        monkeypatch.setattr(PiecewiseBoxMap, "value", lambda m, x, t: (
            calls.append(m), value(m, x, t))[1])
        with monkeypatch.context() as mp:  # every node through the reference
            mp.setattr(red, "_fill", lambda shape, arrays, pointwise: [
                pointwise(*cell) for cell in np.ndindex(shape)])
            tabulate_reduction(example3.inclusion, reducers, nodes, 0.0)
        assert [calls.count(m) for m in maps] == [len(nodes)] * 3
        calls.clear()
        reduce_collection(example3.inclusion, reducers, (1.0, 0.0), 0.0)
        assert calls.count(example3.inclusion) == 1

        # the array path: once per chunk, and never pointwise
        calls.clear()
        chunk_arrays = PiecewiseBoxMap.chunk_arrays
        monkeypatch.setattr(PiecewiseBoxMap, "chunk_arrays", lambda m, c: (
            calls.append(m), chunk_arrays(m, c))[1])
        for chunk, batches in ((4096, 1), (2, 2), (1, 3)):
            monkeypatch.setattr(red, "_CHUNK", chunk)
            tabulate_reduction(example3.inclusion, reducers, nodes, 0.0)
            assert [calls.count(m) for m in maps] == [batches] * 3
            calls.clear()

    def test_per_row_time_is_one_scalar_call_per_row(self, example4,
                                                      monkeypatch):
        # example4's F and its reducer read the parameter g = 0.5*exp(-t)
        grid = example4.require_grid().with_uniform_counts(9)
        nodes = grid.nodes(example4.domain)
        rng = np.random.default_rng(7)
        times = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 0.3],
                           size=len(nodes))
        columns = ("base_lo", "base_hi", "base_empty", "lo", "hi", "empty",
                   "constrained")
        for chunk in (1, 7, 4096):
            red._CHUNK, saved = chunk, red._CHUNK
            try:
                table = tabulate_reduction(example4.inclusion,
                                           example4.reducers, nodes, times)
            finally:
                red._CHUNK = saved
            assert table.t.tolist() == times.tolist()
            for b, (x, t) in enumerate(zip(nodes, times.tolist())):
                one = tabulate_reduction(example4.inclusion,
                                         example4.reducers, [x], t)
                for name in columns:
                    got = getattr(table, name)[..., b]
                    want = getattr(one, name)[..., 0]
                    assert got.tobytes() == want.tobytes(), (name, b)
            assert [row.t for row in table.rows] == times.tolist()

        def no_fallback(r):
            raise AssertionError(f"row {r} fell back to the pointwise path")

        fill = red._fill  # and the per-row table took the array path
        monkeypatch.setattr(red, "_fill", lambda count, arrays, _: fill(
            count, arrays, no_fallback))
        tabulate_reduction(example4.inclusion, example4.reducers, nodes,
                           times)

    @pytest.mark.parametrize("edit", [
        lambda d: d["params"].update(g="0.5*exp(-t) + 1/(t - 2)"),
        lambda d: d["F"]["pieces"].insert(0, {
            "guard": "1/(t - 2) > 100", "value": ["{x1}", "{x2}"]})],
        ids=["parameter", "guard"])
    def test_per_row_time_raises_at_its_row(self, edit, monkeypatch):
        """The membership path: a parameter or a guard that raises at the
        time of one row (t = 2, the fifth) raises there the error of the
        pointwise API, whatever the chunks."""
        with open(fixture_path("example4"), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        system = system_from_dict(doc)
        nodes = [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (-0.5, 1.0),
                 (0.25, -1.0), (1.0, 1.0), (0.0, 0.0)]
        times = [0.0, 0.5, 1.0, 5.0, 2.0, 2.0, 10.0]
        with pytest.raises(DslEvalError) as pointwise:
            reduce_collection(system.inclusion, system.reducers, nodes[4], 2.0)
        for chunk in (1, 3, 4096):
            monkeypatch.setattr(red, "_CHUNK", chunk)
            with pytest.raises(DslEvalError) as table:
                tabulate_reduction(system.inclusion, system.reducers, nodes,
                                   times)
            assert str(table.value) == str(pointwise.value)
        assert str(pointwise.value).endswith(
            "division by near-zero denominator 0.0")

    @pytest.mark.parametrize("times", [[0.0], [0.0] * 4, [[0.0, 1.0, 2.0]]])
    def test_per_row_time_needs_one_time_per_node(self, example4, times):
        with pytest.raises(DimensionMismatchError,
                           match=re.escape("one time or one per node")):
            tabulate_reduction(example4.inclusion, example4.reducers,
                               [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0)], times)

    def test_per_row_time_table_has_no_report(self, example4):
        table = tabulate_reduction(example4.inclusion, example4.reducers,
                                   [(0.5, 0.5), (1.0, 0.0)], [0.0, 1.0])
        for report in (table.to_csv, table.to_text):
            with pytest.raises(ValueError, match="one time per row"):
                report()

    def test_csv_is_deterministic(self, example3):
        nodes = [(1.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
        t1 = tabulate_reduction(example3.inclusion, example3.reducers, nodes,
                                0.0)
        t2 = tabulate_reduction(example3.inclusion, example3.reducers, nodes,
                                0.0)
        assert t1.to_csv() == t2.to_csv()
        assert t1.to_csv().count("\n") == 4
