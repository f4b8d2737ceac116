"""The array evaluators against the pointwise reference evaluators.

The derivative scan, the reduction table, the ``deriv`` table, the
Matrosov Y table and the trajectory checks evaluate batches of nodes as
numpy arrays through ``reduction._stream``, which refills the cells the
arrays flag (``reduction._flagged``) one by one with the pointwise
reference before it folds their chunk. These tests compare
each public function with the same call forced through the pointwise
reference alone, with no array code run, or with a loop written here:
the columns must carry the same bits, and the errors must be the same.
"""

import collections
import csv
import io
import json
import math
import struct
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import incred.certify as certify
import incred.cli as cli
import incred.derivative as deriv
import incred.expr as ex
import incred.grids as grids
import incred.reduction as red
from incred.certify import (certify_lyapunov, certify_semidefinite,
                            invariance_data, matrosov_derivative_bounds,
                            matrosov_grid)
from incred.cli import main
from incred.errors import SchemaError
from incred.fixtures import available_fixtures, fixture_path, load_fixture
from incred.setmaps import (MatrosovData, Piece, PiecewiseBoxMap,
                            RegularFunctionSpec, eval_map)
from incred.simulate import (DescentReport, MembershipReport,
                             SelectionStrategy, TailReport, Trajectory,
                             _csv_chunks, check_lyapunov_descent,
                             check_partial_convergence,
                             check_reduction_membership)

from boxes import distance_to, max_vertex_norm
from scans import (Scan, Table, derivative_scans, grid_nodes,
                   reduction_table, row_table, table_reports)
from test_reduction import rows

# Grid coordinates include the guard surfaces 0 and +-1 and both zeros.
COORDS = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0)
PARAMS = (("g", ex.parse_scalar("0.5*exp(-t)")),)
X1, X2 = ex.Var("x1"), ex.Var("x2")

NUMS = (0.0, -0.0, 0.5, 1.0, -1.0, 3.0)
LEAVES = [ex.Num(v) for v in NUMS] + [X1, X2, ex.Var("t"), ex.Var("g")]
UNARY = ("abs", "sgn", "sgn1", "exp", "sin", "cos")
CMP = ("==", "!=", "<", "<=", ">", ">=")


def _kind(draw, flat, nested, depth: int) -> str:
    """A node kind: ``nested`` kinds recurse, so only while depth remains."""
    return draw(st.sampled_from(flat + (nested if depth > 0 else ())))


def _wrapped_hazard(draw, var, kinds=("div", "nan")):
    """``1/var`` (the scalar code raises at ``var == 0``) or ``var*1e999``
    (NaN there on both paths), bare or inside max, min, sgn or sgn1,
    which must keep its NaN where the scalar code drops it."""
    hazard = ex.BinOp("/", ex.Num(1.0), var) \
        if draw(st.sampled_from(kinds)) == "div" \
        else ex.BinOp("*", var, ex.Num(math.inf))
    return draw(st.sampled_from([hazard, ex.Call("sgn", (hazard,)),
                                 ex.Call("sgn1", (hazard,)),
                                 ex.Call("max", (X1, hazard)),
                                 ex.Call("min", (hazard, X2))]))


def _scalar(draw, risky: bool, depth: int = 2, leaves=LEAVES):
    """A scalar expression; ``risky`` adds divisions by arbitrary terms and
    the hazards of :func:`_wrapped_hazard` at a zero grid coordinate."""
    kind = _kind(draw, ("leaf",) + (("wrapped",) if risky else ()),
                 ("neg", "unary", "minmax", "arith")
                 + (("div",) if risky else ()), depth)
    if kind == "leaf":  # 1e308 overflows to inf and exp() to a range error
        return draw(st.sampled_from(leaves + [ex.Num(1e308)] * risky))
    if kind == "wrapped":
        return _wrapped_hazard(draw, draw(st.sampled_from([X1, X2])))
    a = _scalar(draw, risky, depth - 1, leaves)
    if kind == "neg":
        return ex.Neg(a)
    if kind == "unary":
        return ex.Call(draw(st.sampled_from(UNARY)), (a,))
    b = _scalar(draw, risky, depth - 1, leaves)
    if kind == "minmax":
        return ex.Call(draw(st.sampled_from(["max", "min"])), (a, b))
    op = "/" if kind == "div" else draw(st.sampled_from("+-*"))
    return ex.BinOp(op, a, b)


def _hazard_guard(draw):
    """A guard whose scalar form short-circuits before the hazard of
    :func:`_wrapped_hazard` at a zero coordinate (``x != 0 and h > 1``,
    ``x == 0 or h < 1``, ``not (x == 0 or h < 1)``) or before
    ``exp(1000*x)`` overflows (``x < 1 and ...``), or that compares an
    unprotected ``x*1e999`` hazard, which raises on neither path, with 0.
    The array form flags those rows only."""
    var, kind = draw(st.sampled_from([X1, X2])), draw(
        st.sampled_from(["and", "or", "not", "exp", "nan"]))
    hazard = _wrapped_hazard(draw, var, ("nan",) if kind == "nan"
                             else ("div", "nan"))
    if kind == "nan":
        return ex.Comparison(draw(st.sampled_from(CMP)), hazard, ex.Num(0.0))
    if kind == "exp":
        overflow = ex.Call("exp", (ex.BinOp("*", ex.Num(1e3), var),))
        return ex.AndGuard((ex.Comparison("<", var, ex.Num(1.0)),
                            ex.Comparison(">", overflow, ex.Num(1.0))))
    if kind == "and":
        return ex.AndGuard((ex.Comparison("!=", var, ex.Num(0.0)),
                            ex.Comparison(">", hazard, ex.Num(1.0))))
    unless_zero = ex.OrGuard((ex.Comparison("==", var, ex.Num(0.0)),
                              ex.Comparison("<", hazard, ex.Num(1.0))))
    return unless_zero if kind == "or" else ex.NotGuard(unless_zero)


def _guard(draw, risky: bool, depth: int = 1, leaves=LEAVES):
    kind = _kind(draw, ("surface", "compare")
                 + (("hazard-guard",) if risky else ()),
                 ("not", "and", "or"), depth)
    if kind == "surface":  # exact comparisons hit by grid nodes
        var = draw(st.sampled_from([X1, X2]))
        level = ex.Num(draw(st.sampled_from([0.0, 0.5, 1.0])))
        return ex.Comparison(draw(st.sampled_from(CMP)),
                             ex.Call("abs", (var,)), level)
    if kind == "compare":
        return ex.Comparison(draw(st.sampled_from(CMP)),
                             _scalar(draw, risky, leaves=leaves),
                             _scalar(draw, risky, leaves=leaves))
    if kind == "hazard-guard":
        return _hazard_guard(draw)
    if kind == "not":
        return ex.NotGuard(_guard(draw, risky, depth - 1, leaves))
    terms = (_guard(draw, risky, depth - 1, leaves),
             _guard(draw, risky, depth - 1, leaves))
    return ex.AndGuard(terms) if kind == "and" else ex.OrGuard(terms)


def _set(draw, risky: bool, depth: int = 1, leaves=LEAVES):
    kind = _kind(draw, ("point", "ordered", "hull")
                 + (("literal",) if risky else ()), ("sum", "scaled"), depth)
    if kind == "point":
        return ex.SingletonSet(_scalar(draw, risky, leaves=leaves))
    if kind == "ordered":
        a = _scalar(draw, risky, leaves=leaves)
        return ex.IntervalSet(ex.BinOp("-", a, ex.Num(1.0)),
                              ex.BinOp("+", a, ex.Num(1.0)))
    if kind in ("hull", "literal"):  # a literal inverts on some rows
        build = ex.HullSet if kind == "hull" else ex.IntervalSet
        return build(_scalar(draw, risky, leaves=leaves),
                     _scalar(draw, risky, leaves=leaves))
    if kind == "sum":
        return ex.SumSet((_set(draw, risky, depth - 1, leaves),
                          _set(draw, risky, depth - 1, leaves)))
    return ex.ScaledSet(_scalar(draw, risky, 1, leaves),
                        _set(draw, risky, depth - 1, leaves))


def _piecewise(draw, risky: bool, n_out: int, empty_pieces: bool,
               still=(True, False), params=PARAMS, leaves=LEAVES):
    """A map over (x1, x2): up to two guarded pieces, then ``otherwise``.

    Half of the maps, risky or not, start with a piece guarded by
    :func:`_hazard_guard`, so that flagged rows sit among array rows. With
    three outputs (a gradient) the last axis is time; it is often
    degenerate (when a draw from ``still`` is True), so reducers do not
    always empty the reduced set. Its expressions read the ``leaves``.
    """
    def values():
        out = [_set(draw, risky, leaves=leaves) for _ in range(n_out)]
        if n_out == 3 and draw(st.sampled_from(still)):
            out[2] = ex.SingletonSet(draw(st.sampled_from(
                [ex.Num(0.0), ex.Var("g")][:1 + (ex.Var("g") in leaves)])))
        return tuple(out)

    pieces = []
    for _ in range(draw(st.integers(0, 2))):
        empty = empty_pieces and draw(st.integers(0, 3)) == 0
        pieces.append(Piece(_guard(draw, risky, leaves=leaves),
                            None if empty else values()))
    if draw(st.booleans()):
        pieces.insert(0, Piece(_hazard_guard(draw), values()))
    pieces.append(Piece(ex.TrueGuard(), values()))
    return PiecewiseBoxMap(2, n_out, pieces, params)


@st.composite
def cases(draw):
    """A scan input; half of them free of every pointwise error by design,
    so that their flagged rows come from hazard guards alone."""
    risky = draw(st.booleans())

    def function(regular):
        return RegularFunctionSpec("f", 2, ex.Num(0.0),
                                   _piecewise(draw, risky, 3, risky), regular)

    inclusion = _piecewise(draw, risky, 2, True)
    return {
        "candidate": function(draw(st.booleans())),
        "inclusion": inclusion,
        "reducers": [function(True) for _ in range(draw(st.integers(0, 2)))],
        "nodes": draw(st.lists(st.tuples(st.sampled_from(COORDS),
                                         st.sampled_from(COORDS)),
                               min_size=1, max_size=12)),
        "time_nodes": draw(st.lists(st.sampled_from([0.0, 1.0, 5.0]),
                                    min_size=1, max_size=2)),
        "extras": [(_scalar(draw, risky), inclusion)
                   for _ in range(draw(st.integers(0, 2)))],
        "chunk": draw(st.sampled_from([1, 3, 4096])),
    }


def _pointwise_only(monkeypatch):
    """Run no array code: every job's cells come from its pointwise
    reference alone (``_stream`` flags every cell of a falsy ``arrays``)."""
    stream = red._stream
    monkeypatch.setattr(red, "_stream", lambda jobs, *args: stream(
        [(zero, None, pointwise) for zero, _, pointwise in jobs], *args))


def _arrays_only(monkeypatch):
    """Make any flagged cell fail: every chunk must pass the array path."""
    def no_fallback(flags):
        if flags.any():
            raise AssertionError(f"cells {np.argwhere(flags).tolist()} fell "
                                 "back to the pointwise path")
        return []

    monkeypatch.setattr(red, "_flagged", no_fallback)


def _forced(fn, *args):
    """``fn(*args)`` with every row filled pointwise, or its error."""
    with pytest.MonkeyPatch.context() as mp:
        _pointwise_only(mp)
        return _outcome(fn, *args)


def _bits(columns):
    return [[struct.pack("d", v) for v in np.ravel(c).tolist()]
            for c in (columns.value, *columns.extras)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the reference's own error, compared below
        return type(e), str(e)


def _same(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return (_bits(a) == _bits(b)
            and np.array_equal(a.minus_inf, b.minus_inf))


def _one_scan(*args):
    return derivative_scans(*args)[0]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=cases())
def test_array_scan_is_bit_identical_to_pointwise(case):
    args = (case["inclusion"], [(case["candidate"], case["reducers"],
                                 case["extras"])],
            np.array(case["nodes"]), case["time_nodes"])
    saved, grids._CHUNK = grids._CHUNK, case["chunk"]
    try:
        reference = _forced(_one_scan, *args)
        public = _outcome(_one_scan, *args)
    finally:
        grids._CHUNK = saved
    assert _same(public, reference)


def _planted(nodes, time_nodes, early: int, late: int) -> ex.ScalarExpr:
    """``1/d(x, t; a, s) + 1/-d(x, t; b, u)`` with ``d`` the l1 distance of
    (x, t) from (a, s): it raises at (a, s) with a denominator of 0.0 and
    at (b, u) with -0.0, told apart by the message. ``a`` is the last
    node and ``s`` the ``early``-th time node, ``b`` the first node and
    ``u`` the ``late``-th time node: with early < late, the cell in the
    last chunk comes first in scan order."""
    def distance(point, t):
        terms = [ex.Call("abs", (ex.BinOp("-", var, ex.Num(v)),))
                 for var, v in ((X1, point[0]), (X2, point[1]),
                                (ex.Var("t"), t))]
        return ex.BinOp("+", ex.BinOp("+", terms[0], terms[1]), terms[2])
    return ex.BinOp("+", ex.BinOp("/", ex.Num(1.0), distance(
        nodes[-1], time_nodes[early])), ex.BinOp("/", ex.Num(1.0), ex.Neg(
            distance(nodes[0], time_nodes[late]))))


@st.composite
def job_cases(draw):
    """A scan of one or two jobs (candidate, reducers, extras) along one
    inclusion: 1 to 4 time nodes, chunks that split the rows, guards and
    sets that read t and g or not, extras with a planted hazard
    (:func:`_planted`, at different cells per job), and a parameter g
    that raises at one of the time nodes."""
    risky = draw(st.booleans())
    time_nodes = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]),
                               min_size=1, max_size=4))
    pole = draw(st.sampled_from([None, *time_nodes]))  # where g raises
    params = PARAMS if pole is None else (("g", ex.parse_scalar(
        f"0.5*exp(-t) + 1/(t - {pole!r})")),)
    nodes = draw(st.lists(st.tuples(st.sampled_from(COORDS),
                                    st.sampled_from(COORDS)),
                          min_size=1, max_size=14, unique=True))

    def function(regular):
        return RegularFunctionSpec("f", 2, ex.Num(0.0), _piecewise(
            draw, risky, 3, risky, params=params), regular)

    inclusion = _piecewise(draw, risky, 2, True, params=params)
    jobs = []
    for _ in range(draw(st.integers(1, 2))):
        extras = [(_scalar(draw, risky), inclusion)
                  for _ in range(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            early = draw(st.integers(0, len(time_nodes) - 1))
            late = draw(st.integers(early, len(time_nodes) - 1))
            extras.insert(draw(st.integers(0, len(extras))), (
                _planted(nodes, time_nodes, early, late), inclusion))
        jobs.append((function(draw(st.booleans())),
                     [function(True) for _ in range(draw(st.integers(0, 2)))],
                     extras))
    return {"inclusion": inclusion, "jobs": jobs, "nodes": nodes,
            "time_nodes": time_nodes,
            "chunk": draw(st.sampled_from([1, 2, 3, 5, 4096]))}


def _loop_scans(inclusion, jobs, nodes, time_nodes):
    """Each job's scan by a plain loop, written here as the reference:
    job, then time node, then node, through ``generalized_derivative``
    and the extras' scalar closures."""
    scans = []
    for candidate, reducers, extras in jobs:
        fns = [(ex.compile_scalar(e), m) for e, m in extras]
        shape = (len(time_nodes), len(nodes))
        value, minus_inf = np.zeros(shape), np.zeros(shape, dtype=bool)
        cols = np.zeros((len(extras),) + shape)
        for a, t in enumerate(time_nodes):
            for b, x in enumerate(nodes):
                d = deriv.generalized_derivative(candidate, inclusion,
                                                 reducers, list(x), t)
                minus_inf[a, b] = d is None
                value[a, b] = 0.0 if d is None else d
                for k, (fn, m) in enumerate(fns):
                    cols[k, a, b] = fn(m.env(list(x), t))
        scans.append(Scan(value, minus_inf, tuple(cols)))
    return scans


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=job_cases())
def test_chunk_outer_scan_equals_the_time_then_node_loop(case):
    """The kernel walks chunks outer and time nodes inner, and refills each
    chunk's flagged cells before its fold: its bits, or its first error,
    are those of the loop over time nodes, then nodes."""
    inclusion, jobs = case["inclusion"], case["jobs"]
    args = (np.array(case["nodes"]), case["time_nodes"])
    saved, grids._CHUNK = grids._CHUNK, case["chunk"]
    try:
        public = _outcome(derivative_scans, inclusion, jobs, *args)
    finally:
        grids._CHUNK = saved
    reference = _outcome(_loop_scans, inclusion, jobs, case["nodes"],
                         case["time_nodes"])
    if isinstance(reference, tuple) or isinstance(public, tuple):
        assert public == reference
    else:
        assert all(map(_same, public, reference))


def _own_table(draw, time_nodes):
    """A map's own parameter table, and the leaves its expressions read:
    none, or a g that is 0.5*exp(-t) but raises, or is NaN, at a drawn
    time node."""
    kind = draw(st.sampled_from(["none", "raises", "nan"]))
    if kind == "none":
        return (), LEAVES[:-1]  # all but g
    pole = draw(st.sampled_from(time_nodes))
    g = (f"0.5*exp(-t) + 1/(t - {pole!r})" if kind == "raises"
         else f"min(abs(t - {pole!r})*1e999, 0.5*exp(-t))")
    return (("g", ex.parse_scalar(g, ["t"])),), LEAVES


@st.composite
def own_table_cases(draw):
    """A scan of one or two jobs in which the inclusion, each candidate
    gradient, each reducer gradient and each extra's map draw their own
    parameter table (:func:`_own_table`)."""
    risky = draw(st.booleans())
    time_nodes = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]),
                               min_size=1, max_size=3))

    def piecewise(n_out):
        params, leaves = _own_table(draw, time_nodes)
        return _piecewise(draw, risky, n_out, risky or n_out == 2,
                          params=params, leaves=leaves), leaves

    def function(regular):
        return RegularFunctionSpec("f", 2, ex.Num(0.0), piecewise(3)[0],
                                   regular)

    def extra():
        m, leaves = piecewise(2)
        return _scalar(draw, risky, leaves=leaves), m

    jobs = [(function(draw(st.booleans())),
             [function(True) for _ in range(draw(st.integers(0, 2)))],
             [extra() for _ in range(draw(st.integers(0, 2)))])
            for _ in range(draw(st.integers(1, 2)))]
    return {"inclusion": piecewise(2)[0], "jobs": jobs,
            "nodes": draw(st.lists(st.tuples(st.sampled_from(COORDS),
                                             st.sampled_from(COORDS)),
                                   min_size=1, max_size=12)),
            "time_nodes": time_nodes}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=own_table_cases())
def test_a_parameter_error_is_decided_by_the_reference(case):
    """A parameter that raises at a time node flags that time node's cells,
    as a NaN one flags its rows: the pointwise reference refills them, so
    the bits, or the first error, are those of the all-pointwise run,
    whatever the chunk size, also where the reference never evaluates
    the map whose parameter raises."""
    args = (case["inclusion"], case["jobs"], np.array(case["nodes"]),
            case["time_nodes"])
    reference = _forced(derivative_scans, *args)
    for chunk in (1, 2, 3, 4096):
        saved, grids._CHUNK = grids._CHUNK, chunk
        try:
            public = _outcome(derivative_scans, *args)
        finally:
            grids._CHUNK = saved
        if isinstance(reference, tuple) or isinstance(public, tuple):
            assert public == reference
        else:
            assert all(map(_same, public, reference))


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
@pytest.mark.parametrize("jobs", [1, 2])
def test_the_first_error_is_the_first_in_scan_order(chunk, jobs,
                                                    monkeypatch):
    """example6's F along a line of 5 nodes at time nodes 0, 1, 5:
    hazards at (t=1, last node) and (t=5, first node), alone or with a
    second job's at (t=0, node 2) and (t=0, node 3). Job 0's cell in the
    last chunk raises first, whatever the chunk size."""
    system = load_fixture("example6")
    nodes = [(-1.5 + 0.75 * k, 0.25) for k in range(5)]
    times = [0.0, 1.0, 5.0]
    job = (system.candidate, system.reducers,
           [(_planted(nodes, times, 1, 2), system.inclusion)])
    later = (system.candidate, (), [(_planted(nodes[2:4], [0.0], 0, 0),
                                     system.inclusion)])
    monkeypatch.setattr(grids, "_CHUNK", chunk)
    with pytest.raises(ex.DslEvalError, match="denominator 0.0$"):
        derivative_scans(system.inclusion, [job, later][:jobs], nodes, times)
    with pytest.raises(ex.DslEvalError, match="denominator -0.0$"):
        derivative_scans(system.inclusion, [later], nodes, times)  # alone


def _counting(monkeypatch):
    """Count each call of the array closures compiled from here on, by the
    ``id`` of the expression compiled."""
    calls = collections.Counter()
    for name in ("compile_guard_array", "compile_set_array",
                 "compile_scalar_array"):
        def compile_counted(node, compile_fn=getattr(ex, name)):
            fn = compile_fn(node)

            def counted(env):
                calls[id(node)] += 1
                return fn(env)
            return counted
        monkeypatch.setattr(ex, name, compile_counted)
    return calls


def test_state_only_work_runs_once_per_chunk(monkeypatch):
    """``certify example6 --grid 201``: 201^2 nodes in 10 chunks at 3 time
    nodes. Every closure of the square_ramp gradient and every guard of F
    reads only the state, so each runs at most once per chunk (30 times
    when time nodes were the outer loop); F's sets run once per time node
    where they read g, once per chunk where they do not."""
    calls = _counting(monkeypatch)
    system = load_fixture("example6")
    system = replace(system, grid=system.require_grid().with_uniform_counts(
        201))
    certify_semidefinite(system, system.checks.semidef_bound)
    chunks = -(-len(grid_nodes(system.grid, system.domain)) // grids._CHUNK)
    assert chunks == 10
    ramp, f = system.reducers[0].gradient, system.inclusion
    ramp_nodes = [n for p in ramp.pieces for n in (p.guard, *p.values)]
    assert calls[id(ramp.pieces[0].guard)] == chunks
    assert max(calls[id(n)] for n in ramp_nodes) == chunks
    assert calls[id(f.pieces[0].guard)] == chunks
    assert max(calls[id(p.guard)] for p in f.pieces) == chunks
    reads_g, state_only = f.pieces[0].values  # {x2*(1 + g)}, {-x1 - x2}
    assert (calls[id(reads_g)], calls[id(state_only)]) == (3 * chunks, chunks)
    assert calls[id(system.checks.semidef_bound)] == chunks  # 2*x2*x2


def test_matrosov_bounds_evaluate_f_once_for_every_function(monkeypatch):
    """One pass for both of example6's comparison functions: the annulus
    nodes fit one chunk, so F's guards run once and its sets that read g
    3 times (6 with a scan per function), and each collection gradient
    once (3 times per time node)."""
    calls = _counting(monkeypatch)
    system = load_fixture("example6")
    x_nodes = certify._annulus_nodes(system)
    assert x_nodes[1] <= grids._CHUNK
    matrosov_derivative_bounds(system, x_nodes)
    f = system.inclusion
    assert calls[id(f.pieces[0].guard)] == 1
    assert calls[id(f.pieces[0].values[0])] == 3
    gradients = [u.gradient for coll in system.matrosov.collections
                 for u in coll]
    assert [calls[id(m.pieces[0].guard)] for m in gradients] == [1, 1]


def _fixture_scans(system):
    """Every check of the CLI that goes through the derivative scan."""
    runs = []
    checks = system.checks
    if checks is not None and checks.decrease_bound is not None:
        sandwich = None
        if checks.lower_envelope is not None:
            sandwich = (checks.lower_envelope, checks.upper_envelope)
        runs.append(lambda: certify_lyapunov(
            system, checks.decrease_bound, sandwich=sandwich))
    if checks is not None and checks.semidef_bound is not None:
        runs.append(lambda: certify_semidefinite(system, checks.semidef_bound))
    if not system.time_dependent:
        runs.append(lambda: invariance_data(system))
    if system.matrosov is not None:
        runs.append(lambda: matrosov_derivative_bounds(
            system, matrosov_grid(system)[1]))
    return runs


@pytest.mark.parametrize("name", available_fixtures())
def test_fixture_scans_take_the_array_path(name, monkeypatch):
    runs = _fixture_scans(load_fixture(name))
    assert runs
    _arrays_only(monkeypatch)
    fast = [json.dumps(run().to_dict(), sort_keys=True) for run in runs]
    monkeypatch.undo()
    _pointwise_only(monkeypatch)
    slow = [json.dumps(run().to_dict(), sort_keys=True) for run in runs]
    assert fast == slow


@pytest.mark.parametrize("var", ["x1", "x2"])
def test_a_hazard_refills_only_its_own_rows(var, tmp_path, monkeypatch):
    """example2 behind a front piece ``x != 0 and 1/x > 100``: the array
    guard divides by x on every row, so it flags the rows with x == 0,
    while the scalar guard short-circuits there. The x1 == 0 rows fill a
    few chunks of 16, the x2 == 0 rows sit in every chunk."""
    with open(fixture_path("example2"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["F"]["pieces"].insert(0, {"guard": f"{var} != 0 and 1/{var} > 100",
                                  "value": ["{-x1 + x2}", "{-x1 - x2}"]})
    path = tmp_path / "cliff.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(grids, "_CHUNK", 16)
    system = load_fixture("example2")
    nodes = grid_nodes(system.require_grid().with_uniform_counts(11),
                       system.domain).tolist()
    axis = int(var[1:]) - 1
    zero_rows = {k for k, x in enumerate(nodes) if x[axis] == 0.0}
    chunks, zero_chunks = -(-len(nodes) // 16), {k // 16 for k in zero_rows}
    assert len(zero_chunks) == chunks if var == "x2" \
        else 0 < len(zero_chunks) < chunks

    def reports(command, label):
        out = tmp_path / f"{command}-{label}"
        assert main([command, "-i", str(path), "--grid", "11",
                     "-o", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    for command in ("certify", "reduce"):
        with monkeypatch.context() as mp:
            _pointwise_only(mp)
            forced = reports(command, "forced")
        seen = []
        value = PiecewiseBoxMap.value
        with monkeypatch.context() as mp:
            mp.setattr(PiecewiseBoxMap, "value", lambda m, x, t: (
                seen.append(list(x)), value(m, x, t))[1])
            mixed = reports(command, "mixed")
        assert mixed == forced
        # the flagged rows ran pointwise, and nothing else did
        assert {nodes.index(x) for x in seen} == zero_rows


# --- the reduction table ---------------------------------------------------

@st.composite
def table_cases(draw):
    """A reduction-table input; half of them free of every pointwise error.

    Inclusion values are often widened by [-2, 2], so that pinches keep
    some rows nonempty. Risky cases add non-regular reducers and, rarely,
    three-coordinate nodes for two-variable maps.
    """
    risky = draw(st.booleans())

    def widened(value):
        if draw(st.booleans()):
            return value
        return ex.SumSet((value, ex.IntervalSet(ex.Num(-2.0), ex.Num(2.0))))

    def reducer():
        regular = not risky or draw(st.integers(0, 7)) > 0
        gradient = _piecewise(draw, risky, 3, risky, (True,) * 7 + (False,))
        return RegularFunctionSpec("u", 2, ex.Num(0.0), gradient, regular)

    width = 3 if risky and draw(st.integers(0, 9)) == 0 else 2
    return {
        "inclusion": PiecewiseBoxMap(2, 2, [
            Piece(p.guard, p.values and tuple(map(widened, p.values)))
            for p in _piecewise(draw, risky, 2, True).pieces], PARAMS),
        "reducers": [reducer() for _ in range(draw(st.integers(1, 3)))],
        "nodes": draw(st.lists(st.tuples(*[st.sampled_from(COORDS)] * width),
                               min_size=1, max_size=12)),
        "t": draw(st.sampled_from([0.0, -0.0, 1.0, 5.0])),
        "chunk": draw(st.sampled_from([1, 3, 4096])),
    }


def _row_reports(table):
    """CSV and text reports built row by row from ``rows(table)``."""
    n = table.n
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i+1}" for i in range(n)] + ["t"]
                    + [f"{k}{i+1}" for k in ("F_lo", "F_hi", "Fred_lo",
                                            "Fred_hi") for i in range(n)]
                    + ["empty_flag"])
    lines = []
    for row in rows(table):
        cells = [repr(v) for v in row.x] + [repr(row.t)]
        for b in (row.base, row.reduced):
            cells += ([""] * (2 * n) if b.is_empty else
                      [repr(v) for v in b.lo_corner() + b.hi_corner()])
        writer.writerow(cells + ["1" if row.reduced.is_empty else "0"])
        x_str = ", ".join(repr(v) for v in row.x)
        reduced = "empty" if row.reduced.is_empty else repr(row.reduced)
        axes = ",".join(map(str, row.constrained_axes)) or "-"
        lines.append(f"x=({x_str}) t={row.t!r}  F={row.base!r}  "
                     f"reduced={reduced}  pinched_axes={axes}")
    return buf.getvalue(), "\n".join(lines) + "\n"


def _table_key(table) -> dict:
    columns = (table.x, [table.t], table.base_lo, table.base_hi, table.lo,
               table.hi)
    return {"bits": [struct.pack("d", v) for c in columns
                     for v in np.ravel(c).tolist()],
            "flags": (table.base_empty.tolist(), table.empty.tolist(),
                      table.constrained.tolist()),
            "reports": table_reports(table)}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=table_cases())
def test_array_table_is_bit_identical_to_pointwise(case):
    args = (case["inclusion"], case["reducers"], np.array(case["nodes"]),
            case["t"])
    saved, grids._CHUNK = grids._CHUNK, case["chunk"]
    try:
        reference = _forced(reduction_table, *args)
        public = _outcome(reduction_table, *args)
    finally:
        grids._CHUNK = saved
    if isinstance(reference, tuple):
        assert public == reference
    else:
        assert _table_key(public) == _table_key(reference)
        assert _table_key(reference)["reports"] == _row_reports(reference)


@pytest.mark.parametrize("name", available_fixtures())
def test_fixture_tables_take_the_array_path(name, tmp_path, monkeypatch):
    system = load_fixture(name)
    _arrays_only(monkeypatch)
    flags = [[]] + [["--baseline"]] * system.candidate.regular
    for command in ("reduce", "deriv"):
        for extra in flags:
            assert main([command, "-i", str(fixture_path(name)),
                         "-o", str(tmp_path), *extra]) == 0


@pytest.mark.parametrize("name", ["example1", "example2", "example3",
                                  "example6"])
def test_fine_grid_reports_equal_the_pointwise_table(name, tmp_path):
    assert main(["reduce", "-i", str(fixture_path(name)), "--grid", "201",
                 "-o", str(tmp_path)]) == 0
    system = load_fixture(name)
    grid = system.require_grid().with_uniform_counts(201)
    table = _forced(reduction_table, system.inclusion, system.reducers,
                    grid_nodes(grid, system.domain), grid.time_nodes[0])
    for path, report in zip(("reduction_table.csv", "reduction_table.txt"),
                            table_reports(table)):
        assert (tmp_path / path).read_bytes() == report.encode()


# Endpoints with both zeros, infinities and the extreme magnitudes.
ENDPOINTS = (0.0, -0.0, 0.5, -2.5, 1e308, 5e-324, float("inf"),
             float("-inf"))


def _table(n, x, t, base, reduced, constrained):
    """A reduction table from per-row ``(lo, hi)`` corner pairs, ``None``
    for an empty box, with 0.0 endpoints on empty rows as the reduction
    job gives them."""
    def columns(boxes):
        lo = np.array([b[0] if b else (0.0,) * n for b in boxes]).T
        hi = np.array([b[1] if b else (0.0,) * n for b in boxes]).T
        return (lo.reshape(n, len(boxes)), hi.reshape(n, len(boxes)),
                np.array([b is None for b in boxes], dtype=bool))
    return Table(np.array(x, dtype=float).reshape(len(x), n), t,
                 *columns(base), *columns(reduced),
                 np.array(constrained, dtype=bool).reshape(len(x), n).T)


@st.composite
def report_cases(draw):
    """A table of 1 to 3 axes over 1 to 9 rows, whose F is sometimes empty
    and whose reduction is empty more often, and a chunk size."""
    n, rows = draw(st.integers(1, 3)), draw(st.integers(1, 9))
    value = st.sampled_from(ENDPOINTS)

    def box():
        pairs = [sorted(draw(st.tuples(value, value))) for _ in range(n)]
        return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)

    base = [box() if draw(st.integers(0, 3)) else None for _ in range(rows)]
    reduced = [b and draw(st.booleans()) and box() or None for b in base]
    return (_table(n, [draw(st.tuples(*[value] * n)) for _ in range(rows)],
                   draw(st.sampled_from([0.0, -0.0, 1.0, 1e-300])), base,
                   reduced, [draw(st.tuples(*[st.booleans()] * n))
                             for _ in range(rows)]),
            draw(st.sampled_from([1, 3, 4096])))


@settings(max_examples=200, deadline=None)
@given(case=report_cases())
def test_reports_equal_the_row_by_row_reports(case):
    table, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grids, "_CHUNK", chunk)
        assert table_reports(table) == _row_reports(table)


@pytest.mark.parametrize("n", [1, 3])
def test_all_empty_chunk_reports_equal_the_row_by_row_reports(
        n, monkeypatch):
    """Chunks of 3 rows: the middle chunk has an empty F or an empty
    reduction on every row, the others none."""
    lo, hi = (-0.0,) * n, (float("inf"),) * n
    base = [(lo, hi)] * 3 + [None, (lo, hi), None] + [(lo, hi)] * 2
    reduced = base[:3] + [None] * 3 + base[6:]
    constrained = [(True,) * n, (False,) * n] * 4
    table = _table(n, [(float(r),) * n for r in range(8)], 0.0, base,
                   reduced, constrained)
    monkeypatch.setattr(grids, "_CHUNK", 3)
    csv_text, text = table_reports(table)
    assert (csv_text, text) == _row_reports(table)
    assert f"F=IntervalBox.empty({n})  reduced=empty" in text
    assert "," * (4 * n + 1) + "1\n" in csv_text  # F and reduction blank


# --- the deriv table -------------------------------------------------------

def _loop_deriv_csv(system, nodes, t0) -> str:
    """``derivatives.csv`` by a loop over the nodes, written here as the
    reference: the three pointwise derivatives in column order (the
    common-value one is the generalized derivative with the candidate
    alone, for a regular candidate), each row by ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x1", "x2", "t", "generalized", "baseline_max",
                     "baseline_lo", "baseline_hi"])
    for x in nodes:
        gen = deriv.generalized_derivative(system.candidate, system.inclusion,
                                           system.reducers, list(x), t0)
        if not system.candidate.regular:
            raise SchemaError(f"{system.candidate.name}: the common-value "
                              "derivative requires a regular candidate")
        bmax = deriv.generalized_derivative(
            system.candidate, system.inclusion, (system.candidate,), list(x),
            t0)
        bint = deriv.baseline_interval_derivative(
            system.candidate, system.inclusion, list(x), t0)
        row = [repr(v) for v in x] + [repr(t0)]
        row.append("-inf" if gen is None else repr(gen))
        row.append("-inf" if bmax is None else repr(bmax))
        row += ["", ""] if bint is None else [repr(bint.lo), repr(bint.hi)]
        writer.writerow(row)
    return buf.getvalue()


def _cli_deriv_csv(system, nodes, t0, chunk: int) -> str:
    """``derivatives.csv`` as ``incred deriv`` writes it for ``system`` on
    ``nodes`` at ``t0``, in chunks of ``chunk`` rows."""
    grid = SimpleNamespace(time_nodes=(t0,), dims=2,
                           checked_axes=lambda domain: nodes)
    loaded = SimpleNamespace(n=2, domain=None, require_grid=lambda: grid,
                             **vars(system))
    with tempfile.TemporaryDirectory() as out, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_load", lambda args: loaded)
        mp.setattr(cli, "_region", grids._rows)  # the nodes as they are
        mp.setattr(grids, "_CHUNK", chunk)
        cli.cmd_deriv(SimpleNamespace(out=out))
        with open(f"{out}/derivatives.csv", "rb") as fh:
            return fh.read().decode()


@st.composite
def deriv_cases(draw):
    """A ``deriv`` input: F often widened by [-2, 2] (so that pinches keep
    rows), sometimes with infinite or empty pieces (minus-infinity rows
    and blank cells), the candidate rarely non-regular, ``--baseline``
    (the candidate its only reducer) half the time; risky cases raise on
    some nodes mid-grid."""
    risky = draw(st.booleans())

    def widened(value):
        kind = draw(st.sampled_from(["as is", "widened"] * 2 + ["infinite"]))
        if kind == "as is":
            return value
        return ex.SumSet((value, ex.IntervalSet(
            ex.Num(-2.0), ex.Num(2.0) if kind == "widened" else ex.BinOp(
                "*", ex.Num(1e308), ex.Num(10.0)))))

    def function(regular):
        return RegularFunctionSpec("f", 2, ex.Num(0.0), _piecewise(
            draw, risky, 3, risky), regular)

    inclusion = PiecewiseBoxMap(2, 2, [
        Piece(p.guard, p.values and tuple(map(widened, p.values)))
        for p in _piecewise(draw, risky, 2, True).pieces], PARAMS)
    candidate = function(draw(st.integers(0, 7)) > 0)
    reducers = [candidate] if draw(st.booleans()) else [
        function(True) for _ in range(draw(st.integers(0, 2)))]
    return {"system": SimpleNamespace(candidate=candidate,
                                      inclusion=inclusion, reducers=reducers),
            "nodes": draw(st.lists(st.tuples(st.sampled_from(COORDS),
                                             st.sampled_from(COORDS)),
                                   min_size=1, max_size=12)),
            "t": draw(st.sampled_from([0.0, -0.0, 1.0])),
            "chunk": draw(st.sampled_from([1, 2, 3, 4096]))}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=deriv_cases())
def test_deriv_table_equals_the_node_by_node_loop(case):
    """The bytes of ``derivatives.csv``, or the first error, are those of
    the loop over the nodes through the three pointwise derivatives."""
    args = case["system"], case["nodes"], case["t"]
    assert _outcome(_cli_deriv_csv, *args, case["chunk"]) \
        == _outcome(_loop_deriv_csv, *args)


@pytest.mark.parametrize("chunk", [1, 2, 4096])
def test_the_interval_column_raises_first_at_an_earlier_node(chunk):
    """F's first axis is [-inf, 1] and V's gradient straddles 0 there: the
    intersection derivative is NaN (0 * inf) at every node, the
    generalized one only where the reducer's gradient stops pinching the
    axis, at the second node. The loop over the nodes raises the first
    node's interval error, which a column-by-column refill would not."""
    def gradient(first_axis_moves: str):
        return PiecewiseBoxMap(2, 3, [
            Piece(ex.parse_guard(first_axis_moves), (
                ex.parse_set("[-1, 1]"), ex.parse_set("{0}"),
                ex.parse_set("{0}"))),
            Piece(ex.TrueGuard(), tuple(
                ex.parse_set("{0}") for _ in range(3)))])

    system = SimpleNamespace(
        inclusion=PiecewiseBoxMap(2, 2, [Piece(ex.TrueGuard(), (
            ex.parse_set("[-1e308*10, 1]"),
            ex.parse_set("{0}")))]),
        candidate=RegularFunctionSpec("V", 2, ex.Num(0.0),
                                      gradient("x1 < 5"), True),
        reducers=[RegularFunctionSpec("U", 2, ex.Num(0.0),
                                      gradient("x1 < 0"), True)])
    nodes = [(-1.0, 0.0), (1.0, 0.0)]
    message = "V: the baseline interval derivative is NaN at x=(-1.0, 0.0)"
    assert _outcome(_loop_deriv_csv, system, nodes, 0.0)[1].startswith(
        message)
    assert _outcome(_cli_deriv_csv, system, nodes, 0.0, chunk) \
        == _outcome(_loop_deriv_csv, system, nodes, 0.0)


# --- the Matrosov Y table -------------------------------------------------

Y_NAMES = ("z1", "x1", "x2")
Y_LEAVES = [ex.Num(v) for v in NUMS] + [ex.Var(v) for v in Y_NAMES]


@st.composite
def aux_cases(draw):
    """Y_1..Y_M over (z1, x1, x2) with z and x nodes, and a chunk size.

    Half of them are free of every pointwise error. Half end with
    ``1e308*x1*2``, infinite (an array hazard) only where ``|x1| >= 1``.
    """
    risky = draw(st.booleans())
    aux = tuple(_scalar(draw, risky, leaves=Y_LEAVES)
                for _ in range(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        aux += (ex.BinOp("*", ex.BinOp("*", ex.Num(1e308), X1),
                         ex.Num(2.0)),)
    coord = st.sampled_from(COORDS)
    z_nodes = draw(st.lists(st.tuples(coord), min_size=1, max_size=4))
    x_nodes = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    return aux, z_nodes, x_nodes, draw(st.sampled_from([1, 3, 4096]))


def _aux_reference(aux, z_nodes, x_nodes):
    """Rows x outer, z inner (one z when no Y reads z), then Y row by row
    with the scalar closures."""
    if not any("z1" in ex.free_vars(y) for y in aux):
        z_nodes = z_nodes[:1]
    rows = [z + x for x in x_nodes for z in z_nodes]
    fns = [ex.compile_scalar(y) for y in aux]
    try:
        y = [[fn(dict(zip(Y_NAMES, row))) for fn in fns] for row in rows]
    except Exception as e:  # compared with the table's own error below
        return rows, (type(e), str(e))
    return rows, np.array(y).reshape(len(rows), len(aux)).T


def _table_bits(table):
    if isinstance(table, tuple) and isinstance(table[0], type):
        return table  # an error
    points, y = table
    return [struct.pack("d", v)
            for v in np.ravel(points).tolist() + np.ravel(y).tolist()]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=aux_cases())
def test_array_aux_table_is_bit_identical_to_pointwise(case):
    aux, z_nodes, x_nodes, chunk = case
    prob = MatrosovData(
        delta=0.1, big_delta=2.0, gamma=1.0, phi=(ex.Num(0.0),), aux=aux,
        functions=(), collections=(), z_counts=(3,))
    args = (prob, z_nodes, x_nodes)
    saved, grids._CHUNK = grids._CHUNK, chunk
    try:
        reference = _forced(row_table, *args)
        public = _outcome(row_table, *args)
    finally:
        grids._CHUNK = saved
    assert _table_bits(public) == _table_bits(reference)
    rows, expected = _aux_reference(aux, z_nodes, x_nodes)
    if isinstance(expected, tuple):
        assert reference == expected
    else:
        assert _table_bits(reference) == _table_bits(
            (np.array(rows, dtype=float), expected))


# --- the trajectory checks ------------------------------------------------

@st.composite
def trajectory_cases(draw):
    """A trajectory of rows ``t, x1, x2, q1, q2, V`` on the grid coordinates,
    with F, reducers, a descent bound and a tail observable that read the
    time through ``t`` and ``g``. Half of them are free of every pointwise
    error; a quarter have infinite coordinates. A third of the bounds
    divide by ``x1`` (an error on x1 == 0 rows, met by both paths) and a
    third add ``1e308*x1*2`` (infinite, an array hazard, where
    ``|x1| >= 1``)."""
    risky = draw(st.booleans())
    # an infinite coordinate makes inf - inf difference quotients
    coord = st.sampled_from(COORDS + (float("inf"),) * (
        risky and draw(st.booleans())))
    steps = draw(st.integers(1, 12))
    x = draw(st.lists(st.tuples(coord, coord), min_size=steps + 1,
                      max_size=steps + 1))
    t0, h = draw(st.sampled_from([0.0, 1.0, 5.0])), draw(
        st.sampled_from([0.25, 1.0]))
    v = draw(st.lists(st.sampled_from(NUMS + (float("nan"), float("inf"))),
                      min_size=steps + 1, max_size=steps + 1))
    q = draw(st.lists(st.tuples(coord, coord), min_size=steps,
                      max_size=steps))
    rows = np.array([(t0 + k * h, *x[k], *q[k], v[k])
                     for k in range(steps)])
    traj = Trajectory(t0, h, t0 + steps * h, SelectionStrategy(), rows,
                      t0 + steps * h, x[-1], v[-1], False)
    bound = _scalar(draw, risky)
    tail = draw(st.sampled_from(["divide", "overflow", None]))
    if tail == "divide":
        bound = ex.BinOp("+", bound, ex.BinOp("/", X2, X1))
    elif tail == "overflow":
        bound = ex.BinOp("+", bound, ex.BinOp(
            "*", ex.BinOp("*", ex.Num(1e308), X1), ex.Num(2.0)))
    system = SimpleNamespace(
        inclusion=_piecewise(draw, risky, 2, True),
        reducers=[RegularFunctionSpec("u", 2, ex.Num(0.0),
                                      _piecewise(draw, risky, 3, risky), True)
                  for _ in range(draw(st.integers(0, 2)))])
    return {"traj": traj, "system": system, "bound": bound,
            "observable": draw(st.sampled_from([bound, _scalar(draw, risky)])),
            "tol": draw(st.sampled_from([None, 0.0, 0.5])),
            "tail_fraction": draw(st.sampled_from([0.2, 0.5, 0.9])),
            "chunk": draw(st.sampled_from([1, 3, 4096]))}


def _checks(case):
    """The three trajectory reports (or each one's error) and the CSV."""
    traj, system = case["traj"], case["system"]
    return [
        _report_key(_outcome(check_reduction_membership, traj, system,
                             case["tol"])),
        _report_key(_outcome(check_lyapunov_descent, traj, system,
                             case["bound"])),
        _report_key(_outcome(check_partial_convergence, traj, system,
                             case["observable"], case["tail_fraction"])),
        "".join(_csv_chunks(traj))]


def _report_key(report):
    if isinstance(report, tuple):
        return report  # an error
    return {k: struct.pack("d", v) if isinstance(v, float) else v
            for k, v in report.to_dict().items()}


def _scalar_checks(case):
    """The reports by the pointwise API, step by step (None where it
    raises), and the CSV by ``csv.writer``, row by row."""
    traj, sys = case["traj"], case["system"]
    inf, nan_safe_max = float("inf"), lambda vals, start: max([start, *vals])
    states, h = traj.states().tolist(), traj.h
    out = []
    try:
        dists = [distance_to(red.reduce_collection(
                     sys.inclusion, sys.reducers, s.x, s.t),
                     [(b - a) / h for a, b in zip(s.x, states[k + 1])])
                 for k, s in enumerate(traj.steps)]
        tol = case["tol"]
        if tol is None:
            scale = max(max_vertex_norm(eval_map(sys.inclusion, s.x, s.t))
                        for s in traj.steps)
            tol = 1e-2 * max(1.0, scale)
        bad = sum(not d <= tol for d in dists)
        out.append(MembershipReport(
            len(dists), bad, bad / len(dists),
            nan_safe_max([d for d in dists if d != inf], 0.0), tol, 0.01,
            bad / len(dists) <= 0.01, sum(d != d for d in dists)))
    except Exception:
        out.append(None)
    try:
        fn = ex.compile_scalar(case["bound"])
        values = traj.rows[:, -1].tolist() + [traj.final_v]
        slack = 10.0 * h * h
        w = [fn(sys.inclusion.env(s.x, s.t)) for s in traj.steps]
        dv = [b - a for a, b in zip(values, values[1:])]
        odd = [not all(map(math.isfinite, (wk, a, b)))
               for wk, a, b in zip(w, values, values[1:])]
        bound_bad = sum(not d <= -h * wk + slack or o
                        for d, wk, o in zip(dv, w, odd))
        mono_bad = sum(not d <= slack for d in dv)
        out.append(DescentReport(
            bound_bad, mono_bad,
            nan_safe_max([d / h + wk for d, wk in zip(dv, w)], -inf), slack,
            bound_bad == 0 and mono_bad == 0, sum(odd)))
    except Exception:
        out.append(None)
    try:
        fn = ex.compile_scalar(case["observable"])
        times = traj.rows[:, 0].tolist() + [traj.final_t]
        start = len(states) - max(
            1, math.ceil(case["tail_fraction"] * len(states)))
        tail = [fn(sys.inclusion.env(x, t))
                for x, t in zip(states[start:], times[start:])]
        top, odd = nan_safe_max(tail, -inf), sum(
            not math.isfinite(v) for v in tail)
        out.append(TailReport(top, start, case["tail_fraction"], 1e-3,
                              top < 1e-3 and not odd, odd))
    except Exception:
        out.append(None)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x1", "x2", "q1", "q2", "V"])
    for s in traj.steps:
        writer.writerow([repr(v) for v in (s.t, *s.x, *s.q, s.v)])
    writer.writerow([repr(traj.final_t), *map(repr, traj.final_x), "", "",
                     repr(traj.final_v)])
    return [None if r is None else _report_key(r) for r in out] + [
        buf.getvalue()]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=trajectory_cases())
def test_array_trajectory_checks_are_bit_identical_to_pointwise(case):
    saved, grids._CHUNK = grids._CHUNK, case["chunk"]
    try:
        with pytest.MonkeyPatch.context() as mp:
            _pointwise_only(mp)
            reference = _checks(case)
        public = _checks(case)
    finally:
        grids._CHUNK = saved
    assert public == reference
    # the pointwise API agrees wherever it does not raise
    for got, want in zip(public, _scalar_checks(case)):
        if want is not None and not isinstance(got, tuple):
            assert got == want
