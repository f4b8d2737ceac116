"""The streamed scans against whole-column references, and the streamed
``reduce`` and ``deriv`` reports.

``certify_lyapunov``, ``certify_semidefinite``, ``invariance_data`` and
``matrosov_derivative_bounds`` fold each chunk of nodes into their verdict
as ``reduction._stream`` hands it over, in node order, the cells the
arrays flag refilled in it. The references here evaluate the whole
columns first (the derivative scan on ``GridSpec.nodes``) and reduce them
in scan order, as the scans did before they streamed: the dicts must
agree, the witness's bits included, whatever the chunk size.
"""

import json
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import incred.certify as certify
import incred.grids as grids
import incred.reduction as reduction
from incred.certify import (CERTIFIED, VIOLATED, Certificate,
                            build_matrosov_problem, certify_lyapunov,
                            certify_semidefinite, invariance_data,
                            matrosov_derivative_bounds)
from incred.cli import main
from incred.errors import DslEvalError
from incred.expr import DEFAULT_VARIABLES, parse_scalar
from incred.fixtures import fixture_path, load_fixture
from incred.setmaps import CheckSpec, system_from_dict

from scans import derivative_scans

TOL = 1e-9
DOCS = {}


def _doc(name):
    if name not in DOCS:
        with open(fixture_path(name), "r", encoding="utf-8") as fh:
            DOCS[name] = json.load(fh)
    return json.loads(json.dumps(DOCS[name]))


# --- the whole-column references -------------------------------------------

def _certificate(condition, margin, counted, pts, times, tolerances,
                 summary, details, failures=(), count=None):
    """The verdict on whole ``(time nodes, nodes)`` margins (or jobs of
    them, stacked on a leading axis), the first maximal one as witness."""
    margin, counted = margin.ravel().copy(), counted.ravel()
    violations = int(np.count_nonzero(
        counted & ~(np.isfinite(margin) & (margin <= TOL))))
    nonfinite = int(np.count_nonzero(counted & ~np.isfinite(margin)))
    margin[~counted | np.isnan(margin)] = -np.inf
    k = int(np.argmax(margin)) if margin.size else 0
    worst = (None, None, None)
    if margin.size and margin[k] > -np.inf:
        a, b = divmod(k, len(pts))
        worst = tuple(pts[b].tolist()), times[a % len(times)], float(margin[k])
    if count is not None:
        details[count] = violations
    if nonfinite:
        details["nonfinite_margins"] = nonfinite
    if failures:
        details["screen_failures"] = list(failures)
    return Certificate(CERTIFIED if not violations and not failures
                       else VIOLATED, condition, *worst, tolerances, summary,
                       details)


def _reference_decrease(sys, bound, sandwich, definite):
    grid, candidate = sys.require_grid(), sys.candidate
    pts, times = grid.nodes(sys.domain), grid.time_nodes
    extras = [(bound, sys.inclusion)]
    if definite or sandwich is not None:
        extras += [(candidate.value, candidate.gradient)]
    extras += [(e, sys.inclusion) for e in sandwich or ()]
    scan, = derivative_scans(sys.inclusion, [(candidate, sys.reducers,
                                               extras)], pts, times)
    w, nonzero = scan.extras[0], (pts != 0.0).any(axis=1)
    failures, details = [], {}

    def first(bad, column):  # the first flagged pair in scan order
        if bad.any():
            a, b = divmod(int(np.argmax(bad)), len(pts))
            return pts[b].tolist(), times[a], float(column[a, b])

    def positive(name, column):
        hit = first(~(column > 0.0) & nonzero, column)
        if hit:
            failures.append(f"{name}({hit[0]}) = {hit[2]!r} at t={hit[1]!r} "
                            "fails positivity")

    if definite:
        certify._origin_value_screen(candidate.name, candidate.value,
                                     candidate.gradient, times, failures)
        positive(candidate.name, scan.extras[1])
        details["nodes_checked"] = scan.minus_inf.size
    elif (hit := first(~(w >= -TOL), w)) is not None:
        failures.append(f"bound({hit[0]}) = {hit[2]!r} at t={hit[1]!r} "
                        "is negative")
    if sandwich is not None:
        v, lower, upper = scan.extras[1:]
        names = ("lower envelope", "upper envelope")
        for name, e in zip(names, sandwich):
            certify._origin_value_screen(name, e, sys.inclusion, times,
                                         failures)
        for name, column in zip(names, (lower, upper)):
            positive(name, column)
        escapes = int(np.count_nonzero(
            ~((lower - TOL <= v) & (v <= upper + TOL))))
        if escapes:
            failures.append(f"candidate escapes the envelopes at {escapes} "
                            "node/time pairs")
        details.update(sandwich_checked=True, sandwich_violations=escapes)
    details.update(note=certify._GRID_NOTE,
                   minus_inf_nodes=int(np.count_nonzero(scan.minus_inf)),
                   reducers=[u.name for u in sys.reducers])
    return _certificate(
        "lyapunov-decrease" if definite else "semidefinite-decrease",
        scan.value + w, ~scan.minus_inf, pts, times, {"margin_tol": TOL},
        grid.summary(sys.domain), details, failures, "derivative_violations")


def _reference_invariance(sys):
    if sys.time_dependent:
        return invariance_data(sys)  # raises
    grid, checks = sys.require_grid(), sys.checks or CheckSpec()
    pts, t0 = grid.nodes(sys.domain), grid.time_nodes[0]
    scan, = derivative_scans(sys.inclusion, [(sys.candidate, sys.reducers,
                                               ())], pts, (t0,))
    d, counted = scan.value[0], ~scan.minus_inf[0]
    e_nodes = [tuple(x) for x in pts[counted & (np.abs(d) <= checks.zero_tol)]
               .tolist()]
    cert = _certificate(
        "derivative-nonpositive", d, counted, pts, (t0,),
        {"margin_tol": TOL}, grid.summary(sys.domain),
        {"note": certify._GRID_NOTE,
         "minus_inf_nodes": int(np.count_nonzero(scan.minus_inf))},
        count="derivative_violations")
    return replace(invariance_data(sys), e_nodes=tuple(e_nodes),
                   semidefinite=cert)


def _reference_bounds(sys, prob):
    pts = grids._stacked(certify._annulus_nodes(prob, sys), sys.n)
    times = sys.require_grid().time_nodes
    z = {f"z{i+1}": phi for i, phi in enumerate(prob.phi)}
    scans = derivative_scans(sys.inclusion, [
        (w, coll, [(certify.expr.substitute(y, z), sys.inclusion)])
        for w, coll, y in zip(prob.functions, prob.collections, prob.aux)],
        pts, times)
    margins = np.array([s.value - s.extras[0] for s in scans])
    counted = np.array([~s.minus_inf for s in scans])
    per_function = [int(np.count_nonzero(c & ~(np.isfinite(m) & (m <= TOL))))
                    for m, c in zip(margins, counted)]
    return _certificate(
        "matrosov-derivative-bounds", margins, counted, pts, times,
        {"margin_tol": TOL}, {"x_nodes": len(pts), "time_nodes": list(times)},
        {"note": "informational screen; the chain and constants "
                 "certificates do not depend on it",
         "violations_per_function": per_function})


# --- the differential test --------------------------------------------------

def _bits(obj):
    """``obj`` with every float as its bytes, so -0.0 and NaN compare."""
    if isinstance(obj, float):
        return struct.pack("d", obj)
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


def _outcome(fn, *args):
    try:
        return _bits(fn(*args).to_dict())
    except Exception as e:  # the reference's own error, compared below
        return type(e), str(e)


# A front piece of F: its array guard flags the rows with x1 == 0 (divides
# there) while the scalar guard short-circuits, or raises there too.
FRONT = {"refilled": "x1 != 0 and 1/x1 > 100", "raising": "1/x1 > 100"}
BOUNDS = ("0", "1", "x1*x1 + x2*x2", "x1*x1", "0.5*x2*x2 - 0.1",
          "1e308*x1*10", "h*x1", "abs(x1) + 1e-300")
COORDS = (-1.5, -0.5, -0.0, 0.0, 0.25, 1.0)


@st.composite
def cases(draw):
    """A fixture with a drawn grid, time nodes, bound, envelopes and chunk
    size, and maybe a front piece whose rows the arrays flag. ``h`` is a
    parameter that is NaN at t = 0 and inf after; the bound 0 on
    trivial_zero ties every margin, across chunks and time nodes."""
    name = draw(st.sampled_from(["trivial_zero", "example2", "example3",
                                 "example5", "example6"]))
    doc = _doc(name)
    doc["params"] = {**doc.get("params", {}), "h": "t*1e999"}
    doc["grid"]["counts"] = [draw(st.integers(2, 6)) for _ in range(2)]
    doc["grid"]["include"] = [sorted(set(draw(st.lists(
        st.sampled_from(COORDS), max_size=3)))) for _ in range(2)]
    doc["grid"]["time_nodes"] = draw(st.lists(
        st.sampled_from([0.0, 1.0, 5.0]), min_size=1, max_size=3))
    front = draw(st.sampled_from([None, "refilled", "raising"]))
    if front:
        doc["F"]["pieces"].insert(0, {"guard": FRONT[front],
                                      "value": ["{x2}", "{-x1 - x2}"]})
    sandwich = draw(st.sampled_from([None, ("0.25*(x1*x1 + x2*x2)",
                                            "x1*x1 + x2*x2"),
                                     ("x1*x1", "1")]))
    return (doc, parse_scalar(draw(st.sampled_from(BOUNDS)),
                              DEFAULT_VARIABLES | {"h"}),
            sandwich and tuple(map(parse_scalar, sandwich)),
            draw(st.sampled_from([1, 2, 5, 4096])))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_streamed_verdicts_equal_the_whole_columns(case):
    """Verdict, witness point, t and margin bits, violation and nonfinite
    counts, screen failures and e_nodes, or the same error: grids split
    across chunks of 1, 2 and 5 nodes, flagged rows refilled after the
    array pass, NaN and infinite margins, and ties of the largest margin
    across chunks and time nodes."""
    doc, bound, sandwich, chunk = case
    system = system_from_dict(doc)
    calls = [(certify_lyapunov, _reference_decrease, True),
             (certify_semidefinite, _reference_decrease, False)]
    expected = [_outcome(ref, system, bound, sandwich, definite)
                for _, ref, definite in calls]
    expected.append(_outcome(_reference_invariance, system))
    problem = system.matrosov and build_matrosov_problem(system)
    if problem:
        expected.append(_outcome(_reference_bounds, system, problem))
    saved, grids._CHUNK = grids._CHUNK, chunk
    try:
        public = [_outcome(lambda s, fn=fn: fn(s, bound, sandwich=sandwich),
                           system) for fn, *_ in calls]
        public.append(_outcome(invariance_data, system))
        if problem:
            public.append(_outcome(matrosov_derivative_bounds, system,
                                   problem))
    finally:
        grids._CHUNK = saved
    assert public == expected


def test_a_tie_across_time_nodes_and_a_refill_keeps_the_first_cell():
    """trivial_zero with W = 0 at time nodes 5, 0: every margin is 0.0, and
    a front piece flags the x1 == 0 rows, refilled after the array pass.
    The witness is the first node at the first time node."""
    doc = _doc("trivial_zero")
    doc["F"]["pieces"].insert(0, {"guard": FRONT["refilled"],
                                  "value": ["{0}", "{0}"]})
    doc["grid"].update(counts=[3, 3], include=[[], []], time_nodes=[5, 0])
    system = system_from_dict(doc)
    first = tuple(system.grid.nodes(system.domain)[0].tolist())
    for chunk in (1, 2, 4096):
        saved, grids._CHUNK = grids._CHUNK, chunk
        try:
            cert = certify_semidefinite(system, parse_scalar("0"))
        finally:
            grids._CHUNK = saved
        assert (cert.worst_point, cert.worst_t) == (first, 5.0)
        assert struct.pack("d", cert.worst_margin) == struct.pack("d", 0.0)
        assert cert.details["derivative_violations"] == 0


# --- memory -------------------------------------------------------------------

def _peak(fn) -> int:
    fn()  # compiled closures are cached from here on
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _at(name, count):
    system = load_fixture(name)
    return replace(system, grid=system.require_grid().with_uniform_counts(
        count))


def test_certify_memory_does_not_grow_with_the_grid():
    """example6's semidefinite check at 101^2 and 401^2 nodes (3 time
    nodes): 16 times the nodes, the same chunks. Whole columns made the
    peak grow with the grid."""
    small, large = (_at("example6", n) for n in (101, 401))
    peaks = [_peak(lambda s=s: certify_semidefinite(s, s.checks.semidef_bound))
             for s in (small, large)]
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_invariance_memory_does_not_grow_with_the_grid():
    small, large = (_at("example2", n) for n in (101, 401))
    peaks = [_peak(lambda s=s: invariance_data(s)) for s in (small, large)]
    assert peaks[1] <= 1.2 * peaks[0], peaks
    assert math.prod(large.grid.summary(large.domain)["axis_node_counts"]) \
        > 16 * 10_000


def test_table_memory_does_not_grow_with_the_grid(tmp_path):
    """``reduce`` and ``deriv`` on example2 at 101^2 and 401^2 nodes: each
    chunk's report rows are written before the next chunk is evaluated."""
    for command in ("reduce", "deriv"):
        peaks = [_peak(lambda n=n: main([
            command, "-i", str(fixture_path("example2")), "--grid", str(n),
            "-o", str(tmp_path / command)])) for n in (101, 401)]
        assert peaks[1] <= 1.2 * peaks[0], (command, peaks)


# --- a cell that raises -----------------------------------------------------

def _files(path):
    """Every directory and file under ``path``, with each file's bytes."""
    return {str(p.relative_to(path)): p.is_file() and p.read_bytes()
            for p in sorted(path.rglob("*"))}


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("command", ["reduce", "deriv"])
def test_a_raising_last_cell_leaves_the_output_as_it_was(
        command, chunk, tmp_path, monkeypatch, capsys):
    """example2 behind a front piece of F whose guard divides by the l1
    distance from (2, 2): of the 13^2 nodes of ``--grid 11`` only the last
    raises, in the last chunk. The run exits 3 with the pointwise error;
    the reports of an earlier run keep their bytes, no report is left
    behind, and no output directory is made."""
    doc = _doc("example2")
    doc["F"]["pieces"].insert(0, {
        "guard": "1/(abs(x1 - 2) + abs(x2 - 2)) > 100",
        "value": ["{x2}", "{-x1 - x2}"]})
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(doc), encoding="utf-8")
    earlier = tmp_path / "earlier"
    assert main([command, "-i", str(fixture_path("example2")), "--grid",
                 "11", "-o", str(earlier)]) == 0
    before = _files(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr(grids, "_CHUNK", chunk)
    for out in (earlier, tmp_path / "new" / "deeper"):
        assert main([command, "-i", str(planted), "--grid", "11",
                     "-o", str(out)]) == 3
        assert capsys.readouterr() == (
            "", "error: division by near-zero denominator 0.0\n")
        assert _files(tmp_path) == before


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_no_chunk_is_folded_from_the_raising_one_on(chunk, monkeypatch):
    """Ten nodes along x1 and one expression that divides by ``x1 - 6``:
    node 6's cell raises. The fold sees the chunks before node 6's and no
    other, and the walk ends with node 6's chunk."""
    monkeypatch.setattr(grids, "_CHUNK", chunk)
    walk, count = grids._rows(np.array([(float(k), 0.0) for k in range(10)]))
    walked, folded = [], []

    def recorded_walk():
        for x in walk():
            walked.append(x.shape[1])
            yield x

    job = reduction._expression_job([(parse_scalar("1/(x1 - 6)"), None)],
                                    ("x1", "x2"))
    with pytest.raises(DslEvalError, match="denominator 0.0$"):
        reduction._stream([job], (recorded_walk, count), [0.0],
                          lambda j, rows, x, columns: folded.append(
                              (rows.start, rows.stop)))
    first = 6 // chunk * chunk  # the raising chunk's first node
    assert folded == [(a, a + chunk) for a in range(0, first, chunk)]
    assert sum(walked) == min(first + chunk, 10)
