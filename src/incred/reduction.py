"""Pointwise reduction of a differential inclusion by regular functions.

A regular function whose declared gradient at ``(x, t)`` is a box B
admits, as feasible velocities, exactly those ``q`` for which the linear
form ``p -> p . [q; 1]`` is constant over ``p in B``. Because B is a box,
constancy decomposes axiswise: every nondegenerate *state* axis ``i`` of
B forces ``q_i = 0``, and a nondegenerate *time* axis forces emptiness
outright (the form always has coefficient 1 there). The reduction of a
box-valued inclusion is therefore exact: each constrained axis of the
inclusion value is pinched to ``{0}`` when it contains 0 and the result
is empty otherwise. No tolerance is involved, which is what lets the
worked systems reproduce their case tables with zero slack.

Reducing by a *collection* intersects the single reductions, which for
boxes is one pinch on the union of the state axes the gradients move
along; any moving time axis empties the result. Every reducer's gradient
is evaluated, even where another one already empties the set.

The same rule also runs on numpy arrays of nodes (:func:`_reduce_arrays`).
:func:`_stream`, the one array driver, runs jobs on chunks of nodes,
refills the cells the arrays flag with the pointwise functions, which
remain the reference, and hands each finished chunk's columns, in node
order, to a fold: the reduction table (whose reports :func:`_reporter`
writes a chunk at a time), scalar expressions as columns
(:func:`_expression_job`: the Matrosov Y table, the trajectory checks'
columns and the scans' extras), the derivative scans and the ``deriv``
table. :func:`_scan` is the fold that collects whole columns, for the
callers that read them whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

from . import expr
from .errors import DimensionMismatchError, DslEvalError, SchemaError
from .grids import _chunks, _rows
from .intervals import Interval, IntervalBox
from .setmaps import (PiecewiseBoxMap, RegularFunctionSpec, eval_gradient,
                      eval_map)

__all__ = [
    "ReducedValue", "reduce_collection",
    "ReductionTable", "tabulate_reduction",
]


@dataclass(frozen=True)
class ReducedValue:
    """Result of reducing one inclusion value by regular functions.

    ``constrained_axes`` holds the 1-based state axes some reducer's
    gradient moves along; they are pinched to zero together, once.
    ``time_obstruction`` is True when some gradient's time axis was
    nondegenerate, which empties the result regardless of the base box.
    Whenever ``result`` is nonempty it is a subset of ``base``.
    """
    base: IntervalBox
    constrained_axes: frozenset[int]
    result: IntervalBox
    time_obstruction: bool


def reduce_collection(inclusion: PiecewiseBoxMap,
                      reducers: Sequence[RegularFunctionSpec],
                      x: Sequence[float], t: float) -> IntervalBox:
    """Intersection of the reductions over a finite collection.

    An empty collection imposes no constraint and returns the inclusion
    value itself. The inclusion is evaluated once.
    """
    return _reduce(eval_map(inclusion, x, t), reducers, x, t).result


def _reduce(base: IntervalBox, reducers: Sequence[RegularFunctionSpec],
            x: Sequence[float], t: float) -> ReducedValue:
    """The one reduction rule: ``base`` (F at x, t) pinched to {0} on the
    state axes that each regular reducer's gradient, in order, moves along."""
    pinched, obstructed = set(), False
    for u in reducers:
        if not u.regular:
            raise SchemaError(
                f"{u.name}: reduction requires a regular function")
        for i, ax in enumerate(eval_gradient(u, x, t).axes, start=1):
            if not ax.is_degenerate:  # a direction the gradient moves in
                obstructed |= i == u.n + 1
                if i <= base.dims:
                    pinched.add(i)
    empty = obstructed or base.is_empty or not all(
        base.axes[i - 1].contains(0.0) for i in pinched)
    return ReducedValue(base, frozenset(pinched), IntervalBox.empty(
        base.dims) if empty else IntervalBox(
            Interval(0.0, 0.0) if i in pinched else ax
            for i, ax in enumerate(base.axes, start=1)), obstructed)


def _flagged(flags: np.ndarray) -> list[list[int]]:
    """The cells of a chunk that its ``(jobs, time nodes, nodes)`` mask
    ``flags`` hands to the pointwise reference, in C order."""
    return np.transpose(np.unravel_index(  # np.argwhere costs 50 us a chunk
        np.flatnonzero(flags), flags.shape)).tolist()


def _stream(jobs, nodes, times: Sequence, fold) -> None:
    """The one array driver: each ``(zero, arrays, pointwise)`` job's
    columns at every (time node, node) pair of the node set ``nodes``,
    handed a chunk of nodes at a time, in order, to ``fold(j, rows, x,
    columns)``: job j's columns (``np.shape(zero[c]) + (len(times), k)``)
    at the k nodes of the slice ``rows``, of coordinates ``x``. A time
    node is one time or one per node. ``arrays(at)`` returns a chunk's
    columns at a time node and the rows it may not reproduce (a falsy
    ``arrays`` flags every cell); ``at(m)`` is map m's value arrays there,
    once for every job, and ``at(m, f)`` ``f`` of them, once per chunk if
    m reads neither t nor a parameter and the time is scalar.

    Each flagged cell is refilled by ``pointwise(x, t)`` before its chunk
    is folded, in C order (:func:`_flagged`); a parameter error of the
    array pass stands for the cells of its (job, time node). Every cell
    whose pointwise fill could raise is flagged, so the bits are those of
    an all-pointwise run, and so is the error: the first in (job, time
    node, node) order is held, no fold is called from its chunk on, the
    walk stops once no later chunk can hold an earlier cell, and the held
    error is raised at the end."""
    walk, _ = nodes
    zeros = [[np.asarray(v) for v in zero] for zero, *_ in jobs]
    held, start = None, 0  # ((job, time node, node), the first error)
    # A chunk's arrays stay bound here until the next chunk's replace them,
    # so the allocator reuses their pages: freed at the chunk's end, they
    # went back to the system and were faulted in again.
    with np.errstate(all="ignore"):
        for batch in walk():
            rows, chunk, errors = slice(start, start + batch.shape[1]), {}, {}
            start = rows.stop
            flags = np.ones((len(jobs), len(times), batch.shape[1]), bool)
            out = [[np.empty(z.shape + flags.shape[1:], z.dtype) for z in zs]
                   for zs in zeros]
            for a, t in enumerate(times):
                now, t = {}, t[rows] if isinstance(t, np.ndarray) else t

                def at(m, derive=None):  # once for every job
                    if id(m) not in now:
                        if id(m) not in chunk:
                            chunk[id(m)] = m.chunk_arrays(batch)
                        now[id(m)] = chunk[id(m)](*m.env_arrays(batch, t))
                    if not derive:
                        return now[id(m)]
                    memo = now if m.time_dependent or np.ndim(t) else chunk
                    if (id(m), derive) not in memo:
                        memo[id(m), derive] = derive(now[id(m)])
                    return memo[id(m), derive]

                for j, (_, step, _) in enumerate(jobs):
                    try:  # raises the first parameter error, in map order
                        values, flags[j, a] = step(at) if step else ((), True)
                    except DslEvalError as e:  # flags[j, a] stays set
                        errors[j, a] = e
                        continue
                    for column, v in zip(out[j], values):
                        column[..., a, :] = v
            for j, a, b in _flagged(flags):
                if held and held[0] < (j, a, rows.start + b):
                    break
                t = times[a]
                try:
                    if (j, a) in errors:
                        raise errors[j, a]
                    cell = jobs[j][2](batch[:, b].tolist(), float(
                        t[rows.start + b]) if np.ndim(t) else t)
                except Exception as e:  # any type: a loop would raise it
                    held = (j, a, rows.start + b), e
                    break
                for column, v in zip(out[j], cell):
                    column[..., a, b] = v
            if held is None:
                for j, columns in enumerate(out):
                    fold(j, rows, batch, columns)
            elif held[0] < (0, 0, start):  # before every later cell
                break
    if held:
        raise held[1]


def _scan(jobs, pts: np.ndarray, times: Sequence) -> list[list[np.ndarray]]:
    """:func:`_stream` on the rows of ``pts``, collected: column k of job
    j has shape ``np.shape(zero[k]) + (len(times), len(pts))``."""
    out = [[np.empty(np.shape(v) + (len(times), len(pts)),
                     np.asarray(v).dtype) for v in zero] for zero, *_ in jobs]

    def collect(j, rows, x, columns):
        for column, values in zip(out[j], columns):
            column[..., rows] = values

    _stream(jobs, _rows(pts), times, collect)
    return out


def _expression_job(pairs, names: Sequence[str] = ()):
    """The :func:`_stream` job of scalar expressions as columns: each
    ``(expression, map)`` in ``m.env(x, t)``, or, for a None map, in the
    node axes named ``names``. ``arrays(at, bad)`` adds to the mask
    ``bad``, if given, the rows of a non-finite value or a NaN parameter
    (the reference raises its error even where no expression reads it)."""
    maps = [_extra(e, m, names) for e, m in pairs]
    scalar_fns = []  # compiled on the first pointwise cell

    def arrays(at, bad=None):
        values = []
        for value, m_bad in map(at, maps):
            values.append(value)
            m_bad = m_bad | ~np.isfinite(value)
            bad = m_bad if bad is None else bad | m_bad
        return values, bad

    def pointwise(x, t):
        if not scalar_fns:
            scalar_fns.extend((expr.compile_scalar(e), m.env)
                              for (e, _), m in zip(pairs, maps))
        return [fn(env(x, t)) for fn, env in scalar_fns]

    return (0.0,) * len(pairs), arrays, pointwise


def _extra(e: expr.ScalarExpr, m, names: Sequence[str]) -> SimpleNamespace:
    """``e`` as a map to :func:`_stream`'s ``at``, valued ``(values, NaN
    parameter rows)``: once per chunk if it reads only the node axes."""
    names = names if m is None else [f"x{i+1}" for i in range(m.n_in)]
    fn, fixed = expr.compile_scalar_array(e), expr.free_vars(e) <= set(names)
    m = m or SimpleNamespace(  # the node coordinates, no time or parameter
        env=lambda x, t: dict(zip(names, x)),
        env_arrays=lambda cols, t: ({}, np.zeros(len(cols[0]), bool)))

    def chunk_arrays(cols):
        x_env = dict(zip(names, cols))
        value = fn(x_env) if fixed else None
        return lambda env, bad: (value if fixed else fn({**env, **x_env}), bad)
    return SimpleNamespace(env=m.env, env_arrays=m.env_arrays,
                           chunk_arrays=chunk_arrays)


def _node_array(nodes, n: int) -> np.ndarray:
    """``nodes`` as a float array, which must be ``(N, n)``-shaped unless
    it is empty; a row's width is checked where the row is evaluated."""
    pts = np.asarray(nodes, dtype=float)
    if pts.ndim != 2 and pts.size:
        raise DimensionMismatchError(
            f"nodes must be an (N, {n}) array of points, got shape "
            f"{pts.shape}")
    return pts


def _gradient_arrays(f: RegularFunctionSpec, value):
    """Declared gradient endpoint arrays and the bad rows: those of
    ``value(f.gradient)`` (the map's value arrays), and an empty piece."""
    lo, hi, empty, bad = value(f.gradient)
    return lo, hi, bad | empty


def _pinch(gradient):
    """A gradient's value arrays as the state axes it moves along, the
    rows where its time axis moves, and its bad and empty rows."""
    g_lo, g_hi, empty, bad = gradient
    moving = g_lo != g_hi
    return moving[:-1], moving[-1], bad | empty


def _reduce_arrays(lo, hi, empty, bad, reducers, value):
    """Array form of :func:`_reduce`.

    ``lo``, ``hi`` (``(n, rows)``), ``empty`` and ``bad`` are the
    inclusion value on the batch, and ``value`` :func:`_stream`'s ``at``
    (a gradient's :func:`_pinch` comes once per chunk where it reads
    neither t nor a parameter). The state axes some reducer's gradient
    moves along are pinched to 0 together; a row is emptied where a
    pinched axis excludes 0 or some gradient's time axis moves. Returns
    the reduced ``(lo, hi, empty)`` (endpoints mean nothing on empty
    rows), the pinched-axes mask, and ``bad`` | the reducers' bad rows.
    """
    constrained = np.zeros(lo.shape, dtype=bool)
    for u in reducers:
        moving, obstructed, g_bad = value(u.gradient, _pinch)
        constrained |= moving
        empty = empty | obstructed
        bad = bad | g_bad
    empty = empty | (constrained & ~((lo <= 0.0) & (0.0 <= hi))).any(axis=0)
    return (np.where(constrained, 0.0, lo), np.where(constrained, 0.0, hi),
            empty, constrained, bad)


@dataclass(frozen=True, eq=False)
class ReductionTable:
    """The inclusion and its reduction at N nodes, as columns.

    ``x`` holds the nodes, one per row, and ``t`` their time: one float,
    or an ``(N,)`` array of one time per row. ``base_lo``/``base_hi`` and
    ``lo``/``hi`` are ``(n, N)`` endpoint arrays of the inclusion value
    and of its reduction, 0.0 on the rows that ``base_empty`` and
    ``empty`` flag as empty; ``constrained`` is the ``(n, N)`` mask of the
    state axes some reducer pinches.
    """
    x: np.ndarray
    t: float | np.ndarray
    base_lo: np.ndarray
    base_hi: np.ndarray
    base_empty: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    empty: np.ndarray
    constrained: np.ndarray

    @property
    def n(self) -> int:
        return len(self.base_lo)

    def report_chunks(self) -> Iterator[tuple[str, str]]:
        """The CSV and text reports as ``(csv, text)`` pieces: the CSV
        header, then ``_CHUNK`` rows at a time (see :func:`_reporter`).
        The reports state one time."""
        if np.ndim(self.t):
            raise ValueError("a table with one time per row has no report")
        yield _csv_header(self.n), ""
        if not len(self.x):
            yield "", "\n"  # the text report of no rows is one newline
            return
        report = _reporter(self.n, self.t)
        for rows in _chunks(len(self.x)):
            yield report(self.x[rows].T, *(c[..., rows] for c in (
                self.base_lo, self.base_hi, self.base_empty, self.lo,
                self.hi, self.empty, self.constrained)))

    def to_csv(self) -> str:
        return "".join(csv for csv, _ in self.report_chunks())

    def to_text(self) -> str:
        return "".join(text for _, text in self.report_chunks())


def _csv_header(n: int) -> str:
    return ",".join(
        [f"x{i+1}" for i in range(n)] + ["t"]
        + [f"{k}{i+1}" for k in ("F_lo", "F_hi", "Fred_lo", "Fred_hi")
           for i in range(n)] + ["empty_flag"]) + "\n"


def _reporter(n: int, t: float):
    """``report(x, base_lo, base_hi, base_empty, lo, hi, empty,
    constrained)``: the CSV and text rows of a chunk of the reduction
    table at time ``t``, its nodes ``x`` as ``(dims, k)`` and its columns
    as :class:`ReductionTable` holds them.

    Each report's chunk is a C-ordered ``(rows, cells)`` object array of
    finished text pieces, separators included, joined once. The value
    pieces come from role tables such as ``r + ","`` or ``"[" + r`` over
    the chunk's distinct reprs (see :func:`_reprs`), indexed by
    ``np.unique``'s inverse; fixed text fills constant columns, and the
    cells of an empty box are overwritten by masked assignment.
    """
    # a pinched_axes label per bit code of the mask (n <= 9: 512 at most)
    labels = "  pinched_axes=" + np.array(
        [",".join(str(i + 1) for i in range(n) if c >> i & 1) or "-"
         for c in range(1 << n)], dtype=object) + "\n"
    t = repr(t)

    def report(x, base_lo, base_hi, base_empty, lo, hi, empty, constrained):
        k = len(x)
        text, where = _reprs(np.concatenate([x, base_lo, base_hi, lo, hi]))
        where = where.T  # per row: x, then F_lo, F_hi, Fred_lo, Fred_hi
        # x1,...,t,F_lo1,...,F_hi1,...,Fred_lo1,...,Fred_hi1,...,empty_flag
        comma = text + ","
        cells = np.empty((len(where), k + 4 * n + 2), dtype=object)
        cells[:, :k], cells[:, k] = comma[where[:, :k]], t + ","
        cells[:, k + 1:-1] = comma[where[:, k:]]
        cells[base_empty, k + 1:k + 1 + 2 * n] = ","
        cells[empty, k + 1 + 2 * n:-1] = ","
        cells[:, -1] = np.where(empty, "1\n", "0\n")
        csv = "".join(cells.ravel().tolist())
        del cells, comma  # before the text cells are built
        # x=(x1, ...) t=...  F=[lo1, hi1]x...  reduced=...  pinched_axes=
        cells = np.empty((len(where), k + 4 * n + 4), dtype=object)
        cells[:, 0], cells[:, 1] = "x=(", text[where[:, 0]]
        cells[:, 2:k + 1] = (", " + text)[where[:, 1:k]]
        cells[:, k + 1] = f") t={t}  F="
        cells[:, k + 2 + 2 * n] = "  reduced="
        first, inner, last = ("[" + text, ", " + text + "]x[",
                              ", " + text + "]")
        for c, w, box_empty, no_box in (
                (k + 2, k, base_empty, f"IntervalBox.empty({n})"),
                (k + 3 + 2 * n, k + 2 * n, empty, "empty")):
            box, lo, hi = (cells[:, c:c + 2 * n], where[:, w:w + n],
                           where[:, w + n:w + 2 * n])
            box[:, 0], box[:, 2::2] = first[lo[:, 0]], text[lo[:, 1:]]
            box[:, 1:-1:2], box[:, -1] = inner[hi[:, :-1]], last[hi[:, -1]]
            box[box_empty, 0], box[box_empty, 1:] = no_box, ""
        cells[:, -1] = labels[(1 << np.arange(n)) @ constrained]
        return csv, "".join(cells.ravel().tolist())
    return report


def _reprs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``repr`` of each distinct float of ``values`` (an object array) and,
    shaped like ``values``, the index of each float's ``repr`` in it.

    Each distinct bit pattern is formatted once; keying by bits, not by
    value, keeps 0.0 and -0.0 apart.
    """
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())),
                    dtype=object)
    return text, where.reshape(values.shape)


def tabulate_reduction(inclusion: PiecewiseBoxMap,
                       reducers: Sequence[RegularFunctionSpec],
                       nodes, t) -> ReductionTable:
    """Reduction table at every node at time ``t``, in node order.

    ``nodes`` is an ``(N, n)`` array-like of points, and ``t`` one time or
    an ``(N,)`` array-like of one time per node. The :func:`_scan` of one
    job, whose arrays are :func:`_reduce_arrays` on F and whose reference
    is ``_reduce(eval_map(...))``: F and each reducer gradient are
    evaluated once per chunk, and the pointwise rows raise exactly the
    errors the pointwise API raises.
    """
    pts = _node_array(nodes, inclusion.n_in)
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    if np.ndim(t) and t.shape != (len(pts),):
        raise DimensionMismatchError(
            f"t must be one time or one per node, got shape {t.shape}")
    columns = _scan([_reduction_job(inclusion, reducers, pts.shape[-1])],
                    pts, [t])[0]
    return ReductionTable(pts, t, *(c[..., 0, :] for c in columns))


def _reduction_job(inclusion: PiecewiseBoxMap,
                   reducers: Sequence[RegularFunctionSpec], width: int):
    """The :func:`_stream` job of the reduction table on nodes of ``width``
    coordinates: F's lo, hi and empty flags, the reduction's, and the
    pinched-axes mask."""
    n = inclusion.n_out
    fits = (all(m.n_in == width for m in
                (inclusion, *(u.gradient for u in reducers)))
            and all(u.n == n and u.regular for u in reducers))

    def arrays(at):
        lo, hi, empty, axes, bad = _reduce_arrays(*at(inclusion), reducers, at)
        return (*at(inclusion)[:3], np.where(empty, 0.0, lo),
                np.where(empty, 0.0, hi), empty, axes), bad

    def pointwise(x, t):  # the inclusion and each reducer gradient once
        rv = _reduce(eval_map(inclusion, x, t), reducers, x, t)
        return (*_cells(rv.base), *_cells(rv.result),
                [i in rv.constrained_axes for i in range(1, n + 1)])

    box = (np.zeros(n), np.zeros(n), False)
    return box + box + (np.zeros(n, bool),), fits and arrays, pointwise


def _cells(box: IntervalBox) -> tuple:
    return (0.0, 0.0, True) if box.is_empty else (
        box.lo_corner(), box.hi_corner(), False)
