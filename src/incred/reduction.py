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
:func:`_scan`, the one driver of the grid tables (the reduction table
here, the derivative scans and the ``deriv`` table), runs array jobs on
chunks of nodes; the pointwise functions remain the reference they are
tested against, and :func:`_fill` runs them on the cells the arrays flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import expr
from .errors import DimensionMismatchError, DslEvalError, SchemaError
from .intervals import Interval, IntervalBox
from .setmaps import (PiecewiseBoxMap, RegularFunctionSpec, eval_gradient,
                      eval_map)

__all__ = [
    "ReducedValue", "reduce_once", "reduce_collection",
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


def reduce_once(inclusion: PiecewiseBoxMap, reducer: RegularFunctionSpec,
                x: Sequence[float], t: float) -> ReducedValue:
    """Directions of ``inclusion(x, t)`` feasible for ``reducer``.

    The reducer must be flagged regular; reduction by a nonregular
    function is unsound and rejected.
    """
    return _reduce(eval_map(inclusion, x, t), (reducer,), x, t)


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


# Nodes per numpy batch of _scan and _columns, and rows per report chunk.
# Bounds the temporaries to a few hundred kilobytes whatever the grid size.
_CHUNK = 4096


def _chunks(count: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_CHUNK`` rows covering ``count``."""
    for start in range(0, count, _CHUNK):
        yield slice(start, min(start + _CHUNK, count))


def _fill(shape, arrays: Callable[[slice], np.ndarray],
          pointwise: Callable[..., None]) -> None:
    """Fill the cells of ``shape``, a row count or a tuple ending in one:
    ``arrays(rows)`` on each :func:`_chunks` slice in order writes it and
    returns the mask (``shape`` with ``len(rows)`` rows) of the cells it
    may not reproduce; then ``pointwise(*cell)``, the reference, rewrites
    every column of each flagged cell, in C order. Every cell whose
    pointwise fill could raise is flagged, so the first error raised is
    the first error of an all-pointwise fill, and the bits are the same.
    """
    with np.errstate(all="ignore"):
        count = shape if isinstance(shape, int) else shape[-1]
        mask = np.concatenate([arrays(rows) for rows in _chunks(count)]
                              or [np.zeros(0, bool)], axis=-1)
        # np.argwhere is 10-30x slower than this on an n-d mask
        for cell in np.transpose(np.unravel_index(
                np.flatnonzero(mask), mask.shape)).tolist():
            pointwise(*cell)


def _scan(jobs, pts: np.ndarray, times: Sequence) -> list[list[np.ndarray]]:
    """The one driver of the grid tables: each ``(zero, arrays, pointwise)``
    job's columns at every (time node, node) pair, chunks outer, time
    nodes inner. A time node is one time or an ``(N,)`` array of them.

    ``zero`` is a cell of zeros; column k has shape ``np.shape(zero[k]) +
    (len(times), len(pts))``. ``arrays(at)`` returns a chunk's columns at
    a time node and the rows it may not reproduce; ``at(m)`` is map m's
    value arrays there (:meth:`PiecewiseBoxMap.chunk_arrays`), evaluated
    once for every job, and once per chunk where they read neither t nor
    a parameter. A falsy ``arrays`` flags every cell. :func:`_fill` then
    refills the flagged cells by ``pointwise(x, t)``, job, time node,
    then node first; a parameter error of the array pass is raised at the
    first cell of its (job, time node).
    """
    shape = (len(jobs), len(times), len(pts))
    out = [[np.zeros(np.shape(v) + shape[1:], np.asarray(v).dtype)
            for v in zero] for zero, *_ in jobs]
    axes, errors = np.ascontiguousarray(pts.T), {}

    def arrays(rows):
        batch, chunk = axes[:, rows], {}
        flags = np.ones(shape[:2] + (batch.shape[1],), dtype=bool)
        for a, t in enumerate(times):
            now = {}

            def at(m):  # m's value on the chunk at t, once for every job
                if id(m) not in now:
                    if id(m) not in chunk:
                        chunk[id(m)] = m.chunk_arrays(batch)
                    now[id(m)] = chunk[id(m)](*m.env_arrays(batch, t[rows])) \
                        if np.ndim(t) else chunk[id(m)](m.env((), t), False)
                return now[id(m)]

            for j, (_, step, _) in enumerate(jobs):
                try:  # raises the first parameter error, in map order
                    values, flags[j, a] = step(at) if step else ((), True)
                except DslEvalError as e:  # flags[j, a] stays set
                    errors[j, a] = e
                    continue
                for column, v in zip(out[j], values):
                    column[..., a, rows] = v
        return flags

    def pointwise(j, a, b):
        if (j, a) in errors:
            raise errors[j, a]
        t = times[a]
        cell = jobs[j][2](pts[b].tolist(), float(t[b]) if np.ndim(t) else t)
        for column, v in zip(out[j], cell):
            column[..., a, b] = v

    _fill(shape, arrays, pointwise)
    return out


def _columns(nodes: Sequence) -> Callable:
    """``fill(count, env_arrays, env)``: the ``(len(nodes), count)``
    columns of the scalar expressions by :func:`_fill`, compiled once for
    every fill. ``env_arrays(rows)`` gives a chunk's environment and its
    bad rows; a bad row or one with a non-finite value is refilled on
    ``env(r)`` by the scalar closures."""
    array_fns = [expr.compile_scalar_array(e) for e in nodes]
    scalar_fns = []  # compiled on the first pointwise row

    def fill(count: int, env_arrays: Callable, env: Callable) -> np.ndarray:
        out = np.empty((len(nodes), count))

        def arrays(rows):
            batch_env, bad = env_arrays(rows)
            for k, fn in enumerate(array_fns):
                out[k, rows] = fn(batch_env)
            return bad | ~np.isfinite(out[:, rows]).all(axis=0)

        def pointwise(r):
            if not scalar_fns:
                scalar_fns.extend(expr.compile_scalar(e) for e in nodes)
            row_env = env(r)
            out[:, r] = [fn(row_env) for fn in scalar_fns]

        _fill(count, arrays, pointwise)
        return out
    return fill


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


def _reduce_arrays(lo, hi, empty, bad, reducers, value):
    """Array form of :func:`_reduce`.

    ``lo``, ``hi`` (``(n, rows)``), ``empty`` and ``bad`` are the
    inclusion value on the batch, and ``value(m)`` a map's value there
    (see :func:`_gradient_arrays`). The state axes some reducer's gradient
    moves along are pinched to 0 together; a row is emptied where a
    pinched axis excludes 0 or some gradient's time axis moves. Returns
    the reduced ``(lo, hi, empty)`` (endpoints mean nothing on empty
    rows), the pinched-axes mask, and ``bad`` | the reducers' bad rows.
    """
    constrained = np.zeros(lo.shape, dtype=bool)
    for u in reducers:
        g_lo, g_hi, g_bad = _gradient_arrays(u, value)
        moving = g_lo != g_hi
        constrained |= moving[:-1]
        empty = empty | moving[-1]
        bad = bad | g_bad
    empty = empty | (constrained & ~((lo <= 0.0) & (0.0 <= hi))).any(axis=0)
    return (np.where(constrained, 0.0, lo), np.where(constrained, 0.0, hi),
            empty, constrained, bad)


@dataclass(frozen=True)
class ReductionRow:
    x: tuple[float, ...]
    t: float
    base: IntervalBox
    reduced: IntervalBox
    constrained_axes: tuple[int, ...]


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

    @property
    def rows(self) -> tuple[ReductionRow, ...]:
        """The table as one :class:`ReductionRow` per node."""
        def box(lo, hi, empty):
            if empty:
                return IntervalBox.empty(self.n)
            return IntervalBox.from_bounds(lo, hi)

        return tuple(
            ReductionRow(tuple(x), t, box(b_lo, b_hi, b_empty),
                         box(lo, hi, empty),
                         tuple(i for i, c in enumerate(axes, 1) if c))
            for x, t, b_lo, b_hi, b_empty, lo, hi, empty, axes in zip(
                self.x.tolist(),
                np.broadcast_to(self.t, len(self.x)).tolist(),
                self.base_lo.T.tolist(),
                self.base_hi.T.tolist(), self.base_empty.tolist(),
                self.lo.T.tolist(), self.hi.T.tolist(), self.empty.tolist(),
                self.constrained.T.tolist()))

    def report_chunks(self) -> Iterator[tuple[str, str]]:
        """The CSV and text reports as ``(csv, text)`` pieces: the CSV
        header, then ``_CHUNK`` rows at a time. The reports state one time.

        Each report's chunk is a C-ordered ``(rows, cells)`` object array
        of finished text pieces, separators included, joined once. The
        value pieces come from role tables such as ``r + ","`` or ``"[" +
        r`` over the chunk's distinct reprs (see :func:`_reprs`), indexed
        by ``np.unique``'s inverse; fixed text fills constant columns, and
        the cells of an empty box are overwritten by masked assignment.
        """
        if np.ndim(self.t):
            raise ValueError("a table with one time per row has no report")
        n = self.n
        yield ",".join(
            [f"x{i+1}" for i in range(n)] + ["t"]
            + [f"{k}{i+1}" for k in ("F_lo", "F_hi", "Fred_lo", "Fred_hi")
               for i in range(n)] + ["empty_flag"]) + "\n", ""
        if not len(self.x):
            yield "", "\n"  # the text report of no rows is one newline
            return
        # a pinched_axes label per bit code of the mask (n <= 9: 512 at most)
        labels = "  pinched_axes=" + np.array(
            [",".join(str(i + 1) for i in range(n) if c >> i & 1) or "-"
             for c in range(1 << n)], dtype=object) + "\n"
        for rows in _chunks(len(self.x)):
            yield self._report_chunk(rows, labels)

    def _report_chunk(self, rows: slice, labels) -> tuple[str, str]:
        """The CSV and text of one chunk of rows. A function of its own, so
        that none of its arrays outlives the chunk in the generator."""
        n, t, k = self.n, repr(self.t), self.x.shape[1]
        text, where = _reprs(np.concatenate([
            self.x[rows].T, self.base_lo[:, rows], self.base_hi[:, rows],
            self.lo[:, rows], self.hi[:, rows]]))
        where = where.T  # per row: x, then F_lo, F_hi, Fred_lo, Fred_hi
        base_empty, empty = self.base_empty[rows], self.empty[rows]
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
        cells[:, -1] = labels[(1 << np.arange(n)) @ self.constrained[:, rows]]
        return csv, "".join(cells.ravel().tolist())

    def to_csv(self) -> str:
        return "".join(csv for csv, _ in self.report_chunks())

    def to_text(self) -> str:
        return "".join(text for _, text in self.report_chunks())


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
    """The :func:`_scan` job of the reduction table on nodes of ``width``
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
