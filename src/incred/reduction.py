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

The same rule also runs on numpy arrays of nodes
(:func:`_reduce_arrays`), for the reduction table here and for the
derivative scan in :mod:`incred.derivative`; the pointwise functions
remain the reference they are tested against, and :func:`_fill` runs
them on the rows the arrays flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import expr
from .errors import DimensionMismatchError, SchemaError
from .intervals import IntervalBox
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
    """:func:`_pinch` of ``base``, the inclusion value at (x, t)."""
    def spans(box):
        return tuple(zip(box.lo_corner(), box.hi_corner()))

    result, pinched, obstructed = _pinch(
        None if base.is_empty else spans(base), base.dims, reducers,
        lambda u: spans(eval_gradient(u, x, t)))
    return ReducedValue(base, frozenset(pinched), IntervalBox.empty(
        base.dims) if result is None else IntervalBox.from_bounds(
            *zip(*result)), obstructed)


def _pinch(base: Sequence[tuple[float, float]] | None, dims: int,
           reducers: Sequence[RegularFunctionSpec], gradient: Callable):
    """The one reduction rule: ``base``, an inclusion value's ``dims``
    ``(lo, hi)`` axes (None if empty), pinched to {0} on the state axes
    that each regular reducer's ``gradient(u)`` axes, in order, move
    along; and the axes pinched."""
    pinched, time_obstruction = set(), False
    for u in reducers:
        if not u.regular:
            raise SchemaError(
                f"{u.name}: reduction requires a regular function")
        for i, (lo, hi) in enumerate(gradient(u), start=1):
            if lo != hi:  # a direction the gradient moves in
                time_obstruction |= i == u.n + 1
                if i <= dims:
                    pinched.add(i)
    if time_obstruction or base is None:
        return None, pinched, time_obstruction
    result = list(base)
    for i in pinched:
        if not result[i - 1][0] <= 0.0 <= result[i - 1][1]:
            return None, pinched, time_obstruction
        result[i - 1] = (0.0, 0.0)
    return result, pinched, time_obstruction


# Nodes per numpy batch in the array evaluators (here and in
# derivative.scan_derivative), and rows per report chunk. Bounds the
# temporaries to a few hundred kilobytes whatever the grid size.
_CHUNK = 4096


def _chunks(count: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_CHUNK`` rows covering ``count``."""
    for start in range(0, count, _CHUNK):
        yield slice(start, min(start + _CHUNK, count))


def _fill(count: int, arrays: Callable[[slice], np.ndarray],
          pointwise: Callable[[int], None]) -> None:
    """Fill ``count`` rows: ``arrays(rows)`` on each :func:`_chunks` slice
    in order writes the slice and returns the mask of rows it may not
    reproduce; ``pointwise(r)``, the reference, then rewrites every column
    of each flagged row, in order. Every row whose pointwise fill could
    raise is flagged, so the first error raised is the first error of an
    all-pointwise fill, and the columns carry the same bits.
    """
    with np.errstate(all="ignore"):
        for rows in _chunks(count):
            for r in (np.flatnonzero(arrays(rows)) + rows.start).tolist():
                pointwise(r)


def _columns(nodes: Sequence, count: int, env_arrays: Callable,
             env: Callable) -> np.ndarray:
    """``(len(nodes), count)``: the scalar expressions by :func:`_fill`.
    ``env_arrays(rows)`` gives a chunk's environment and its bad rows; a
    bad row or one with a non-finite value is refilled on ``env(r)`` by
    the scalar closures."""
    out = np.empty((len(nodes), count))
    array_fns = [expr.compile_scalar_array(e) for e in nodes]
    scalar_fns = []  # compiled on the first pointwise row

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


def _node_array(nodes, n: int) -> np.ndarray:
    """``nodes`` as a float array, which must be ``(N, n)``-shaped unless
    it is empty; a row's width is checked where the row is evaluated."""
    pts = np.asarray(nodes, dtype=float)
    if pts.ndim != 2 and pts.size:
        raise DimensionMismatchError(
            f"nodes must be an (N, {n}) array of points, got shape "
            f"{pts.shape}")
    return pts


def _gradient_arrays(f: RegularFunctionSpec, batch, t):
    """Declared gradient endpoint arrays and the bad rows: those of
    :meth:`~PiecewiseBoxMap.value_arrays`, and an empty piece."""
    lo, hi, empty, bad = f.gradient.value_arrays(batch, t)
    return lo, hi, bad | empty


def _reduce_arrays(lo, hi, empty, bad, reducers, batch, t):
    """Array form of :func:`_reduce`.

    ``lo``, ``hi`` (``(n, rows)``), ``empty`` and ``bad`` are the
    inclusion value on the batch. The state axes some reducer's gradient
    moves along are pinched to 0 together; a row is emptied where a
    pinched axis excludes 0 or some gradient's time axis moves. Returns
    the reduced ``(lo, hi, empty)`` (endpoints mean nothing on empty
    rows), the pinched-axes mask, and ``bad`` | the reducers' bad rows.
    """
    constrained = np.zeros(lo.shape, dtype=bool)
    for u in reducers:
        g_lo, g_hi, g_bad = _gradient_arrays(u, batch, t)
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
    an ``(N,)`` array-like of one time per node. Nodes are evaluated
    as numpy arrays in batches of ``_CHUNK``, the inclusion and each
    reducer gradient once per batch; the nodes the arrays flag (see
    :func:`_fill`) are refilled one by one by the pointwise reference,
    which raises exactly the errors the pointwise API raises.
    """
    pts = _node_array(nodes, inclusion.n_in)
    t = np.asarray(t, dtype=float) if np.ndim(t) else float(t)
    if np.ndim(t) and t.shape != (len(pts),):
        raise DimensionMismatchError(
            f"t must be one time or one per node, got shape {t.shape}")
    n = inclusion.n_out
    base_lo, base_hi, lo, hi = (np.zeros((n, len(pts))) for _ in range(4))
    base_empty, empty = (np.zeros(len(pts), dtype=bool) for _ in range(2))
    constrained = np.zeros((n, len(pts)), dtype=bool)
    axes = np.ascontiguousarray(pts.T)
    ready = (all(m.n_in == pts.shape[-1] for m in
                 (inclusion, *(u.gradient for u in reducers)))
             and all(u.n == n and u.regular for u in reducers))

    def arrays(rows):
        if not ready:  # the pointwise rows raise the matching error
            return np.ones(rows.stop - rows.start, dtype=bool)
        batch, t_rows = axes[:, rows], t[rows] if np.ndim(t) else t
        b_lo, b_hi, b_empty, b_bad = inclusion.value_arrays(batch, t_rows)
        r_lo, r_hi, r_empty, r_axes, bad = _reduce_arrays(
            b_lo, b_hi, b_empty, b_bad, reducers, batch, t_rows)
        base_lo[:, rows], base_hi[:, rows] = b_lo, b_hi
        base_empty[rows] = b_empty
        lo[:, rows] = np.where(r_empty, 0.0, r_lo)
        hi[:, rows] = np.where(r_empty, 0.0, r_hi)
        empty[rows] = r_empty
        constrained[:, rows] = r_axes
        return bad

    def pointwise(b):
        # the inclusion and each reducer gradient once per node
        x, t_b = pts[b].tolist(), float(t[b]) if np.ndim(t) else t
        rv = _reduce(eval_map(inclusion, x, t_b), reducers, x, t_b)
        constrained[:, b] = [i in rv.constrained_axes for i in range(1, n + 1)]
        for box, box_lo, box_hi, box_empty in (
                (rv.base, base_lo, base_hi, base_empty),
                (rv.result, lo, hi, empty)):
            box_empty[b] = box.is_empty
            box_lo[:, b] = 0.0 if box.is_empty else box.lo_corner()
            box_hi[:, b] = 0.0 if box.is_empty else box.hi_corner()

    _fill(len(pts), arrays, pointwise)
    return ReductionTable(pts, t, base_lo, base_hi, base_empty, lo, hi,
                          empty, constrained)
