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

Reducing by a *collection* of functions intersects the individual
reductions axiswise. Collections are finite lists here; every shipped
system uses one or two functions.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import SchemaError
from .intervals import Interval, IntervalBox, direction_axes
from .setmaps import (PiecewiseBoxMap, RegularFunctionSpec, eval_gradient,
                      eval_map)

__all__ = [
    "ReducedValue", "reduce_once", "reduce_collection",
    "ReductionTable", "tabulate_reduction",
]


@dataclass(frozen=True)
class ReducedValue:
    """Result of reducing one inclusion value by one regular function.

    ``constrained_axes`` holds the 1-based state axes pinched to zero;
    ``time_obstruction`` is True when the gradient's time axis was
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
    return _pinch(eval_map(inclusion, x, t), reducer, x, t)


def _pinch(base: IntervalBox, reducer: RegularFunctionSpec,
           x: Sequence[float], t: float) -> ReducedValue:
    """:func:`reduce_once` given the inclusion value ``base`` at (x, t)."""
    if not reducer.regular:
        raise SchemaError(
            f"{reducer.name}: reduction requires a regular function")
    axes = direction_axes(eval_gradient(reducer, x, t))
    time_obstruction = reducer.n + 1 in axes
    constrained = frozenset(i for i in axes if i <= base.dims)
    if time_obstruction or base.is_empty or not all(
            base.axis(i).contains(0.0) for i in constrained):
        result = IntervalBox.empty(base.dims)
    else:
        result = IntervalBox(Interval.point(0.0) if i in constrained else axis
                             for i, axis in enumerate(base.axes, start=1))
    return ReducedValue(base, constrained, result, time_obstruction)


def _intersect(base: IntervalBox, reduced: Iterable[IntervalBox],
               ) -> IntervalBox:
    """Intersection of ``reduced`` (``base`` if none), drawn until empty."""
    acc = None
    for red in reduced:
        acc = red if acc is None else acc.intersect(red)
        if acc.is_empty:
            return acc
    return base if acc is None else acc


def reduce_collection(inclusion: PiecewiseBoxMap,
                      reducers: Sequence[RegularFunctionSpec],
                      x: Sequence[float], t: float) -> IntervalBox:
    """Intersection of the reductions over a finite collection.

    An empty collection imposes no constraint and returns the inclusion
    value itself. The inclusion is evaluated once.
    """
    return _reduce_base(eval_map(inclusion, x, t), reducers, x, t)


def _reduce_base(base: IntervalBox, reducers: Sequence[RegularFunctionSpec],
                 x: Sequence[float], t: float) -> IntervalBox:
    """:func:`reduce_collection` given the inclusion value ``base``."""
    return _intersect(base, (_pinch(base, u, x, t).result for u in reducers))


@dataclass(frozen=True)
class ReductionRow:
    x: tuple[float, ...]
    t: float
    base: IntervalBox
    reduced: IntervalBox
    constrained_axes: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTable:
    n: int
    rows: tuple[ReductionRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = [f"x{i+1}" for i in range(self.n)] + ["t"]
        header += [f"F_lo{i+1}" for i in range(self.n)]
        header += [f"F_hi{i+1}" for i in range(self.n)]
        header += [f"Fred_lo{i+1}" for i in range(self.n)]
        header += [f"Fred_hi{i+1}" for i in range(self.n)]
        header.append("empty_flag")
        writer.writerow(header)
        for row in self.rows:
            cells = [repr(v) for v in row.x] + [repr(row.t)]
            if row.base.is_empty:
                cells += [""] * (2 * self.n)
            else:
                cells += [repr(v) for v in row.base.lo_corner()]
                cells += [repr(v) for v in row.base.hi_corner()]
            if row.reduced.is_empty:
                cells += [""] * (2 * self.n)
                cells.append("1")
            else:
                cells += [repr(v) for v in row.reduced.lo_corner()]
                cells += [repr(v) for v in row.reduced.hi_corner()]
                cells.append("0")
            writer.writerow(cells)
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            x_str = ", ".join(repr(v) for v in row.x)
            reduced = "empty" if row.reduced.is_empty else repr(row.reduced)
            constrained = (",".join(map(str, row.constrained_axes))
                           if row.constrained_axes else "-")
            lines.append(f"x=({x_str}) t={row.t!r}  F={row.base!r}  "
                         f"reduced={reduced}  pinched_axes={constrained}")
        return "\n".join(lines) + "\n"


def tabulate_reduction(inclusion: PiecewiseBoxMap,
                       reducers: Sequence[RegularFunctionSpec],
                       probe_points: Iterable[tuple[Sequence[float], float]],
                       ) -> ReductionTable:
    """Reduction table at the given ``(x, t)`` probes, in probe order.

    Each probe evaluates the inclusion and every reducer gradient once.
    """
    rows = []
    for x, t in probe_points:
        base = eval_map(inclusion, x, t)
        pinches = [_pinch(base, u, x, t) for u in reducers]
        reduced = _intersect(base, (p.result for p in pinches))
        constrained = set().union(*(p.constrained_axes for p in pinches))
        rows.append(ReductionRow(tuple(float(v) for v in x), float(t),
                                 base, reduced, tuple(sorted(constrained))))
    return ReductionTable(inclusion.n_out, tuple(rows))
