"""Box oracles for the tests: the intersection that containment of a
reduced box is checked with, and the distance and largest vertex norm
that the trajectory membership reports are checked against, axis by
axis on ``IntervalBox`` objects."""

import math

from incred.errors import DimensionMismatchError
from incred.intervals import IntervalBox


def intersect(a: IntervalBox, b: IntervalBox) -> IntervalBox:
    """``a`` and ``b``'s intersection; empty where either is or where
    some axis pair is disjoint."""
    if a.dims != b.dims:
        raise DimensionMismatchError(
            f"box dimensions differ: {a.dims} vs {b.dims}")
    if a.is_empty or b.is_empty:
        return IntervalBox.empty(a.dims)
    lo = [max(u.lo, v.lo) for u, v in zip(a.axes, b.axes)]
    hi = [min(u.hi, v.hi) for u, v in zip(a.axes, b.axes)]
    if any(u > v for u, v in zip(lo, hi)):
        return IntervalBox.empty(a.dims)
    return IntervalBox.from_bounds(lo, hi)


def distance_to(box: IntervalBox, p) -> float:
    """Euclidean distance from the point ``p`` to ``box``; inf when empty."""
    if box.is_empty:
        return math.inf
    if len(p) != box.dims:
        raise DimensionMismatchError(
            f"point has {len(p)} coordinates, box has {box.dims} axes")
    acc = 0.0
    for v, ax in zip(p, box.axes):
        gap = max(ax.lo - v, v - ax.hi, 0.0)
        acc += gap * gap
    return math.sqrt(acc)


def max_vertex_norm(box: IntervalBox) -> float:
    """Largest Euclidean norm over ``box`` (attained at a vertex); 0.0
    when empty."""
    if box.is_empty:
        return 0.0
    acc = 0.0
    for ax in box.axes:
        acc += max(ax.lo * ax.lo, ax.hi * ax.hi)
    return math.sqrt(acc)
