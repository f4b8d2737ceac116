"""Closed intervals, axis-aligned boxes, and annuli.

Every set value in this package is a box, an axis-aligned product of
closed intervals, possibly degenerate: inclusion values, declared
gradient boxes, and reduced direction sets are all boxes. Below the
public API a box is a tuple of ``(lo, hi)`` float pairs, one per axis;
the objects here are built only where a public function returns one.
An interval is never empty. Emptiness belongs to the box:
:meth:`IntervalBox.empty` is the one empty set value, which keeps only
its dimension (never encoded as inverted endpoints). Degeneracy is
exact equality of endpoints, because the systems of interest are
defined with exactly representable constants.

Axis indices reported by :func:`direction_axes` (and consumed elsewhere)
are 1-based, matching the variable names ``x1..xn``; a box of dimension
``n + 1`` uses index ``n + 1`` for its trailing time axis.

Extension point: general convex polytopes, zonotopes and ellipsoids are
deliberately out of scope; the box structure is what makes the reduction
and the bilinear optimizations exact. A richer set representation would
slot in behind the same operations.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptySetError

__all__ = [
    "Interval",
    "IntervalBox",
    "Annulus",
    "contains",
    "direction_axes",
]


def center(lo: float, hi: float) -> float:
    """``(lo + hi) / 2``, or ``lo/2 + hi/2`` where the sum overflows."""
    c = (lo + hi) / 2.0
    return c if math.isfinite(c) else lo / 2.0 + hi / 2.0


class Interval:
    """A closed real interval ``[lo, hi]`` with ``lo <= hi``, never empty."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:  # a NaN endpoint, or inverted ones
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            raise ValueError(f"inverted interval endpoints [{lo}, {hi}]")
        self._lo = lo
        self._hi = hi

    @property
    def lo(self) -> float:
        return self._lo

    @property
    def hi(self) -> float:
        return self._hi

    @property
    def is_degenerate(self) -> bool:
        """True iff ``lo == hi`` (exact comparison)."""
        return self._lo == self._hi

    @property
    def center(self) -> float:
        return center(self._lo, self._hi)

    def contains(self, v: float) -> bool:
        return self._lo <= v <= self._hi

    def inflate(self, margin: float) -> Interval:
        return Interval(self._lo - margin, self._hi + margin)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self._lo == other.lo and self._hi == other.hi

    def __hash__(self) -> int:
        return hash((self._lo, self._hi))

    def __repr__(self) -> str:
        return f"[{self._lo}, {self._hi}]"


class IntervalBox:
    """Axis-aligned product of closed intervals in ``R^k``.

    The empty box of a dimension (:meth:`empty`) has no axes: reading
    them, its corners or its center raises :class:`EmptySetError`. Boxes
    are immutable and shareable across threads.
    """

    __slots__ = ("_axes", "_dims")

    def __init__(self, axes: Iterable[Interval]):
        axes = tuple(axes)
        if not axes:
            raise ValueError("a box needs at least one axis")
        self._axes = axes
        self._dims = len(axes)

    @classmethod
    def empty(cls, dims: int) -> IntervalBox:
        if dims < 1:
            raise ValueError("a box needs at least one axis")
        box = object.__new__(cls)
        box._axes = None
        box._dims = dims
        return box

    @classmethod
    def point(cls, coords: Sequence[float]) -> IntervalBox:
        return cls(Interval(c, c) for c in coords)

    @classmethod
    def from_bounds(cls, lo: Sequence[float], hi: Sequence[float]) -> IntervalBox:
        if len(lo) != len(hi):
            raise DimensionMismatchError("lo and hi lengths differ")
        return cls(Interval(a, b) for a, b in zip(lo, hi))

    @property
    def dims(self) -> int:
        return self._dims

    @property
    def axes(self) -> tuple[Interval, ...]:
        if self._axes is None:
            raise EmptySetError("the empty box has no axes")
        return self._axes

    @property
    def is_empty(self) -> bool:
        return self._axes is None

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(a.center for a in self.axes)

    def lo_corner(self) -> tuple[float, ...]:
        return tuple(a.lo for a in self.axes)

    def hi_corner(self) -> tuple[float, ...]:
        return tuple(a.hi for a in self.axes)

    def intersect(self, other: IntervalBox) -> IntervalBox:
        if self.dims != other.dims:
            raise DimensionMismatchError(
                f"box dimensions differ: {self.dims} vs {other.dims}")
        if self.is_empty or other.is_empty:
            return IntervalBox.empty(self.dims)
        lo = [max(a.lo, b.lo) for a, b in zip(self._axes, other.axes)]
        hi = [min(a.hi, b.hi) for a, b in zip(self._axes, other.axes)]
        if any(a > b for a, b in zip(lo, hi)):
            return IntervalBox.empty(self.dims)
        return IntervalBox.from_bounds(lo, hi)

    def inflate(self, margin: float) -> IntervalBox:
        if self.is_empty:
            return self
        return IntervalBox(a.inflate(margin) for a in self._axes)

    def distance_to(self, p: Sequence[float]) -> float:
        """Euclidean distance from a point to the box; inf when empty."""
        if self.is_empty:
            return math.inf
        if len(p) != self.dims:
            raise DimensionMismatchError(
                f"point has {len(p)} coordinates, box has {self.dims} axes")
        acc = 0.0
        for v, ax in zip(p, self._axes):
            gap = max(ax.lo - v, v - ax.hi, 0.0)
            acc += gap * gap
        return math.sqrt(acc)

    def max_vertex_norm(self) -> float:
        """Largest Euclidean norm over the box (attained at a vertex)."""
        if self.is_empty:
            return 0.0
        acc = 0.0
        for ax in self._axes:
            acc += max(ax.lo * ax.lo, ax.hi * ax.hi)
        return math.sqrt(acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalBox):
            return NotImplemented
        return self._dims == other._dims and self._axes == other._axes

    def __hash__(self) -> int:
        return hash(self._axes)

    def __repr__(self) -> str:
        if self.is_empty:
            return f"IntervalBox.empty({self.dims})"
        return "x".join(repr(a) for a in self._axes)


def contains(b: IntervalBox, p: Sequence[float]) -> bool:
    """Membership test, decided axis by axis; the empty box contains nothing."""
    if b.is_empty:
        return False
    if len(p) != b.dims:
        raise DimensionMismatchError(
            f"point has {len(p)} coordinates, box has {b.dims} axes")
    return all(ax.contains(v) for ax, v in zip(b.axes, p))


def direction_axes(b: IntervalBox) -> frozenset[int]:
    """1-based indices of the nondegenerate axes of a non-empty box.

    These are the coordinate directions spanning the affine hull of the
    box; a linear functional is constant on the box iff it annihilates
    every one of them.
    """
    if b.is_empty:
        raise EmptySetError("direction_axes is undefined for the empty box")
    return frozenset(i + 1 for i, ax in enumerate(b.axes) if not ax.is_degenerate)


class Annulus:
    """Closed Euclidean annulus ``inner <= |x| <= outer`` around the origin.

    Membership compares squared norms, accumulated axis by axis, so that
    points constructed from the radii themselves (e.g. ``(inner, 0)``)
    test as members exactly.
    """

    __slots__ = ("inner", "outer")

    def __init__(self, inner: float, outer: float):
        inner = float(inner)
        outer = float(outer)
        if inner < 0:
            raise ValueError("inner radius must be nonnegative")
        if outer <= inner:
            raise ValueError("outer radius must exceed inner radius")
        self.inner = inner
        self.outer = outer

    def contains(self, p):
        """Membership of one point, or a boolean mask over the rows of an
        ``(N, n)`` array."""
        p = np.asarray(p, dtype=float)
        sq = 0.0
        for i in range(p.shape[-1]):
            sq = sq + p[..., i] * p[..., i]
        inside = self.contains_sq(sq)
        return bool(inside) if p.ndim == 1 else inside

    def contains_sq(self, sq):
        """Membership by squared norm, summed as :meth:`contains` sums it."""
        return (self.inner * self.inner <= sq) \
            & (sq <= self.outer * self.outer)

    def __repr__(self) -> str:
        return f"Annulus({self.inner}, {self.outer})"
