"""Grid specifications for certification scans.

A grid is a product of per-axis node lists. Each axis is either an
explicit list of nodes or a uniform count over the domain box; the
``include`` lists inject exact coordinates (guard surfaces like ``+/-1``,
annulus radii) that uniform spacing would miss. Guard comparisons are
exact, so guard-surface nodes must be supplied verbatim here; they are
merged and deduplicated by exact float equality and therefore survive
into the final nodes unchanged. Every node set is one walk, the
row-major product of the axes in runs of the last axis, at most
``_CHUNK`` nodes at a time, kept whole or filtered to an annulus or ball
(:func:`_region_chunks`), which the scans fold chunk by chunk (see
:func:`_region`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from .errors import SchemaError
from .intervals import IntervalBox

__all__ = ["GridSpec", "MAX_ITEMS", "check_size"]

# The most node-time pairs a grid may have and the most steps a
# simulation may take. 1001^2 nodes at 6 time nodes, the most any bundled
# system declares, is 6.0e6.
MAX_ITEMS = 10_000_000


def check_size(count, what: str) -> None:
    """SchemaError unless ``count`` is at most :data:`MAX_ITEMS`; callers
    check before they allocate anything of that size."""
    if not count <= MAX_ITEMS:
        raise SchemaError(f"{what}: {count} exceeds the limit of "
                          f"{MAX_ITEMS}")


# The most nodes in a chunk of a walk and rows in a report chunk, read
# at call time. Bounds the temporaries to a few hundred kilobytes
# whatever the grid size.
_CHUNK = 4096


def _chunks(count: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_CHUNK`` rows covering ``count``."""
    for start in range(0, count, _CHUNK):
        yield slice(start, min(start + _CHUNK, count))


def _region_masks(axes, region=None):
    """The row-major product of ``axes``, at most ``_CHUNK`` nodes at a
    time: whole runs of the last axis, or pieces of one. Yields ``(lead,
    tail, inside)``: the runs' other coordinates by index arithmetic on
    the run index, the last axis's piece, and the ``(runs, len(tail))``
    mask of ``region`` (an :class:`~incred.intervals.Annulus`), squares
    summed axis by axis as in ``contains``; None for no region."""
    *head, last = [np.asarray(a, dtype=float) for a in axes]
    runs = math.prod(map(len, head))
    per, width = max(1, _CHUNK // len(last)), min(_CHUNK, len(last))
    for start in range(0, runs, per):
        lead = _lead(head, np.arange(start, min(start + per, runs)))
        for piece in range(0, len(last), width):  # > 1 only when per is 1
            tail, inside = last[piece:piece + width], None
            if region is not None:
                # an infinite square lies outside every annulus and ball
                with np.errstate(over="ignore"):
                    sq = sum((c * c for c in lead), np.zeros(lead.shape[1]))
                    inside = region.contains_sq(sq[:, None] + tail * tail)
            yield lead, tail, inside


def _lead(head, run: np.ndarray) -> np.ndarray:
    """The ``head`` axes' coordinates of the runs numbered ``run``."""
    lead = np.empty((len(head), len(run)))
    for i in range(len(head) - 1, -1, -1):
        run, j = np.divmod(run, len(head[i]))
        lead[i] = head[i][j]
    return lead


def _region_chunks(axes, region=None) -> Iterator[np.ndarray]:
    """The nodes of :func:`_region_masks` in ``region`` (every node for
    None) as ``(len(axes), k)`` arrays in row-major order."""
    for lead, tail, inside in _region_masks(axes, region):
        nodes = np.empty((len(lead) + 1, lead.shape[1], len(tail)))
        nodes[:-1], nodes[-1] = lead[:, :, None], tail
        nodes = nodes.reshape(len(nodes), -1)
        if inside is not None:
            nodes = nodes.compress(inside.ravel(), axis=1)
        yield nodes


def _region(axes, region=None):
    """The node set ``(walk, count)``: ``walk()`` yields the chunks of
    :func:`_region_chunks` afresh, ``count`` nodes in all, counted from
    the masks alone for a region."""
    count = math.prod(map(len, axes)) if region is None else sum(
        int(np.count_nonzero(inside))
        for *_, inside in _region_masks(axes, region))
    return partial(_region_chunks, axes, region), count


def _rows(pts: np.ndarray):
    """The rows of an ``(N, n)`` array as a node set ``(walk, count)``."""
    axes = np.ascontiguousarray(np.asarray(pts, dtype=float).T)
    return (lambda: (axes[:, r] for r in _chunks(len(pts)))), len(pts)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple  # per axis: int count or tuple of explicit nodes
    include: tuple[tuple[float, ...], ...]
    time_nodes: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if len(self.axes) != len(self.include):
            raise SchemaError("grid include lists must match axis count")
        for ax in self.axes:
            if isinstance(ax, int):
                if ax < 2:
                    raise SchemaError("uniform axis counts must be >= 2")
            elif not ax:
                raise SchemaError("explicit axis node lists must be nonempty")
        if not self.time_nodes:
            raise SchemaError("time node list must be nonempty")

    @property
    def dims(self) -> int:
        return len(self.axes)

    def axis_nodes(self, domain: IntervalBox,
                   extra: tuple[tuple[float, ...], ...] | None = None,
                   ) -> tuple[tuple[float, ...], ...]:
        """Sorted, deduplicated node list per axis.

        Explicit and ``include`` nodes outside the domain raise
        SchemaError, as does a uniform axis whose width ``hi - lo``
        overflows. ``extra`` appends further exact coordinates per axis
        (used by the annulus grids to pin the radii).
        """
        if domain.dims != self.dims:
            raise SchemaError(
                f"grid has {self.dims} axes but domain has {domain.dims}")
        out = []
        for i, (ax, iv) in enumerate(zip(self.axes, domain.axes)):
            if isinstance(ax, int):
                if not math.isfinite(iv.hi - iv.lo):
                    raise SchemaError(f"grid: the x{i + 1} axis of the domain "
                                      f"[{iv.lo!r}, {iv.hi!r}] is too wide for"
                                      " uniform nodes (its width overflows)")
                base = [float(v) for v in np.linspace(iv.lo, iv.hi, ax)]
            else:
                base = _in_domain(ax, iv, i)
            merged = set(base)
            merged.update(_in_domain(self.include[i], iv, i))
            if extra is not None:
                merged.update(float(v) for v in extra[i])
            out.append(tuple(sorted(merged)))
        return tuple(out)

    def checked_axes(self, domain: IntervalBox, extra=None):
        """:meth:`axis_nodes`, after a SchemaError when the grid has more
        than :data:`MAX_ITEMS` node-time pairs, counted from the uniform
        counts and node-list lengths before the axes are built, and from
        the merged axes (``include`` and ``extra`` too) after."""
        self._check_size([ax if isinstance(ax, int) else len(ax)
                          for ax in self.axes])
        axes = self.axis_nodes(domain, extra)
        self._check_size(list(map(len, axes)))
        return axes

    def _check_size(self, sizes: list[int]) -> None:
        check_size(math.prod(sizes) * len(self.time_nodes),
                   f"grid node-time pairs ({' x '.join(map(str, sizes))} "
                   f"nodes x {len(self.time_nodes)} time nodes)")

    def refined(self, factor: int) -> GridSpec:
        """A grid ``factor`` times finer that keeps every existing node."""
        if factor < 1:
            raise SchemaError("refinement factor must be >= 1")
        self._check_size([((ax if isinstance(ax, int) else len(ax)) - 1)
                          * factor + 1 for ax in self.axes])
        axes = []
        for ax in self.axes:
            if isinstance(ax, int):
                axes.append((ax - 1) * factor + 1)
            else:
                nodes = [float(ax[0])]
                for a, b in zip(ax, ax[1:]):
                    nodes.extend(a + k * (b - a) / factor
                                 for k in range(1, factor))
                    nodes.append(float(b))
                axes.append(tuple(nodes))
        return GridSpec(tuple(axes), self.include, self.time_nodes)

    def with_uniform_counts(self, count: int) -> GridSpec:
        """Replace every axis with a uniform count (includes are kept)."""
        return GridSpec((count,) * self.dims, self.include, self.time_nodes)

    def summary(self, domain: IntervalBox) -> dict:
        nodes = self.axis_nodes(domain)
        return {
            "axis_node_counts": [len(a) for a in nodes],
            "total_nodes": int(np.prod([len(a) for a in nodes])),
            "time_nodes": list(self.time_nodes),
        }


def _in_domain(values, iv, i: int) -> list[float]:
    out = [float(v) for v in values]
    for v in out:
        if not iv.lo <= v <= iv.hi:
            raise SchemaError(f"grid: the x{i + 1} node {v!r} lies outside "
                              f"the domain [{iv.lo!r}, {iv.hi!r}]")
    return out
