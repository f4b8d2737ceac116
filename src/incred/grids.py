"""Grid specifications for certification scans.

A grid is a product of per-axis node lists. Each axis is either an
explicit list of nodes or a uniform count over the domain box; the
``include`` lists inject exact coordinates (guard surfaces like ``+/-1``,
annulus radii) that uniform spacing would miss. Guard comparisons are
exact, so guard-surface nodes must be supplied verbatim here; they are
merged and deduplicated by exact float equality and therefore survive
into the final nodes unchanged. Nodes are an ``(N, dims)`` float array in
row-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .intervals import IntervalBox

__all__ = ["GridSpec", "product_array", "MAX_ITEMS", "check_size"]

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


def product_array(axes) -> np.ndarray:
    """The Cartesian product of per-axis node lists as an ``(N, len(axes))``
    float array in row-major (lexicographic) order.

    The array is the transpose of a C-contiguous ``(len(axes), N)`` one,
    so each axis's coordinates are contiguous.
    """
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)
    return np.stack(mesh).reshape(len(axes), -1).T


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
        SchemaError. ``extra`` appends further exact coordinates per axis
        (used by the annulus grids to pin the radii).
        """
        if domain.dims != self.dims:
            raise SchemaError(
                f"grid has {self.dims} axes but domain has {domain.dims}")
        out = []
        for i, (ax, iv) in enumerate(zip(self.axes, domain.axes)):
            if isinstance(ax, int):
                base = [float(v) for v in np.linspace(iv.lo, iv.hi, ax)]
            else:
                base = _in_domain(ax, iv, i)
            merged = set(base)
            merged.update(_in_domain(self.include[i], iv, i))
            if extra is not None:
                merged.update(float(v) for v in extra[i])
            out.append(tuple(sorted(merged)))
        return tuple(out)

    def nodes(self, domain: IntervalBox,
              extra: tuple[tuple[float, ...], ...] | None = None,
              ) -> np.ndarray:
        """All grid points as an ``(N, dims)`` array in row-major order.

        Raises SchemaError before building anything when the grid has
        more than :data:`MAX_ITEMS` node-time pairs, counting each axis
        as its uniform count or node-list length.
        """
        self._check_size([ax if isinstance(ax, int) else len(ax)
                          for ax in self.axes])
        return product_array(self.axis_nodes(domain, extra))

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
