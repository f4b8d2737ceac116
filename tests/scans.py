"""The streamed tables as whole columns, for the tests that compare them
with references: the jobs of the certificate scans, of the reduction
table and of the Matrosov Y table, collected by :func:`scan`, and node
sets stacked into arrays by :func:`stacked`."""

from dataclasses import dataclass

import numpy as np

from incred import certify, grids, reduction
from incred.derivative import _derivative_job
from incred.errors import DimensionMismatchError


def scan(jobs, pts: np.ndarray, times) -> list[list[np.ndarray]]:
    """``reduction._stream`` on the rows of ``pts``, collected: column k
    of job j has shape ``np.shape(zero[k]) + (len(times), len(pts))``."""
    out = [[np.empty(np.shape(v) + (len(times), len(pts)),
                     np.asarray(v).dtype) for v in zero] for zero, *_ in jobs]

    def collect(j, rows, x, columns):
        for column, values in zip(out[j], columns):
            column[..., rows] = values

    reduction._stream(jobs, grids._rows(pts), times, collect)
    return out


def stacked(nodes, width: int) -> np.ndarray:
    """The node set ``nodes`` (``(walk, count)``) as one ``(N, width)``
    array of rows, the transpose of a C-contiguous one that each chunk
    is written into."""
    walk, count = nodes
    out, start = np.empty((width, count)), 0
    for chunk in walk():
        out[:, start:start + chunk.shape[1]] = chunk
        start += chunk.shape[1]
    return out.T


def grid_nodes(grid, domain) -> np.ndarray:
    """All nodes of ``grid`` as an ``(N, dims)`` array in row-major
    order, walked after the size check of ``GridSpec.checked_axes``."""
    return stacked(grids._region(grid.checked_axes(domain)), grid.dims)


def row_table(prob, z_nodes, x_nodes):
    """``(points, y)``: the (z, x) rows that ``certify._row_chunks``
    streams for the node arrays ``z_nodes`` and ``x_nodes``, as an ``(R,
    m + n)`` array, and Y_1..Y_M there as ``(M, R)``, collected from
    that stream."""
    rows, job = certify._row_chunks(prob, *(
        grids._rows(np.asarray(v, dtype=float)) for v in (z_nodes, x_nodes)))
    points, y = [], []

    def collect(j, rows, x, columns):
        points.append(x.T)
        y.append(np.concatenate(columns))

    reduction._stream([job], rows, [0.0], collect)
    return np.concatenate(points), np.concatenate(y, axis=1)


@dataclass(frozen=True)
class Scan:
    value: np.ndarray
    minus_inf: np.ndarray
    extras: tuple


@dataclass(frozen=True, eq=False)
class Table:
    """The reduction table at the nodes ``x``, one per row, at time ``t``:
    ``(n, N)`` endpoints of F and of its reduction, 0.0 on the rows that
    ``base_empty`` and ``empty`` flag, and the pinched-axes mask."""
    x: np.ndarray
    t: float
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


def _node_array(nodes, n: int) -> np.ndarray:
    """``nodes`` as a float array, which must be ``(N, n)``-shaped unless
    it is empty; a row's width is checked where the row is evaluated."""
    pts = np.asarray(nodes, dtype=float)
    if pts.ndim != 2 and pts.size:
        raise DimensionMismatchError(
            f"nodes must be an (N, {n}) array of points, got shape "
            f"{pts.shape}")
    return pts


def derivative_scans(inclusion, jobs, nodes, time_nodes) -> list[Scan]:
    """Each ``(candidate, reducers, extras)`` job along ``inclusion`` at
    every (time node, node) pair, in one pass: the generalized derivative
    (0.0 where ``minus_inf`` flags minus infinity), and each extra
    expression in its map's environment, each ``(time nodes, nodes)``."""
    pts = _node_array(nodes, inclusion.n_in)
    columns = scan([_derivative_job(inclusion, *job, pts.shape[-1])
                    for job in jobs], pts, time_nodes)
    return [Scan(value, minus_inf, tuple(extras))
            for value, minus_inf, *extras in columns]


def reduction_table(inclusion, reducers, nodes, t: float) -> Table:
    """The reduction table's job at every node at time ``t``, collected."""
    pts = _node_array(nodes, inclusion.n_in)
    columns = scan([reduction._reduction_job(
        inclusion, reducers, pts.shape[-1])], pts, [t])[0]
    return Table(pts, t, *(c[..., 0, :] for c in columns))


def table_reports(table: Table) -> tuple[str, str]:
    """The CSV and text reports of ``table`` as ``reduce`` writes them:
    the header, then ``reduction._reporter`` on ``_CHUNK`` rows at a
    time."""
    report = reduction._reporter(table.n, table.t)
    pieces = [(reduction._csv_header(table.n), "")] + [
        report(table.x[rows].T, *(c[..., rows] for c in (
            table.base_lo, table.base_hi, table.base_empty, table.lo,
            table.hi, table.empty, table.constrained)))
        for rows in grids._chunks(len(table.x))]
    return "".join(csv for csv, _ in pieces), "".join(
        text for _, text in pieces)
