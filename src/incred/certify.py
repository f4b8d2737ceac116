"""Grid-based certification of stability hypotheses.

Every check here screens a universally quantified hypothesis on a finite
grid, so a passing verdict is "certified on grid": a necessary-condition
screen with explicit witnesses on failure, not a proof over the
continuum. Guard surfaces must be injected into the grid via the
``include`` lists because guard comparisons are exact.

Checks provided:

* :func:`certify_lyapunov` -- generalized derivative below ``-W`` at
  every node (and time node), with optional sandwich envelopes
  ``lower <= V <= upper`` for the uniform (time-varying) statement;
* :func:`certify_semidefinite` -- same decrease test against a positive
  *semi*definite bound, the hypothesis behind asymptotic decay of
  ``W(x(t))``;
* :func:`invariance_data` -- the discrete estimate of the set where the
  derivative vanishes, plus equilibrium screening ``0 in F(x)`` of
  user-proposed invariant-set candidates (identifying the largest weakly
  invariant set is not automated);
* :func:`matrosov_chain` / :func:`matrosov_constants` -- the nested
  auxiliary-function chain on an annulus and the explicit combination
  constants obtained by doubling search.

Node scans are deterministic: nodes are visited in row-major order, and
the witness is the first maximal margin in that order whatever order
the chunks are folded in, so reports are byte-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr, reduction
from .derivative import _derivative_job
from .errors import SchemaError
from .grids import (GridSpec, _chunks, _region, _region_chunks,
                    _region_count, _rows, _stacked, check_size)
from .intervals import Annulus, IntervalBox, contains
from .reduction import _expression_job
from .setmaps import CheckSpec, MatrosovData, SystemDef, _number, eval_map

__all__ = [
    "CERTIFIED", "VIOLATED", "INCONCLUSIVE", "GridSpec",
    "Certificate", "certify_lyapunov", "certify_semidefinite",
    "InvarianceReport", "CandidateCheck", "invariance_data",
    "build_matrosov_problem", "matrosov_grid",
    "matrosov_chain", "matrosov_constants", "MatrosovConstantsResult",
    "verify_combined_bound", "matrosov_derivative_bounds",
]

CERTIFIED = "CERTIFIED"
VIOLATED = "VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"

_GRID_NOTE = ("certified on grid: finite screening of a universally "
              "quantified hypothesis, not a proof")
_CONSTANT_CAP = 2.0 ** 20  # where matrosov_constants' doubling gives up
_TOL = 1e-9     # default margin tolerance of the derivative screens
_EQ_TOL = 1e-6  # default |Y_i| <= eq_tol trigger of the Matrosov checks


@dataclass(frozen=True)
class Certificate:
    verdict: str
    condition: str
    worst_point: tuple[float, ...] | None
    worst_t: float | None
    worst_margin: float | None
    tolerances: dict
    grid_summary: dict
    details: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "condition": self.condition,
            "worst_point": (None if self.worst_point is None
                            else list(self.worst_point)),
            "worst_t": self.worst_t,
            "worst_margin": self.worst_margin,
            "tolerances": self.tolerances,
            "grid": self.grid_summary,
            "details": self.details,
        }

    def to_text(self) -> str:
        lines = [f"{self.condition}: {self.verdict}"]
        if self.worst_point is not None:
            lines.append(f"  worst point: {self.worst_point} "
                         f"t={self.worst_t} margin={self.worst_margin!r}")
        for key in sorted(self.tolerances):
            lines.append(f"  tol {key} = {self.tolerances[key]!r}")
        for key in sorted(self.details):
            lines.append(f"  {key}: {self.details[key]}")
        return "\n".join(lines) + "\n"


# --- the verdict reducer ---------------------------------------------------
#
# Every certificate folds its margins into a _Verdict, a chunk at a time
# in any order: each margin has a key, its flat index in scan order, and
# the witness is the largest margin, the lowest key on ties. The grid scans
# are flat (job, time node, node) with nodes row-major (_cell_witness); the
# Matrosov rows follow the (z, x) rows of _row_chunks.

def _violations(margin: np.ndarray, counted: np.ndarray,
                tol: float) -> int:
    """Counted margins that fail: above ``tol``, NaN or infinite."""
    return int(np.count_nonzero(
        counted & ~(np.isfinite(margin) & (margin <= tol))))


class _Verdict:
    """The running verdict on ``margin <= tol`` (see :func:`_violations`):
    the violations, the nonfinite count, and the first maximal non-NaN
    counted margin in scan order as witness."""

    def __init__(self, tol: float):
        self.tol, self.violations, self.nonfinite = tol, 0, 0
        self.worst = None  # (margin, -key, point, t)

    def add(self, margin, counted, witness) -> _Verdict:
        """Fold in one chunk: flat margins (overwritten) whose keys rise
        with the flat index, their mask, and ``witness(k)``, the key,
        point row and ``t`` label of the k-th."""
        self.violations += _violations(margin, counted, self.tol)
        self.nonfinite += int(np.count_nonzero(counted & ~np.isfinite(margin)))
        margin[~counted | np.isnan(margin)] = -np.inf
        k = int(np.argmax(margin)) if margin.size else 0
        if margin.size and margin[k] > -np.inf and (
                self.worst is None or margin[k] >= self.worst[0]):
            key, row, t = witness(k)
            if self.worst is None or (margin[k], -key) > self.worst[:2]:
                self.worst = float(margin[k]), -key, tuple(row.tolist()), t
        return self


def _margin_certificate(condition: str, verdict: _Verdict, tolerances: dict,
                        grid_summary: dict, details: dict,
                        failures: Sequence[str] = (),
                        count: str | None = None) -> Certificate:
    """The certificate of ``verdict`` and the screen ``failures``:
    ``details[count]`` gets the violation total, and
    ``nonfinite_margins`` the nonfinite count when nonzero."""
    if count is not None:
        details[count] = verdict.violations
    if verdict.nonfinite:
        details["nonfinite_margins"] = verdict.nonfinite
    if failures:
        details["screen_failures"] = list(failures)
    margin, _, point, t = verdict.worst or (None,) * 4
    return Certificate(
        CERTIFIED if not verdict.violations and not failures else VIOLATED,
        condition, point, t, margin, tolerances, grid_summary, details)


def _cell_witness(rows, x: np.ndarray, count: int, time_nodes, job: int = 0):
    """``witness(k)`` of a ``reduction._stream`` chunk of ``count`` nodes,
    flat time node outer: its key in (job, time node, node), node, time."""
    def witness(k):
        a, i = divmod(k, x.shape[1])
        key = (job * len(time_nodes) + a) * count + rows.start + i
        return key, x[:, i], time_nodes[a]
    return witness


def _earliest(first, hit: np.ndarray, column: np.ndarray, witness):
    """The earlier of ``first`` and the first cell of ``hit`` (flat, keys
    rising), as a screen's first failure ``(key, x, t, value)``."""
    if hit.any():
        key, row, t = witness(k := int(np.argmax(hit)))
        if first is None or key < first[0]:
            return key, row.tolist(), t, float(column[k])
    return first


def _origin_value_screen(name: str, value: expr.ScalarExpr, m, time_nodes,
                         failures: list) -> None:
    fn = expr.compile_scalar(value)
    origin = (0.0,) * m.n_in
    for t in time_nodes:
        v = fn(m.env(origin, t))
        if v != 0.0:
            failures.append(
                f"{name}(0) = {v!r} at t={t!r}, expected exactly 0")
            return


def _decrease_check(sys: SystemDef, bound: expr.ScalarExpr,
                    sandwich: tuple[expr.ScalarExpr, expr.ScalarExpr] | None,
                    tol: float, definite: bool) -> Certificate:
    """Screen ``derivative + bound <= tol`` on the system's grid with its
    reducers, after the positive-definite candidate screen (``definite``)
    or the ``bound >= 0`` screen, and the envelope screens: ``lower <= V
    <= upper`` within ``tol`` at every pair, and each envelope exactly 0
    at the origin and positive at nonzero nodes. One streamed scan."""
    tol, grid = _number(tol, "tol"), sys.require_grid()
    nodes, time_nodes = _region(grid.checked_axes(sys.domain)), grid.time_nodes
    candidate = sys.candidate
    extras = [(bound, sys.inclusion)]
    if definite or sandwich is not None:
        extras += [(candidate.value, candidate.gradient)]
    extras += [(e, sys.inclusion) for e in sandwich or ()]
    # (extra, name) per screen: value > 0 at nonzero nodes (NaN fails), or
    # for the name None bound >= -tol; each keeps its first failure
    screens = [(1, candidate.name) if definite else (0, None)]
    screens += [(2, "lower envelope"), (3, "upper envelope")] * bool(sandwich)
    first, verdict = [None] * len(screens), _Verdict(tol)
    tally = {"minus_inf": 0, "sandwich": 0}

    def fold(j, rows, x, columns):
        value, minus_inf, *extra = columns
        witness = _cell_witness(rows, x, nodes[1], time_nodes)
        for s, (c, name) in enumerate(screens):
            fails = ~(extra[c] >= -tol) if name is None else \
                ~(extra[c] > 0.0) & (x != 0.0).any(axis=0)
            first[s] = _earliest(first[s], fails.ravel(), extra[c].ravel(),
                                 witness)
        if sandwich is not None:
            v, lower, upper = extra[1:]
            tally["sandwich"] += int(np.count_nonzero(
                ~((lower - tol <= v) & (v <= upper + tol))))
        tally["minus_inf"] += int(np.count_nonzero(minus_inf))
        verdict.add((value + extra[0]).ravel(), ~minus_inf.ravel(), witness)

    reduction._stream([_derivative_job(sys.inclusion, candidate, sys.reducers,
                                       extras, grid.dims)],
                      nodes, time_nodes, fold)
    failures: list[str] = []
    details: dict = {}

    def report(s):  # screen s's first failure, if any
        if first[s] is not None:
            _, x, t, v = first[s]
            failures.append(f"bound({x}) = {v!r} at t={t!r} is negative"
                            if screens[s][1] is None else f"{screens[s][1]}"
                            f"({x}) = {v!r} at t={t!r} fails positivity")

    if definite:
        _origin_value_screen(candidate.name, candidate.value,
                             candidate.gradient, time_nodes, failures)
        details["nodes_checked"] = nodes[1] * len(time_nodes)
    report(0)
    for e, (_, name) in zip(sandwich or (), screens[1:]):
        _origin_value_screen(name, e, sys.inclusion, time_nodes, failures)
    for s in range(1, len(screens)):
        report(s)
    if sandwich is not None:
        if tally["sandwich"]:
            failures.append(f"candidate escapes the envelopes at "
                            f"{tally['sandwich']} node/time pairs")
        details.update(sandwich_checked=True,
                       sandwich_violations=tally["sandwich"])
    details.update(note=_GRID_NOTE, minus_inf_nodes=tally["minus_inf"],
                   reducers=[u.name for u in sys.reducers])
    return _margin_certificate(
        "lyapunov-decrease" if definite else "semidefinite-decrease",
        verdict, {"margin_tol": tol}, grid.summary(sys.domain), details,
        failures, "derivative_violations")


def certify_lyapunov(sys: SystemDef, bound: expr.ScalarExpr, *,
                     sandwich: tuple[expr.ScalarExpr, expr.ScalarExpr] | None = None,
                     tol: float = _TOL) -> Certificate:
    """Screen ``derivative <= -bound`` at every grid node and time node.

    The candidate is screened for positive definiteness on the grid
    (value exactly 0 at the origin, strictly positive at nonzero nodes).
    With ``sandwich=(lower, upper)`` the time-uniform envelopes
    ``lower(x) <= V(x, t) <= upper(x)`` are screened as well, both
    envelopes being positive definite. A minus-infinity derivative
    (empty reduced set) passes the decrease test vacuously. The grid and
    reducers are the system's: screen others on
    ``dataclasses.replace(sys, grid=..., reducers=...)``.
    """
    return _decrease_check(sys, bound, sandwich, tol, definite=True)


def certify_semidefinite(sys: SystemDef, bound: expr.ScalarExpr, *,
                         sandwich: tuple[expr.ScalarExpr, expr.ScalarExpr] | None = None,
                         tol: float = _TOL) -> Certificate:
    """Screen ``derivative <= -bound`` with a positive semidefinite bound.

    Also screens ``bound >= 0`` at every node and time node, and the
    envelopes of ``sandwich=(lower, upper)`` as :func:`certify_lyapunov`
    does. This is the hypothesis that drives asymptotic decay of
    ``bound(x(t))`` along complete bounded solutions; the simulator's
    tail check is its trajectory counterpart.
    """
    return _decrease_check(sys, bound, sandwich, tol, definite=False)


@dataclass(frozen=True)
class CandidateCheck:
    point: tuple[float, ...]
    is_equilibrium: bool
    inclusion_value: IntervalBox

    def to_dict(self) -> dict:
        d = {"point": list(self.point), "is_equilibrium": self.is_equilibrium}
        if self.inclusion_value.is_empty:
            d["inclusion_value"] = "empty"
        else:
            d["inclusion_value"] = {
                "lo": list(self.inclusion_value.lo_corner()),
                "hi": list(self.inclusion_value.hi_corner()),
            }
        return d


@dataclass(frozen=True)
class InvarianceReport:
    e_nodes: tuple[tuple[float, ...], ...]
    semidefinite: Certificate
    candidates: tuple[CandidateCheck, ...]
    zero_tol: float

    def to_dict(self) -> dict:
        return {
            "zero_tol": self.zero_tol,
            "e_node_count": len(self.e_nodes),
            "e_nodes": [list(x) for x in self.e_nodes],
            "semidefinite": self.semidefinite.to_dict(),
            "candidates": [c.to_dict() for c in self.candidates],
            "note": "candidate screening (0 in F(x)) is a necessary "
                    "condition for a point to host a constant solution, "
                    "not an invariance proof",
        }


def invariance_data(sys: SystemDef, *,
                    zero_tol: float | None = None) -> InvarianceReport:
    """Discrete data for invariance-principle arguments.

    Returns the grid nodes where the generalized derivative is finite
    and within ``zero_tol`` of zero (the discrete estimate of the
    vanishing set), a semidefiniteness certificate ``derivative <= 0``,
    and equilibrium screening of user-proposed candidate points: a
    trajectory can sit at ``x`` forever only if ``0 in F(x)``.
    ``zero_tol`` defaults to that of the system's ``certify`` block,
    whose ``candidates`` are screened (1e-6 and none without one).

    Autonomous systems only.
    """
    if sys.time_dependent:
        raise SchemaError("invariance analysis requires an autonomous system")
    grid, checks = sys.require_grid(), sys.checks or CheckSpec()
    zero_tol = _number(checks.zero_tol if zero_tol is None else zero_tol,
                       "zero_tol")
    nodes, t0 = _region(grid.checked_axes(sys.domain)), grid.time_nodes[0]
    verdict, e_nodes, minus_inf = _Verdict(_TOL), [], [0]

    def fold(j, rows, x, columns):  # the chunks come in node order
        (d,), (inf,) = columns  # one time node
        minus_inf[0] += int(np.count_nonzero(inf))
        e_nodes.extend(map(tuple, x[:, ~inf & (np.abs(d) <= zero_tol)]
                           .T.tolist()))
        verdict.add(d, ~inf, _cell_witness(rows, x, nodes[1], (t0,)))

    reduction._stream([_derivative_job(sys.inclusion, sys.candidate,
                                       sys.reducers, (), grid.dims)],
                      nodes, (t0,), fold)
    cert = _margin_certificate(
        "derivative-nonpositive", verdict, {"margin_tol": _TOL},
        grid.summary(sys.domain),
        {"note": _GRID_NOTE, "minus_inf_nodes": minus_inf[0]},
        count="derivative_violations")

    screened = []
    zero = (0.0,) * sys.n
    for point in checks.candidates:
        fbox = eval_map(sys.inclusion, point, t0)
        screened.append(CandidateCheck(tuple(float(v) for v in point),
                                       contains(fbox, zero), fbox))
    return InvarianceReport(tuple(e_nodes), cert, tuple(screened), zero_tol)


# --- Matrosov machinery --------------------------------------------------


def build_matrosov_problem(sys: SystemDef) -> MatrosovData:
    """The system's Matrosov block, once its annulus lies in the domain."""
    data = sys.matrosov
    if data is None:
        raise SchemaError("the system definition has no matrosov block")
    for axis in sys.domain.axes:
        if axis.lo > -data.big_delta or axis.hi < data.big_delta:
            raise SchemaError(
                "the annulus must lie inside the domain box "
                f"(need every axis to cover [-{data.big_delta}, "
                f"{data.big_delta}])")
    return data


# Node sets stream as (walk, count): ``count`` nodes in order, as the
# (dims, k) column arrays of grids._region_chunks (see grids._region).

def _annulus_nodes(prob: MatrosovData, sys: SystemDef, grid=None):
    """The grid's nodes in annulus(delta, Delta) as a node set ``(walk,
    count)``, counted by a pass of the annulus test alone. Every axis
    gains the radii ``+/-delta``, ``+/-Delta`` and 0, so that the
    closest-to-origin annulus points are hit exactly."""
    grid = grid if grid is not None else sys.require_grid()
    radii = (prob.delta, -prob.delta, prob.big_delta, -prob.big_delta, 0.0)
    axes = grid.checked_axes(sys.domain, (radii,) * sys.n)
    nodes = _region(axes, prob.annulus())
    if not nodes[1]:
        raise SchemaError("no grid nodes fall inside the annulus")
    return nodes


def _z_parts(prob: MatrosovData) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per z axis, sorted: the uniform nodes over ``[-gamma, gamma]`` and
    those of -gamma, 0, gamma they miss. The axis is their union, each
    value at its first occurrence's bits (0.0 or -0.0)."""
    g, parts = prob.gamma, []
    for count in prob.z_counts:
        vals = np.linspace(-g, g, count)
        if (vals[1:] > vals[:-1]).all():  # distinct and sorted
            new = [v for v in (-g, 0.0, g)
                   if v not in vals[np.searchsorted(vals, v):][:1]]
        else:
            vals, new = np.concatenate([vals, (-g, 0.0, g)]), []
            vals = vals[np.unique(vals, return_index=True)[1]]
        parts.append((vals, np.array(new)))
    return parts


def matrosov_grid(prob: MatrosovData, sys: SystemDef,
                  grid: GridSpec | None = None,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(z, x)`` node arrays over ball(0, gamma) x annulus(delta, Delta),
    both row-major: the x nodes of :func:`_annulus_nodes`, and per z axis
    uniform nodes over ``[-gamma, gamma]`` and -gamma, 0, gamma, filtered
    to the ball. Both stack the chunks that the Matrosov checks stream.

    Unless some Y reads z, the z nodes are the first one repeated (a
    broadcast view): the checks then read only the first, and the reports
    only the count. Those two come from the products of the axes' parts,
    which tile the z grid, so that no axis is built whole: one long axis
    would be built twice."""
    x_nodes = _stacked(_annulus_nodes(prob, sys, grid), sys.n)
    what = ("matrosov z nodes (z_counts "
            f"{' x '.join(map(str, prob.z_counts))})")
    check_size(math.prod(prob.z_counts), what)  # before the axes are built
    parts, ball = _z_parts(prob), Annulus(0.0, prob.gamma)
    check_size(math.prod(len(a) + len(b) for a, b in parts), what)
    if prob.aux_uses_z():
        axes = [np.insert(a, np.searchsorted(a, b), b) for a, b in parts]
        return _stacked(_region(axes, ball), prob.m), x_nodes
    count, firsts = 0, []
    for tile in itertools.product(*parts):
        if all(map(len, tile)):
            chunks = (z for z in _region_chunks(tile, ball) if z.size)
            firsts += [tuple(z[:, 0]) for z in itertools.islice(chunks, 1)]
            count += _region_count(tile, ball)
    return np.broadcast_to(min(firsts), (count, prob.m)), x_nodes


def _row_chunks(prob: MatrosovData, z_nodes, x_nodes, n: int):
    """The (z, x) rows, x outer and z inner, as a node set of ``(m + n,
    k)`` chunks of ``z + x`` (``x_nodes`` a node set of ``n`` state axes),
    at most ``_CHUNK`` rows each, and the ``reduction._stream`` job of
    Y_1..Y_M there. Only the first z is used when no Y reads z (the
    checks are then z-independent). The row count is checked first."""
    z = np.asarray(z_nodes if prob.aux_uses_z() else z_nodes[:1],
                   dtype=float).reshape(-1, prob.m).T
    (walk, x_count), nz = x_nodes, z.shape[1]
    check_size(x_count * nz, f"matrosov (z, x) rows ({nz} z nodes x "
               f"{x_count} x nodes)")

    def chunks():
        for x in walk():
            for rows in _chunks(x.shape[1] * nz):
                lo, hi = rows.start // nz, -(-rows.stop // nz)  # x nodes met
                points = np.empty((len(z) + len(x), hi - lo, nz))
                points[:len(z)] = z[:, None]
                points[len(z):] = x[:, lo:hi, None]
                yield points.reshape(len(points), -1)[
                    :, rows.start - lo * nz:rows.stop - lo * nz]
    return (chunks, x_count * nz), _expression_job(
        [(y, None) for y in prob.aux],
        [f"z{i+1}" for i in range(prob.m)] + [f"x{i+1}" for i in range(n)])


def _aux_table(prob: MatrosovData, z_nodes, x_nodes):
    """``(points, y)``: the rows of :func:`_row_chunks` as an ``(R, m +
    n)`` array of ``z + x``, and Y_1..Y_M there as ``(M, R)``."""
    x = np.asarray(x_nodes, dtype=float)
    rows, job = _row_chunks(prob, z_nodes, _rows(x), x.shape[1])
    points = _stacked(rows, prob.m + x.shape[1])
    return points, np.concatenate(reduction._scan([job], points, [0.0])[0])


def _chain_triggers(y: np.ndarray, eq_tol: float) -> np.ndarray:
    """``(M + 1, R)`` mask: row j flags where Y_1..Y_j all lie within
    ``eq_tol`` of 0 (row 0 everywhere)."""
    small = np.abs(y) <= _number(eq_tol, "eq_tol")
    return np.vstack([np.ones((1, y.shape[1]), dtype=bool),
                      np.logical_and.accumulate(small, axis=0)])


def matrosov_chain(prob: MatrosovData, z_nodes, x_nodes,
                   eq_tol: float = _EQ_TOL) -> Certificate:
    """Screen the nested chain: Y_1..Y_j all ~ 0 forces Y_{j+1} <= 0.

    The conventions Y_0 = 0 (so Y_1 <= 0 must hold unconditionally) and
    Y_{M+1} = 1 (so the full chain must never be simultaneously ~ 0 on
    the annulus) are applied here. Equality triggers use ``|Y_i| <=
    eq_tol``; the same tolerance bounds the required sign.
    """
    points, y = _aux_table(prob, z_nodes, x_nodes)
    trig = _chain_triggers(y, eq_tol)
    nxt = np.vstack([y, np.ones((1, y.shape[1]))])
    # flat index r * (M + 1) + j: row outer, chain index inner
    width = len(trig)
    return _margin_certificate(
        "matrosov-chain", _Verdict(0.0).add(
            (nxt - eq_tol).T.ravel(), trig.T.ravel(),
            lambda k: (k, points[k // width], float(k % width))),
        {"eq_tol": eq_tol},
        {"z_nodes": len(z_nodes), "x_nodes": len(x_nodes)},
        {"note": _GRID_NOTE + "; worst_t is the chain index j, "
         "worst_point is (z, x)",
         "trigger_counts": trig.sum(axis=1).tolist(),
         "aux_uses_z": prob.aux_uses_z()})


@dataclass(frozen=True)
class MatrosovConstantsResult:
    constants: tuple[float, ...]
    zeta: float | None
    epsilon_estimate: float | None
    certificate: Certificate

    def to_dict(self) -> dict:
        return {
            "constants": list(self.constants),
            "zeta": self.zeta,
            "epsilon_estimate": self.epsilon_estimate,
            "certificate": self.certificate.to_dict(),
        }


def _check_zeta_target(zeta_target: float | None) -> None:
    if zeta_target is not None and not 0.0 < zeta_target < math.inf:
        raise SchemaError(
            f"zeta_target must be finite and > 0, got {zeta_target!r}")


def matrosov_constants(prob: MatrosovData, z_nodes, x_nodes, *,
                       zeta_target: float | None = None,
                       eq_tol: float = _EQ_TOL) -> MatrosovConstantsResult:
    """Combination constants K_1..K_{M-1} and the decay level zeta.

    zeta defaults to the discrete estimate of the guaranteed gap: the
    most pessimistic value of ``-Y_M`` over the nodes where Y_1..Y_{M-1}
    all vanish within ``eq_tol``. Each constant is then found by
    doubling from 1 (cap ``2**20``) until the partial combination meets
    its halved budget on its trigger set; the final certificate checks
    ``Z <= -zeta / 2^{M-1}`` at every node. A given ``zeta_target``
    must be finite and > 0.
    """
    _check_zeta_target(zeta_target)
    M = prob.count
    points, y = _aux_table(prob, z_nodes, x_nodes)
    trig = _chain_triggers(y, eq_tol)
    grid_summary = {"z_nodes": len(z_nodes), "x_nodes": len(x_nodes)}
    tolerances = {"eq_tol": eq_tol, "cap": _CONSTANT_CAP}

    def inconclusive(reason: str, diagnostics: dict) -> MatrosovConstantsResult:
        cert = Certificate(
            verdict=INCONCLUSIVE, condition="matrosov-constants",
            worst_point=None, worst_t=None, worst_margin=None,
            tolerances=tolerances, grid_summary=grid_summary,
            details={"reason": reason, **diagnostics})
        return MatrosovConstantsResult((), None, None, cert)

    epsilon = None
    last = y[M - 1, trig[M - 1]]
    if last.size:  # the first maximal value, NaN if any
        epsilon = -float(last[np.argmax(last)])
    if zeta_target is not None:
        zeta = float(zeta_target)
    else:
        if epsilon is None:
            return inconclusive(
                "no node triggers the full chain; supply zeta_target", {})
        if not epsilon > 0.0:
            return inconclusive(
                "triggered nodes do not leave a negative gap "
                "(is the chain certificate CERTIFIED?)",
                {"epsilon_estimate": epsilon})
        zeta = epsilon

    running = y[M - 1]
    budget = zeta
    constants_rev: list[float] = []
    for level in range(M, 1, -1):
        budget /= 2.0
        on = trig[level - 2]
        yl = y[level - 2]
        k = 1.0
        while not np.all(k * yl[on] + running[on] <= -budget):
            k *= 2.0
            if k > _CONSTANT_CAP:
                worst = np.flatnonzero(on)[np.argmax(yl[on] + running[on])]
                return inconclusive(
                    f"doubling search exceeded the cap at level {level}",
                    {"level": level, "budget": budget,
                     "worst_point": points[worst].tolist(),
                     "epsilon_estimate": epsilon, "zeta": zeta})
        constants_rev.append(k)
        running = k * yl + running
    constants = tuple(reversed(constants_rev))

    final_bound = -zeta / (2.0 ** (M - 1))
    cert = _margin_certificate(
        "matrosov-constants", _Verdict(0.0).add(
            running - final_bound, np.ones(len(running), bool),
            lambda k: (k, points[k], 0.0)), tolerances, grid_summary,
        {"note": _GRID_NOTE + "; worst_point is (z, x), margin is "
         "Z - (-zeta / 2^(M-1))", "epsilon_estimate": epsilon,
         "final_bound": final_bound}, count="combination_violations")
    return MatrosovConstantsResult(constants, zeta, epsilon, cert)


def verify_combined_bound(prob: MatrosovData, sys: SystemDef,
                          constants: Sequence[float], zeta: float, z_nodes,
                          grid: GridSpec) -> Certificate:
    """Re-check ``Z = K_1 Y_1 + (K_2 Y_2 + (... + Y_M)) <= -zeta /
    2^(M-1)``, summed as :func:`matrosov_constants` sums it, at the
    annulus nodes of ``grid`` (as :func:`matrosov_grid` picks them) and
    ``z_nodes``, streamed: no array outlives a chunk of
    :func:`_row_chunks`, so memory does not grow with the grid.

    Used to confirm searched constants on a finer verification grid than
    the one that produced them.
    """
    M = prob.count
    if len(constants) != M - 1:
        raise SchemaError(f"expected {M - 1} constants, got {len(constants)}")
    x_nodes = _annulus_nodes(prob, sys, grid)
    rows, job = _row_chunks(prob, z_nodes, x_nodes, sys.n)
    final_bound, verdict = -zeta / (2.0 ** (M - 1)), _Verdict(0.0)

    def fold(j, rows, points, y):  # NaN and inf are counted
        z = y[M - 1][0]
        for k, yj in reversed(list(zip(constants, y))):
            z = k * yj[0] + z
        verdict.add(z - final_bound, np.ones(len(z), bool),
                    lambda k: (rows.start + k, points[:, k], 0.0))

    reduction._stream([job], rows, [0.0], fold)
    return _margin_certificate(
        "matrosov-combined-bound", verdict, {"zeta": zeta},
        {"z_nodes": len(z_nodes), "x_nodes": x_nodes[1]},
        {"final_bound": final_bound}, count="combination_violations")


def matrosov_derivative_bounds(sys: SystemDef,
                               prob: MatrosovData) -> Certificate:
    """Screen the per-function derivative bounds on the annulus.

    For each comparison function W_j, checks ``derivative of W_j along
    the inclusion, reduced by its own collection, <= Y_j(phi(x, t), x)``
    at annulus nodes and time nodes, all W_j in one pass that evaluates
    the inclusion once for all of them. Informational: the chain and
    constants certificates do not depend on it.
    """
    nodes = _annulus_nodes(prob, sys)  # no z grid
    time_nodes = sys.require_grid().time_nodes
    z = {f"z{i+1}": phi for i, phi in enumerate(prob.phi)}
    jobs = [_derivative_job(sys.inclusion, w, coll, [
        (expr.substitute(y, z), sys.inclusion)], sys.n)
        for w, coll, y in zip(prob.functions, prob.collections, prob.aux)]
    verdict, per_function = _Verdict(_TOL), [0] * len(jobs)

    def fold(j, rows, x, columns):
        value, minus_inf, y = columns
        margin, counted = (value - y).ravel(), ~minus_inf.ravel()
        per_function[j] += _violations(margin, counted, _TOL)
        verdict.add(margin, counted,
                    _cell_witness(rows, x, nodes[1], time_nodes, j))

    reduction._stream(jobs, nodes, time_nodes, fold)
    return _margin_certificate(
        "matrosov-derivative-bounds", verdict, {"margin_tol": _TOL},
        {"x_nodes": nodes[1], "time_nodes": list(time_nodes)},
        {"note": "informational screen; the chain and constants "
                 "certificates do not depend on it",
         "violations_per_function": per_function})
