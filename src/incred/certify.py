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

Node scans are deterministic: nodes are visited in row-major order and
worst-case tracking uses strict improvement, so reports are byte-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr, reduction
from .derivative import _scan, scan_derivative
from .errors import SchemaError
from .grids import (GridSpec, _chunks, _region_chunks, _region_count,
                    _stacked, check_size)
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
# Every certificate reduces its margins by _margin_certificate, a chunk at
# a time. Margins are flat in scan order, so "first in scan order" is the
# lowest flat index of the earliest chunk. scan_derivative columns have
# shape (time nodes, nodes): time outer, nodes row-major. Matrosov columns
# follow the (z, x) rows of _row_chunks.

def _violations(margin: np.ndarray, counted: np.ndarray,
                tol: float) -> int:
    """Counted margins that fail: above ``tol``, NaN or infinite."""
    return int(np.count_nonzero(
        counted & ~(np.isfinite(margin) & (margin <= tol))))


def _worst_margin(margin: np.ndarray, counted: np.ndarray):
    """``(nonfinite, k)``: how many counted margins are NaN or infinite,
    and the flat index of the first maximal non-NaN counted margin (None
    when there is none). ``margin`` is overwritten."""
    nonfinite = int(np.count_nonzero(counted & ~np.isfinite(margin)))
    margin[~counted | np.isnan(margin)] = -np.inf
    k = int(np.argmax(margin)) if margin.size else 0
    return nonfinite, (k if margin.size and margin[k] > -np.inf else None)


def _margin_certificate(condition: str, chunks, tol: float,
                        tolerances: dict, grid_summary: dict, details: dict,
                        failures: Sequence[str] = (),
                        count: str | None = None) -> Certificate:
    """Verdict on ``margin <= tol`` at every counted margin of ``chunks``
    (see :func:`_violations`) and on the screen ``failures``, with the
    worst counted margin as witness.

    Each chunk is ``(margin, counted, witness)``: the margins, flat in scan
    order (overwritten), their mask, and ``witness(k)``, the point row and
    ``t`` label of the k-th. The witness is the first maximal non-NaN
    margin, which strict improvement in scan order keeps across chunks.
    ``details[count]`` gets the violation total, and ``nonfinite_margins``
    the nonfinite count when nonzero.
    """
    violations = nonfinite = 0
    worst = (None, None, None)  # point, t, margin
    for margin, counted, witness in chunks:
        violations += _violations(margin, counted, tol)
        bad, k = _worst_margin(margin, counted)
        nonfinite += bad
        if k is not None and (worst[2] is None or margin[k] > worst[2]):
            row, t = witness(k)
            worst = (tuple(row.tolist()), t, float(margin[k]))
    if count is not None:
        details[count] = violations
    if nonfinite:
        details["nonfinite_margins"] = nonfinite
    if failures:
        details["screen_failures"] = list(failures)
    return Certificate(
        CERTIFIED if not violations and not failures else VIOLATED,
        condition, *worst, tolerances, grid_summary, details)


def _scan_witness(pts: np.ndarray, time_nodes):
    """Witness lookup for scan columns flattened time outer."""
    def witness(k):
        a, b = divmod(k, len(pts))
        return pts[b], time_nodes[a]
    return witness


def _first_failure(bad: np.ndarray, column: np.ndarray, pts: np.ndarray,
                   time_nodes):
    """``(x, t, value)`` at the first flagged pair in scan order, or None."""
    if not bad.any():
        return None
    a, b = divmod(int(np.argmax(bad)), len(pts))
    return pts[b].tolist(), time_nodes[a], float(column[a, b])


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


def _positive_screen(name: str, column: np.ndarray, pts: np.ndarray,
                     time_nodes, failures: list) -> None:
    """Require value > 0 at every nonzero node; NaN fails."""
    nonzero = np.any(pts != 0.0, axis=1)
    hit = _first_failure(~(column > 0.0) & nonzero, column, pts, time_nodes)
    if hit is not None:
        x, t, v = hit
        failures.append(f"{name}({x}) = {v!r} at t={t!r} fails positivity")


def _sandwich_screen(sys: SystemDef,
                     sandwich: tuple[expr.ScalarExpr, expr.ScalarExpr],
                     columns, pts: np.ndarray, time_nodes, tol: float,
                     failures: list, details: dict) -> None:
    """Screen ``lower <= V <= upper`` within ``tol`` at every pair, and
    each envelope for exactly 0 at the origin and positive at nonzero
    nodes. ``columns`` are the scan's V, lower and upper columns."""
    v, lower, upper = columns
    names = ("lower envelope", "upper envelope")
    for name, e in zip(names, sandwich):
        _origin_value_screen(name, e, sys.inclusion, time_nodes, failures)
    for name, column in zip(names, (lower, upper)):
        _positive_screen(name, column, pts, time_nodes, failures)
    violations = int(np.count_nonzero(
        ~((lower - tol <= v) & (v <= upper + tol))))
    if violations:
        failures.append(f"candidate escapes the envelopes at {violations} "
                        "node/time pairs")
    details["sandwich_checked"] = True
    details["sandwich_violations"] = violations


def _decrease_check(sys: SystemDef, bound: expr.ScalarExpr,
                    sandwich: tuple[expr.ScalarExpr, expr.ScalarExpr] | None,
                    tol: float, definite: bool) -> Certificate:
    """Screen ``derivative + bound <= tol`` on the system's grid with its
    reducers, after the positive-definite candidate screen (``definite``)
    or the ``bound >= 0`` screen, and the envelope screen."""
    tol, grid = _number(tol, "tol"), sys.require_grid()
    pts = grid.nodes(sys.domain)
    time_nodes = grid.time_nodes
    candidate = sys.candidate
    extras = [(bound, sys.inclusion)]
    if definite or sandwich is not None:
        extras += [(candidate.value, candidate.gradient)]
    extras += [(e, sys.inclusion) for e in sandwich or ()]
    scan = scan_derivative(candidate, sys.inclusion, sys.reducers, pts,
                           time_nodes, extras)
    w = scan.extras[0]

    failures: list[str] = []
    details: dict = {}
    if definite:
        _origin_value_screen(candidate.name, candidate.value,
                             candidate.gradient, time_nodes, failures)
        _positive_screen(candidate.name, scan.extras[1], pts, time_nodes,
                         failures)
        details["nodes_checked"] = scan.minus_inf.size
    else:
        hit = _first_failure(~(w >= -tol), w, pts, time_nodes)
        if hit is not None:
            x, t, value = hit
            failures.append(f"bound({x}) = {value!r} at t={t!r} is negative")
    if sandwich is not None:
        _sandwich_screen(sys, sandwich, scan.extras[1:], pts, time_nodes,
                         tol, failures, details)
    margin = scan.value.ravel()
    margin += w.ravel()
    details.update(note=_GRID_NOTE,
                   minus_inf_nodes=int(np.count_nonzero(scan.minus_inf)),
                   reducers=[u.name for u in sys.reducers])
    return _margin_certificate(
        "lyapunov-decrease" if definite else "semidefinite-decrease",
        [(margin, ~scan.minus_inf.ravel(), _scan_witness(pts, time_nodes))],
        tol, {"margin_tol": tol}, grid.summary(sys.domain), details,
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
    pts = grid.nodes(sys.domain)
    t0 = grid.time_nodes[0]
    scan = scan_derivative(sys.candidate, sys.inclusion, sys.reducers, pts,
                           (t0,))
    d, counted = scan.value[0], ~scan.minus_inf[0]
    vanishing = pts[counted & (np.abs(d) <= zero_tol)]
    e_nodes = [tuple(x) for x in vanishing.tolist()]
    cert = _margin_certificate(
        "derivative-nonpositive", [(d, counted, _scan_witness(pts, (t0,)))],
        _TOL, {"margin_tol": _TOL}, grid.summary(sys.domain),
        {"note": _GRID_NOTE,
         "minus_inf_nodes": int(np.count_nonzero(scan.minus_inf))},
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


# Node sets stream as (chunks, count): ``count`` nodes in order, as the
# (dims, k) column arrays of grids._region_chunks.

def _annulus_nodes(prob: MatrosovData, sys: SystemDef, grid=None):
    """The grid's nodes in annulus(delta, Delta) as ``(chunks, count)``,
    counted by a pass of the annulus test alone. Every axis gains the
    radii ``+/-delta``, ``+/-Delta`` and 0, so that the closest-to-origin
    annulus points are hit exactly."""
    grid = grid if grid is not None else sys.require_grid()
    radii = (prob.delta, -prob.delta, prob.big_delta, -prob.big_delta, 0.0)
    axes = grid.checked_axes(sys.domain, (radii,) * sys.n)
    count = _region_count(axes, prob.annulus())
    if not count:
        raise SchemaError("no grid nodes fall inside the annulus")
    return _region_chunks(axes, prob.annulus()), count


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
    x_nodes = _stacked(_annulus_nodes(prob, sys, grid)[0], sys.n)
    what = ("matrosov z nodes (z_counts "
            f"{' x '.join(map(str, prob.z_counts))})")
    check_size(math.prod(prob.z_counts), what)  # before the axes are built
    parts, ball = _z_parts(prob), Annulus(0.0, prob.gamma)
    check_size(math.prod(len(a) + len(b) for a, b in parts), what)
    if prob.aux_uses_z():
        axes = [np.insert(a, np.searchsorted(a, b), b) for a, b in parts]
        return _stacked(_region_chunks(axes, ball), prob.m), x_nodes
    count, firsts = 0, []
    for tile in itertools.product(*parts):
        if all(map(len, tile)):
            chunks = (z for z in _region_chunks(tile, ball) if z.size)
            firsts += [tuple(z[:, 0]) for z in itertools.islice(chunks, 1)]
            count += _region_count(tile, ball)
    return np.broadcast_to(min(firsts), (count, prob.m)), x_nodes


def _row_chunks(prob: MatrosovData, z_nodes, x_chunks, x_count: int,
                n: int):
    """The (z, x) rows, x outer and z inner, as ``(points, y)`` per chunk
    of at most ``_CHUNK`` rows: the ``(m + n, k)`` columns of ``z + x``
    (``n`` state axes) and Y_1..Y_M there, M ``(k,)`` columns of one
    ``reduction._scan``. Only the first z is used when no Y reads z (the
    checks are then z-independent). The row count is checked before any
    Y is evaluated."""
    z = np.asarray(z_nodes if prob.aux_uses_z() else z_nodes[:1],
                   dtype=float).reshape(-1, prob.m).T
    check_size(x_count * z.shape[1], f"matrosov (z, x) rows ({z.shape[1]} "
               f"z nodes x {x_count} x nodes)")
    job = _expression_job([(y, None) for y in prob.aux],
                          [f"z{i+1}" for i in range(prob.m)]
                          + [f"x{i+1}" for i in range(n)])
    nz = z.shape[1]
    for x in x_chunks:
        for rows in _chunks(x.shape[1] * nz):
            lo, hi = rows.start // nz, -(-rows.stop // nz)  # the x nodes met
            points = np.empty((len(z) + len(x), hi - lo, nz))
            points[:len(z)], points[len(z):] = z[:, None], x[:, lo:hi, None]
            points = points.reshape(len(points), -1)[
                :, rows.start - lo * nz:rows.stop - lo * nz]
            yield points, [c[0] for c in reduction._scan([job], points.T,
                                                          [0.0])[0]]


def _aux_table(prob: MatrosovData, z_nodes, x_nodes):
    """``(points, y)``: :func:`_row_chunks` stacked, as an ``(R, m + n)``
    array of ``z + x`` and Y_1..Y_M there as ``(M, R)``."""
    x = np.asarray(x_nodes, dtype=float)
    table = list(_row_chunks(prob, z_nodes, (x[r].T for r in _chunks(len(x))),
                             len(x), x.shape[1]))
    return (_stacked((points for points, _ in table), prob.m + x.shape[1]),
            _stacked((y for _, y in table), prob.count).T)


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
        "matrosov-chain", [((nxt - eq_tol).T.ravel(), trig.T.ravel(),
                            lambda k: (points[k // width], float(k % width)))],
        0.0, {"eq_tol": eq_tol},
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
        "matrosov-constants", [(running - final_bound,
                                np.ones(len(running), bool),
                                lambda k: (points[k], 0.0))],
        0.0, tolerances, grid_summary,
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
    x_chunks, x_count = _annulus_nodes(prob, sys, grid)
    final_bound = -zeta / (2.0 ** (M - 1))

    def margins():
        for points, y in _row_chunks(prob, z_nodes, x_chunks, x_count, sys.n):
            with np.errstate(all="ignore"):  # NaN and inf are counted
                z = y[M - 1]
                for k, yj in reversed(list(zip(constants, y))):
                    z = k * yj + z
            yield (z - final_bound, np.ones(len(z), bool),
                   lambda k: (points[:, k], 0.0))
    return _margin_certificate(
        "matrosov-combined-bound", margins(), 0.0, {"zeta": zeta},
        {"z_nodes": len(z_nodes), "x_nodes": x_count},
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
    pts = _stacked(_annulus_nodes(prob, sys)[0], sys.n)  # no z grid
    time_nodes = sys.require_grid().time_nodes
    z = {f"z{i+1}": phi for i, phi in enumerate(prob.phi)}
    scans = _scan(sys.inclusion, [
        (w, coll, [(expr.substitute(y, z), sys.inclusion)])
        for w, coll, y in zip(prob.functions, prob.collections, prob.aux)],
        pts, time_nodes)
    witness = _scan_witness(pts, time_nodes)
    chunks = [((scan.value - scan.extras[0]).ravel(),
               ~scan.minus_inf.ravel(), witness) for scan in scans]
    per_function = [_violations(mg, c, _TOL) for mg, c, _ in chunks]
    return _margin_certificate(
        "matrosov-derivative-bounds", chunks, _TOL, {"margin_tol": _TOL},
        {"x_nodes": len(pts), "time_nodes": list(time_nodes)},
        {"note": "informational screen; the chain and constants "
                 "certificates do not depend on it",
         "violations_per_function": per_function})
