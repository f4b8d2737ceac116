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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import expr, reduction
from .derivative import _derivative_job
from .errors import SchemaError
from .grids import GridSpec, _chunks, _region, check_size
from .intervals import Annulus, IntervalBox, contains
from .reduction import _expression_job
from .setmaps import (CheckSpec, MatrosovData, SystemDef, _number,
                      _tolerance, eval_map)

__all__ = [
    "CERTIFIED", "VIOLATED", "INCONCLUSIVE", "GridSpec",
    "Certificate", "certify_lyapunov", "certify_semidefinite",
    "InvarianceReport", "CandidateCheck", "invariance_data",
    "matrosov_grid",
    "matrosov_chain", "matrosov_constants", "MatrosovConstantsResult",
    "verify_combined_bound", "matrosov_derivative_bounds",
]

CERTIFIED = "CERTIFIED"
VIOLATED = "VIOLATED"
INCONCLUSIVE = "INCONCLUSIVE"

_GRID_NOTE = ("certified on grid: finite screening of a universally "
              "quantified hypothesis, not a proof")
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

class _Verdict:
    """The running verdict on ``margin <= tol``: the violations (counted
    margins above ``tol``, NaN or infinite), the nonfinite count, and the
    first maximal non-NaN counted margin in scan order as witness."""

    def __init__(self, tol: float):
        self.tol, self.violations, self.nonfinite = tol, 0, 0
        self.worst = None  # (margin, -key, point, t)

    def add(self, margin, counted, witness) -> _Verdict:
        """Fold in one chunk: flat margins (overwritten) whose keys rise
        with the flat index, their mask, and ``witness(k)``, the key,
        point row and ``t`` label of the k-th."""
        finite = np.isfinite(margin)
        self.violations += int(np.count_nonzero(
            counted & ~(finite & (margin <= self.tol))))
        self.nonfinite += int(np.count_nonzero(counted & ~finite))
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
    zero_tol = _tolerance(checks.zero_tol if zero_tol is None else zero_tol,
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
#
# Every public stage takes the system first, then the node sets of
# matrosov_grid it walks. Node sets stream as (walk, count): ``count`` nodes
# in order, as the (dims, k) column arrays of grids._region_chunks (see
# grids._region).

def _problem(sys: SystemDef) -> MatrosovData:
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


def _annulus_nodes(sys: SystemDef):
    """The system grid's nodes in annulus(delta, Delta), counted by a pass
    of the annulus test alone, on axes that gain the radii ``+/-delta``,
    ``+/-Delta`` and 0 to hit the closest-to-origin annulus points: no
    other code widens them, so the annulus is checked here."""
    prob = _problem(sys)
    radii = (prob.delta, -prob.delta, prob.big_delta, -prob.big_delta, 0.0)
    nodes = _region(sys.require_grid().checked_axes(
        sys.domain, (radii,) * sys.n), prob.annulus())
    if not nodes[1]:
        raise SchemaError("no grid nodes fall inside the annulus")
    return nodes


def _z_axes(prob: MatrosovData) -> list[np.ndarray]:
    """Per z axis, sorted: the uniform nodes over ``[-gamma, gamma]`` and
    those of -gamma, 0, gamma they miss, each value at its first
    occurrence's bits (0.0 or -0.0)."""
    g, axes = prob.gamma, []
    for count in prob.z_counts:
        vals = np.linspace(-g, g, count)
        if (vals[1:] > vals[:-1]).all():  # distinct and sorted: no sort
            new = [v for v in (-g, 0.0, g)
                   if v not in vals[np.searchsorted(vals, v):][:1]]
            vals = np.insert(vals, np.searchsorted(vals, new), new)
        else:
            vals = np.concatenate([vals, (-g, 0.0, g)])
            vals = vals[np.unique(vals, return_index=True)[1]]
        axes.append(vals)
    return axes


def matrosov_grid(sys: SystemDef):
    """The Matrosov node sets of the system's grid, row-major: the z
    nodes, per z axis uniform over ``[-gamma, gamma]`` with -gamma, 0,
    gamma, in ball(0, gamma), and the x nodes of :func:`_annulus_nodes`.
    Unless some Y reads z the checks read only the first z node, the
    reports all; the (z, x) rows read are size-checked here."""
    x_nodes, prob = _annulus_nodes(sys), sys.matrosov
    what = ("matrosov z nodes (z_counts "
            f"{' x '.join(map(str, prob.z_counts))})")
    check_size(math.prod(prob.z_counts), what)  # before the axes are built
    axes = _z_axes(prob)
    check_size(math.prod(map(len, axes)), what)
    z_nodes = _region(axes, Annulus(0.0, prob.gamma))
    nz = z_nodes[1] if prob.aux_uses_z() else 1
    check_size(x_nodes[1] * nz, f"matrosov (z, x) rows ({nz} z nodes x "
               f"{x_nodes[1]} x nodes)")
    return z_nodes, x_nodes


def _row_chunks(prob: MatrosovData, z_nodes, x_nodes):
    """The (z, x) rows, x outer and z inner, as a node set of ``(m + n,
    k)`` chunks of ``z + x``, at most ``_CHUNK`` rows each, and the
    ``reduction._stream`` job of Y_1..Y_M there. Only the first z is used
    when no Y reads z; :func:`matrosov_grid` checked the row count."""
    (z_walk, _), (walk, x_count) = z_nodes, x_nodes
    if prob.aux_uses_z():
        z = np.concatenate([np.empty((prob.m, 0)), *z_walk()], axis=1)
    else:
        z = next((c[:, :1] for c in z_walk() if c.size),
                 np.empty((prob.m, 0)))
    nz, n = z.shape[1], len(next(walk(), ()))  # n state axes

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


# The chain (one pass) and the constants (M passes, 2 if M = 1) fold the Y
# stream of _row_chunks, a chunk's Y_1..Y_M as the (M, k) array ``y``.

_TRIES = 2.0 ** np.arange(21)  # the doubling search's k = 1, 2, ..., 2**20
_CONSTANT_CAP = float(_TRIES[-1])  # where it gives up; reports print its repr


def _chain_triggers(y: np.ndarray, tol: float) -> np.ndarray:
    """``(M + 1, k)`` mask: row j flags where Y_1..Y_j all lie within
    ``tol`` of 0 (row 0 everywhere)."""
    trig = np.ones((len(y) + 1, y.shape[1]), dtype=bool)
    for j, yj in enumerate(y):
        trig[j + 1] = trig[j] & (np.abs(yj) <= tol)
    return trig


def _first_argmax(best, values: np.ndarray, point):
    """The earlier of ``best`` and the first maximum of ``values``, NaN
    first as ``np.argmax`` picks it, as ``(value, point(k))``."""
    if values.size:
        k = int(np.argmax(values))
        if best is None or not (values[k] <= best[0] or np.isnan(best[0])):
            return float(values[k]), point(k)
    return best


def _combined(y, constants) -> np.ndarray:
    """``K_1 Y_1 + (K_2 Y_2 + (... + Y_M))`` over the last
    ``len(constants) + 1`` rows of ``y``, in this order of operations."""
    z = y[-1]
    for k, yj in zip(reversed(constants), y[-2::-1]):
        z = k * yj + z
    return z


def matrosov_chain(sys: SystemDef, z_nodes, x_nodes,
                   eq_tol: float = _EQ_TOL) -> Certificate:
    """Screen the nested chain: Y_1..Y_j all ~ 0 forces Y_{j+1} <= 0.

    The conventions Y_0 = 0 (so Y_1 <= 0 must hold unconditionally) and
    Y_{M+1} = 1 (so the full chain must never be simultaneously ~ 0 on
    the annulus) are applied here. Equality triggers use ``|Y_i| <=
    eq_tol``; the same tolerance bounds the required sign. ``z_nodes``
    and ``x_nodes`` are the node sets of :func:`matrosov_grid`, streamed.
    """
    prob, tol = _problem(sys), _tolerance(eq_tol, "eq_tol")
    width = prob.count + 1
    verdict, counts = _Verdict(0.0), np.zeros(width, dtype=np.int64)

    def fold(j, rows, points, columns):  # key row * (M + 1) + j
        y = np.concatenate(columns)
        trig = _chain_triggers(y, tol)
        counts[:] += trig.sum(axis=1)
        verdict.add((np.vstack([y, np.ones((1, y.shape[1]))]) - eq_tol)
                    .T.ravel(), trig.T.ravel(), lambda k: (
                        rows.start * width + k, points[:, k // width],
                        float(k % width)))

    rows, job = _row_chunks(prob, z_nodes, x_nodes)
    reduction._stream([job], rows, [0.0], fold)
    return _margin_certificate(
        "matrosov-chain", verdict, {"eq_tol": eq_tol},
        {"z_nodes": z_nodes[1], "x_nodes": x_nodes[1]},
        {"note": _GRID_NOTE + "; worst_t is the chain index j, "
         "worst_point is (z, x)",
         "trigger_counts": counts.tolist(), "aux_uses_z": prob.aux_uses_z()})


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


def matrosov_constants(sys: SystemDef, z_nodes, x_nodes, *,
                       zeta_target: float | None = None,
                       eq_tol: float = _EQ_TOL) -> MatrosovConstantsResult:
    """Combination constants K_1..K_{M-1} and the decay level zeta.

    zeta defaults to the discrete estimate of the guaranteed gap: the
    most pessimistic value of ``-Y_M`` over the nodes where Y_1..Y_{M-1}
    all vanish within ``eq_tol``. Each constant is then found by
    doubling from 1 (cap ``2**20``) until the partial combination meets
    its halved budget on its trigger set; the final certificate checks
    ``Z <= -zeta / 2^{M-1}`` at every node. A given ``zeta_target``
    must be finite and > 0. Streamed: M passes over the rows (two for M
    = 1), M - 1 that search (the first also finds epsilon) and one that
    checks; nothing but the constants is held between passes.
    """
    _check_zeta_target(zeta_target)
    prob, tol = _problem(sys), _tolerance(eq_tol, "eq_tol")
    M, constants = prob.count, []
    rows, job = _row_chunks(prob, z_nodes, x_nodes)

    def search(level):
        """One pass: the first maximal Y_M where Y_1..Y_{M-1} trigger;
        for level >= 2, on the triggers of Y_1..Y_{level-2}, per try k
        the largest ``k * Y_{level-1} + running`` (NaN if any), and the
        first maximal ``Y_{level-1} + running`` and its point."""
        found = [None, np.full(len(_TRIES), -np.inf), None]

        def fold(j, rows, points, columns):
            y = np.concatenate(columns)
            trig = _chain_triggers(y, tol)
            found[0] = _first_argmax(found[0], y[M - 1, trig[M - 1]], int)
            if level > 1:
                on = trig[level - 2]
                yl, running = y[level - 2, on], _combined(y, constants)[on]
                tries = np.multiply.outer(_TRIES, yl)
                tries += running
                np.maximum(found[1], tries.max(axis=1, initial=-np.inf),
                           out=found[1])
                found[2] = _first_argmax(found[2], yl + running, lambda k: (
                    points[:, np.flatnonzero(on)[k]].tolist()))

        reduction._stream([job], rows, [0.0], fold)
        return found

    last, top, worst = search(M)
    summary = {"z_nodes": z_nodes[1], "x_nodes": x_nodes[1]}
    tolerances = {"eq_tol": eq_tol, "cap": _CONSTANT_CAP}

    def inconclusive(reason: str, diagnostics: dict) -> MatrosovConstantsResult:
        return MatrosovConstantsResult((), None, None, Certificate(
            INCONCLUSIVE, "matrosov-constants", None, None, None, tolerances,
            summary, {"reason": reason, **diagnostics}))

    epsilon = None if last is None else -last[0]
    if zeta_target is None and epsilon is None:
        return inconclusive(
            "no node triggers the full chain; supply zeta_target", {})
    if zeta_target is None and not epsilon > 0.0:
        return inconclusive("triggered nodes do not leave a negative gap "
                            "(is the chain certificate CERTIFIED?)",
                            {"epsilon_estimate": epsilon})
    budget = zeta = epsilon if zeta_target is None else float(zeta_target)
    for level in range(M, 1, -1):
        budget /= 2.0
        if level < M:  # the running sum holds the constants found
            _, top, worst = search(level)
        passed = top <= -budget
        if not passed.any():
            return inconclusive(
                f"doubling search exceeded the cap at level {level}",
                {"level": level, "budget": budget, "worst_point": worst[1],
                 "epsilon_estimate": epsilon, "zeta": zeta})
        constants.insert(0, float(_TRIES[np.argmax(passed)]))

    final_bound = -zeta / (2.0 ** (M - 1))
    cert = _margin_certificate(
        "matrosov-constants", _bound_verdict(rows, job, constants,
                                             final_bound), tolerances, summary,
        {"note": _GRID_NOTE + "; worst_point is (z, x), margin is "
         "Z - (-zeta / 2^(M-1))", "epsilon_estimate": epsilon,
         "final_bound": final_bound}, count="combination_violations")
    return MatrosovConstantsResult(tuple(constants), zeta, epsilon, cert)


def _bound_verdict(nodes, job, constants, final_bound: float) -> _Verdict:
    """One pass over the rows ``nodes``: ``Z - final_bound`` at each
    (:func:`_combined`), NaN and inf counted, as a _Verdict keyed by row."""
    verdict = _Verdict(0.0)

    def fold(j, rows, points, columns):
        margin = _combined(np.concatenate(columns), constants) - final_bound
        verdict.add(margin, np.ones(len(margin), bool),
                    lambda k: (rows.start + k, points[:, k], 0.0))

    reduction._stream([job], nodes, [0.0], fold)
    return verdict


def verify_combined_bound(sys: SystemDef, constants: Sequence[float],
                          zeta: float, z_nodes, x_nodes) -> Certificate:
    """Re-check ``Z = K_1 Y_1 + (K_2 Y_2 + (... + Y_M)) <= -zeta /
    2^(M-1)``, summed as :func:`matrosov_constants` sums it, at the node
    sets of :func:`matrosov_grid`, streamed: no array outlives a chunk of
    :func:`_row_chunks`, so memory does not grow with the grid.

    Confirms searched constants on a finer verification grid than the
    one that found them: ``matrosov_grid(replace(sys, grid=finer))``.
    """
    prob = _problem(sys)
    M = prob.count
    if len(constants) != M - 1:
        raise SchemaError(f"expected {M - 1} constants, got {len(constants)}")
    final_bound = -zeta / (2.0 ** (M - 1))
    return _margin_certificate(
        "matrosov-combined-bound", _bound_verdict(
            *_row_chunks(prob, z_nodes, x_nodes), constants, final_bound),
        {"zeta": zeta}, {"z_nodes": z_nodes[1], "x_nodes": x_nodes[1]},
        {"final_bound": final_bound}, count="combination_violations")


def matrosov_derivative_bounds(sys: SystemDef, x_nodes) -> Certificate:
    """Screen the per-function derivative bounds on the annulus.

    For each comparison function W_j, checks ``derivative of W_j along
    the inclusion, reduced by its own collection, <= Y_j(phi(x, t), x)``
    at the x nodes of :func:`matrosov_grid` and time nodes, all W_j in
    one pass that evaluates the inclusion once for all of them.
    Informational: the chain and constants certificates do not rely on it.
    """
    prob = _problem(sys)
    time_nodes = sys.require_grid().time_nodes
    z = {f"z{i+1}": phi for i, phi in enumerate(prob.phi)}
    jobs = [_derivative_job(sys.inclusion, w, coll, [
        (expr.substitute(y, z), sys.inclusion)], sys.n)
        for w, coll, y in zip(prob.functions, prob.collections, prob.aux)]
    verdict, per_function = _Verdict(_TOL), [0] * len(jobs)

    def fold(j, rows, x, columns):
        value, minus_inf, y = columns
        margin, counted = (value - y).ravel(), ~minus_inf.ravel()
        before = verdict.violations
        verdict.add(margin, counted,
                    _cell_witness(rows, x, x_nodes[1], time_nodes, j))
        per_function[j] += verdict.violations - before

    reduction._stream(jobs, x_nodes, time_nodes, fold)
    return _margin_certificate(
        "matrosov-derivative-bounds", verdict, {"margin_tol": _TOL},
        {"x_nodes": x_nodes[1], "time_nodes": list(time_nodes)},
        {"note": "informational screen; the chain and constants "
                 "certificates do not depend on it",
         "violations_per_function": per_function})
