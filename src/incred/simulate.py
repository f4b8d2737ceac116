"""Selection-based integration of trajectories of the inclusion.

A trajectory is produced by explicit first-order (Euler) stepping with a
per-step selection from the inclusion value: ``x_{k+1} = x_k + h q_k``
with ``q_k in F(x_k, t_k)`` always. No sliding-mode or event-driven
solver is attempted: in the systems of interest the guard sets are
crossed transversally, so sliding dynamics never arise and the O(h)
error is absorbed by the acceptance tolerances.

Selection strategies:

* ``midpoint`` -- the center of the inclusion box;
* ``reduced-descent`` -- a minimizer of ``p . q`` over the *reduced* box
  (falling back to the full box when the reduction is empty, since the
  reduction only constrains almost-all times), with ``p`` the center of
  the candidate's gradient;
* ``random-extreme`` -- a uniformly random vertex, reproducible from the
  strategy seed.

Post-hoc checks turn the structural guarantees into trajectory reports:
membership of difference quotients in the reduced inclusion (isolated
guard crossings are budgeted, 1% of the steps), first-order decrease of
the candidate against a declared bound, and tail convergence of a
semidefinite observable. The integrator is one loop generated per call,
with every guard chain inline, set endpoints as float locals and one env
per parameter table; a step that raises, or meets a NaN endpoint or an
empty piece, is redone by the boxed public calls. The checks run as
``reduction._stream`` jobs over its ``t, x, q, V`` rows, the rows' times
as the one time node; the scalar closures redo each row the arrays flag
before its chunk is folded. The membership check folds the reduction
table's job into two columns, each row's distance and F's largest
vertex norm; the descent and tail checks write an expression's values
into one column, chunk by chunk. A NaN never passes a check. The CSV is
written in chunks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from textwrap import indent
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import expr
from .errors import EmptySetError, SchemaError, SimulationError
from .expr import _array_max as _max
from .grids import _chunks, _rows, check_size
from .intervals import center, contains
from .reduction import (_expression_job, _reduce, _reduction_job, _reprs,
                        _stream)
from .setmaps import (_STRATEGY_KINDS, PiecewiseBoxMap, SimSpec,
                      SystemDef, _number, eval_gradient, eval_map)

__all__ = [
    "SelectionStrategy", "StepSample", "Trajectory", "integrate",
    "MembershipReport", "check_reduction_membership",
    "DescentReport", "check_lyapunov_descent",
    "TailReport", "check_partial_convergence",
    "write_trajectory_csv",
]

_BUDGET = 0.01  # the share of steps allowed outside the membership tol


@dataclass(frozen=True)
class SelectionStrategy:
    kind: str = "midpoint"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _STRATEGY_KINDS:
            raise SchemaError(
                f"unknown strategy {self.kind!r}; pick one of "
                f"{', '.join(_STRATEGY_KINDS)}")
        if self.seed < 0:
            raise SchemaError(f"strategy seed must be >= 0, got {self.seed}")


StepSample = NamedTuple("StepSample", [  # one row of Trajectory.steps
    ("t", float), ("x", tuple), ("q", tuple), ("v", float)])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """``rows`` holds one ``t, x1..xn, q1..qn, V`` row per step, as an
    ``(N, 2n + 2)`` array; the final state, which no step leaves, is in
    the ``final_*`` fields."""
    t0: float
    h: float
    horizon: float
    strategy: SelectionStrategy
    rows: np.ndarray
    final_t: float
    final_x: tuple[float, ...]
    final_v: float
    exited: bool

    @property
    def final_norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.final_x))

    @property
    def steps(self) -> tuple[StepSample, ...]:
        n = len(self.final_x)
        return tuple(StepSample(r[0], tuple(r[1:n + 1]), tuple(r[n + 1:-1]),
                                r[-1]) for r in self.rows.tolist())

    def states(self) -> np.ndarray:
        """``(N + 1, n)``: the state of every step, then the final one."""
        return np.vstack([self.rows[:, 1:len(self.final_x) + 1],
                          [self.final_x]])


def integrate(sys: SystemDef, x0: Sequence[float], t0: float, h: float,
              horizon: float, strategy: SelectionStrategy) -> Trajectory:
    """Forward-Euler selection integration from ``x0`` up to ``horizon``.

    Stops early (with the ``exited`` flag) on the first step that leaves
    the domain box. An empty inclusion value at a reached state is a
    modeling error and raises.
    """
    if not h > 0.0:
        raise SchemaError("step size h must be positive")
    for name, value in (("start time t0", t0), ("horizon T", horizon)):
        if not math.isfinite(value):
            raise SchemaError(f"{name} must be finite, got {value!r}")
    if not horizon > t0:
        raise SchemaError("horizon must exceed the start time")
    x = tuple(float(v) for v in x0)
    if len(x) != sys.n:
        raise SchemaError(f"x0 has {len(x)} coordinates, system has {sys.n}")
    if not contains(sys.domain, x):
        raise SimulationError(f"x0 {x} lies outside the domain box")

    count = (horizon - t0) / h
    check_size(count, "simulation steps (T - t0)/h")
    n_steps = int(round(count))
    if n_steps < 1:
        raise SchemaError("horizon is shorter than one step")
    rng = (np.random.default_rng(strategy.seed)
           if strategy.kind == "random-extreme" else None)
    k, x, exited, flat = _kernel(sys, strategy.kind, t0, h, n_steps, rng)(x)
    t = t0 + k * h
    return Trajectory(
        t0=t0, h=h, horizon=horizon, strategy=strategy,
        rows=np.array(flat).reshape(-1, 2 * sys.n + 2),
        final_t=t, final_x=x, final_v=sys.candidate.value_at(x, t),
        exited=exited)


def _boxed_step(sys: SystemDef, kind: str, rng, x, t) -> tuple:
    """The selection and V's value at ``(x, t)`` by ``eval_map``, ``_reduce``,
    ``eval_gradient`` and ``value_at``, raising what they raise."""
    fbox = eval_map(sys.inclusion, x, t)
    if fbox.is_empty:
        raise SimulationError(
            f"inclusion is empty at x={x}, t={t}; cannot select a "
            "velocity (modeling error)")
    if kind == "midpoint":
        q = fbox.center
    elif kind == "random-extreme":
        q = tuple(ax.lo if (ax.is_degenerate or rng.integers(2) == 0)
                  else ax.hi for ax in fbox.axes)
    else:  # the reduced set, or F where it is empty
        base = _reduce(fbox, sys.reducers, x, t)[0]
        q = tuple(ax.lo if p > 0.0 else ax.hi if p < 0.0 else ax.center
                  for p, ax in zip(eval_gradient(sys.candidate, x, t).center,
                                   (fbox if base.is_empty else base).axes))
    return q, sys.candidate.value_at(x, t)


def _kernel(sys: SystemDef, kind: str, t0: float, h: float, n_steps: int,
            rng) -> Callable:
    """``run(x)``: :func:`integrate`'s steps from ``x`` as one generated
    loop, which returns the step count, the last state, whether it left
    the domain and the rows, one after another. A step that raises, or
    meets a NaN endpoint, an inverted literal or an empty piece, is redone
    by :func:`_boxed_step`; so is every step if a map it reads takes
    another dimension or a reducer it reads is not regular."""
    F, V, axes = sys.inclusion, sys.candidate, range(1, sys.n + 1)
    reducers = sys.reducers if kind == "reduced-descent" else ()
    maps = (F, V.gradient, *(u.gradient for u in reducers))
    tables = list(dict.fromkeys(m.params for m in maps))  # one env each
    xs, qs = ("".join(f"{c}{i}, " for i in axes) for c in "xq")
    step = f"({qs}), v = _redo(({xs}), t)\n"  # the boxed calls' step

    def sets(m, name):  # m's guard chain, its sets as {name}l{i}, {name}h{i}
        return f"_e = _e{tables.index(m.params)}\n" + "".join(
            f"{'el' * (k > 0)}if {expr._guard_code(p.guard)}:\n" + indent(
                "raise _Empty\n" if p.values is None else "".join(
                    expr._set_code(s, (f"{name}l{i}", f"{name}h{i}"))
                    for i, s in enumerate(p.values, 1)), " ")
            for k, p in enumerate(m.pieces))

    if all(m.n_in == sys.n for m in maps) and all(u.regular for u in reducers):
        body = "".join(f"_e = _e{j} = {{'t': t, " + "".join(
            f"'x{i}': x{i}, " for i in axes) + "}\n" + "".join(
            f"_e[{name!r}] = {expr._scalar_code(p)}\n" for name, p in table)
            for j, table in enumerate(tables)) + sets(F, "f")
        if kind == "midpoint":
            q = [f"_center(fl{i}, fh{i})" for i in axes]
        elif kind == "random-extreme":
            # only V runs after the draws, and its error recurs in the redo
            q = [f"fl{i} if fl{i} == fh{i} or _draw(2) == 0 else fh{i}"
                 for i in axes]
        else:  # _reduce's pinch on the reducers' moving axes, then V's
            body += "".join(sets(u.gradient, f"u{r}_") for r, u in enumerate(
                reducers)) + sets(V.gradient, "v")
            moves = [" or ".join(f"u{r}_l{i} != u{r}_h{i}" for r in range(
                len(reducers))) or "False" for i in range(sys.n + 2)]
            body += f"red = not ({moves[-1]})" + "".join(
                f" and (not ({moves[i]}) or fl{i} <= 0.0 <= fh{i})"
                for i in axes) + "\n"
            q = [f"0.0 if red and ({moves[i]}) else fl{i} if (p := _center("
                 f"vl{i}, vh{i})) > 0.0 else fh{i} if p < 0.0 else "
                 f"_center(fl{i}, fh{i})" for i in axes]
        body += "".join(f"q{i} = {c}\n" for i, c in zip(axes, q)) + (
            f"_e = _e{tables.index(V.gradient.params)}\n"
            f"v = {expr._scalar_code(V.value)}\n")
        step = f"try:\n{indent(body, ' ')}except Exception:\n {step}"
    inside = " and ".join(f"{expr._scalar_code(expr.Num(ax.lo))} <= x{i} <= "
                          f"{expr._scalar_code(expr.Num(ax.hi))}"
                          for i, ax in zip(axes, sys.domain.axes))
    code = (f"def run(x):\n flat, ({xs}) = [], x\n"
            f" for k in range({n_steps}):\n"
            f"  t = _t0 + k * _h\n{indent(step, '  ')}"
            f"  flat += (t, {xs}{qs}v)\n"
            + "".join(f"  x{i} = x{i} + _h * q{i}\n" for i in axes)
            + f"  if not ({inside}):\n   return k + 1, ({xs}), True, flat\n"
            f" return {n_steps}, ({xs}), False, flat\n")
    namespace = dict(expr._COMPILE_NS, _center=center, _Empty=EmptySetError,
                     _t0=t0, _h=h, _draw=rng and rng.integers,
                     _redo=lambda x, t: _boxed_step(sys, kind, rng, x, t))
    exec(code, namespace)
    return namespace["run"]


class _Report:
    def to_dict(self) -> dict:  # nonfinite only when it is nonzero
        return {k: v for k, v in asdict(self).items() if k != "nonfinite" or v}


@dataclass(frozen=True)
class MembershipReport(_Report):
    n_steps: int
    violations: int
    fraction: float
    max_distance: float
    tol: float
    budget: float
    passed: bool
    nonfinite: int = 0


@np.errstate(all="ignore")  # NaN and inf are counted, not warned
def check_reduction_membership(traj: Trajectory, sys: SystemDef,
                               tol: float | None = None) -> MembershipReport:
    """Distance of difference quotients to the reduced inclusion.

    For each step, measures the Euclidean distance from
    ``(x_{k+1} - x_k) / h`` to the reduced box at ``(x_k, t_k)``
    (infinite when the reduction is empty, and NaN counted in
    ``nonfinite``) and reports the fraction of steps not within ``tol``,
    by default 1% of F's largest vertex norm (at least 0.01). The pass
    budget of 1% of the steps encodes that the reduction constrains
    velocities only for almost all times: isolated guard crossings may
    violate it.
    """
    tol = tol if tol is None else _number(tol, "tol")
    x = traj.states()
    quotient = (x[1:] - x[:-1]) / traj.h
    dist, scale = np.empty(len(quotient)), np.empty(len(quotient))

    def fold(j, rows, pts, columns):  # each chunk's rows of the two columns
        f_lo, f_hi, _, red_lo, red_hi, empty, _ = (c[..., 0, :]
                                                   for c in columns)
        # F's largest vertex norm, axis by axis
        scale[rows] = np.sqrt(sum(_max(lo * lo, hi * hi)
                                  for lo, hi in zip(f_lo, f_hi)))
        acc = 0.0  # the distance to the reduced box, axis by axis
        for lo, hi, v in zip(red_lo, red_hi, quotient[rows].T):
            gap = _max(_max(lo - v, v - hi), 0.0)
            acc = acc + gap * gap
        dist[rows] = np.where(empty, np.inf, np.sqrt(acc))

    _stream([_reduction_job(sys.inclusion, sys.reducers, x.shape[1])],
            _rows(x[:-1]), (traj.rows[:, 0],), fold)
    if tol is None:
        tol = 1e-2 * max(1.0, float(np.max(scale, initial=0.0)))
    violations = int(np.count_nonzero(~(dist <= tol)))
    fraction = violations / len(dist) if len(dist) else 0.0
    return MembershipReport(
        len(dist), violations, fraction, _first_max(dist[dist != np.inf], 0.0),
        tol, _BUDGET, fraction <= _BUDGET, int(np.isnan(dist).sum()))


@dataclass(frozen=True)
class DescentReport(_Report):
    bound_violations: int
    monotonicity_violations: int
    max_rate_gap: float
    slack: float
    passed: bool
    nonfinite: int = 0


@np.errstate(all="ignore")  # NaN and inf are counted, not warned
def check_lyapunov_descent(traj: Trajectory, sys: SystemDef,
                           bound: expr.ScalarExpr) -> DescentReport:
    """First-order decrease of the candidate against ``-bound``.

    Verifies ``V(x_{k+1}, t_{k+1}) - V(x_k, t_k) <= -h bound(x_k) +
    h * err`` with the first-order slack ``err = 10 h``, and global
    nonincrease of the sampled values up to the same slack.
    ``max_rate_gap`` is the worst per-step value of
    ``delta V / h + bound(x_k)``; halving h should roughly halve it on
    smooth stretches. A step with a non-finite bound or V is ``nonfinite``
    and violates the bound.
    """
    v = np.append(traj.rows[:, -1], traj.final_v)
    h, dv, slack = traj.h, v[1:] - v[:-1], 10.0 * traj.h * traj.h
    w = _column(bound, sys.inclusion, traj.states()[:-1], traj.rows[:, 0])
    nonfinite = ~(np.isfinite(w) & np.isfinite(v[1:]) & np.isfinite(v[:-1]))
    bound_bad = int((~(dv <= -h * w + slack) | nonfinite).sum())
    mono_bad = int((~(dv <= slack)).sum())
    gap = _first_max(dv / h + w, -math.inf)
    return DescentReport(bound_bad, mono_bad, gap, slack,
                         bound_bad == mono_bad == 0, int(nonfinite.sum()))


@dataclass(frozen=True)
class TailReport(_Report):
    tail_max: float
    tail_start: int
    tail_fraction: float
    threshold: float
    passed: bool
    nonfinite: int = 0


def check_partial_convergence(traj: Trajectory, sys: SystemDef,
                              observable: expr.ScalarExpr,
                              tail_fraction: float,
                              threshold: float = SimSpec.tail_threshold,
                              ) -> TailReport:
    """Max of an observable over the final stretch of the trajectory.

    A finite-horizon proxy for asymptotic decay: PASS when the maximum
    of ``observable(x_k)`` over the last ``tail_fraction`` of samples
    stays below the threshold and none is NaN or infinite (``nonfinite``).
    """
    SimSpec(tail_fraction=tail_fraction)  # raises on a value out of range
    x = traj.states()
    start = len(x) - max(1, math.ceil(tail_fraction * len(x)))
    tail = _column(observable, sys.inclusion, x[start:],
                   np.append(traj.rows[:, 0], traj.final_t)[start:])
    tail_max, nonfinite = _first_max(tail, -math.inf), (~np.isfinite(tail))
    return TailReport(tail_max, start, tail_fraction, threshold,
                      tail_max < threshold and not nonfinite.any(),
                      int(nonfinite.sum()))


def _column(node: expr.ScalarExpr, m: PiecewiseBoxMap, x, t) -> np.ndarray:
    """``node`` in ``m``'s environment at the rows ``(x[r], t[r])``, each
    chunk's values written into the column as it is folded."""
    out = np.empty(len(x))

    def fold(j, rows, pts, columns):
        out[rows] = columns[0][0]

    _stream([_expression_job([(node, m)])], _rows(x), [t], fold)
    return out


def _first_max(values: np.ndarray, start: float) -> float:
    """``max(start, *values)``: the first of equal maxima, never a NaN."""
    top = values[values > start]
    return float(top[(top == top.max()).argmax()]) if top.size else start


def _csv_chunks(traj: Trajectory) -> Iterator[str]:
    """CSV text with header ``t,x1..xn,q1..qn,V`` in pieces of ``_CHUNK``
    rows. The final state appears as a last row with empty selection cells
    (no step leaves it)."""
    n = len(traj.final_x)
    yield ",".join(["t"] + [f"x{i+1}" for i in range(n)]
                   + [f"q{i+1}" for i in range(n)] + ["V"]) + "\n"
    for rows in _chunks(len(traj.rows)):
        # one expression, so no chunk's reprs outlive it
        yield "\n".join(map(",".join, zip(*np.take(
            *_reprs(traj.rows[rows].T)).tolist()))) + "\n"
    yield ",".join([repr(traj.final_t), *map(repr, traj.final_x),
                    *[""] * n, repr(traj.final_v)]) + "\n"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_csv_chunks(traj))
