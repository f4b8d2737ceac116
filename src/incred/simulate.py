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
guard crossings are budgeted, 1% by default), first-order decrease of
the candidate against a declared bound, and tail convergence of a
semidefinite observable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import expr
from .errors import SchemaError, SimulationError
from .grids import check_size
from .intervals import IntervalBox, contains
from .reduction import _reduce_base, reduce_collection
from .setmaps import SystemDef, eval_gradient, eval_map

__all__ = [
    "SelectionStrategy", "StepSample", "Trajectory", "integrate",
    "MembershipReport", "check_reduction_membership",
    "DescentReport", "check_lyapunov_descent",
    "TailReport", "check_partial_convergence",
    "write_trajectory_csv", "trajectory_csv",
]

_STRATEGY_KINDS = ("midpoint", "reduced-descent", "random-extreme")


@dataclass(frozen=True)
class SelectionStrategy:
    kind: str = "midpoint"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _STRATEGY_KINDS:
            raise SchemaError(
                f"unknown strategy {self.kind!r}; pick one of "
                f"{', '.join(_STRATEGY_KINDS)}")


@dataclass(frozen=True)
class StepSample:
    t: float
    x: tuple[float, ...]
    q: tuple[float, ...]
    v: float


@dataclass(frozen=True)
class Trajectory:
    t0: float
    h: float
    horizon: float
    strategy: SelectionStrategy
    steps: tuple[StepSample, ...]
    final_t: float
    final_x: tuple[float, ...]
    final_v: float
    exited: bool

    @property
    def final_norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.final_x))

    def states(self) -> list[tuple[float, ...]]:
        return [s.x for s in self.steps] + [self.final_x]

    def values(self) -> list[float]:
        return [s.v for s in self.steps] + [self.final_v]


def _select(strategy: SelectionStrategy, sys: SystemDef,
            fbox: IntervalBox, x: Sequence[float], t: float,
            rng: np.random.Generator | None) -> tuple[float, ...]:
    if strategy.kind == "midpoint":
        return fbox.center
    if strategy.kind == "random-extreme":
        assert rng is not None
        return tuple(ax.lo if (ax.is_degenerate or rng.integers(2) == 0)
                     else ax.hi for ax in fbox.axes)
    # reduced-descent
    reduced = _reduce_base(fbox, sys.reducers, x, t)
    base = fbox if reduced.is_empty else reduced
    grad_center = eval_gradient(sys.candidate, x, t).center
    q = []
    for p, ax in zip(grad_center, base.axes):
        if p > 0.0:
            q.append(ax.lo)
        elif p < 0.0:
            q.append(ax.hi)
        else:
            q.append(ax.center)
    return tuple(q)


def integrate(sys: SystemDef, x0: Sequence[float], t0: float, h: float,
              horizon: float, strategy: SelectionStrategy) -> Trajectory:
    """Forward-Euler selection integration from ``x0`` up to ``horizon``.

    Stops early (with the ``exited`` flag) on the first step that leaves
    the domain box. An empty inclusion value at a reached state is a
    modeling error and raises.
    """
    if h <= 0.0:
        raise SchemaError("step size h must be positive")
    if horizon <= t0:
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

    steps: list[StepSample] = []
    exited = False
    t = t0
    for k in range(n_steps):
        t = t0 + k * h
        fbox = eval_map(sys.inclusion, x, t)
        if fbox.is_empty:
            raise SimulationError(
                f"inclusion is empty at x={x}, t={t}; cannot select a "
                "velocity (modeling error)")
        q = _select(strategy, sys, fbox, x, t, rng)
        steps.append(StepSample(t, x, q, sys.candidate.value_at(x, t)))
        x = tuple(xi + h * qi for xi, qi in zip(x, q))
        t = t0 + (k + 1) * h
        if not contains(sys.domain, x):
            exited = True
            break
    return Trajectory(
        t0=t0, h=h, horizon=horizon, strategy=strategy, steps=tuple(steps),
        final_t=t, final_x=x, final_v=sys.candidate.value_at(x, t),
        exited=exited)


@dataclass(frozen=True)
class MembershipReport:
    n_steps: int
    violations: int
    fraction: float
    max_distance: float
    tol: float
    budget: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_reduction_membership(traj: Trajectory, sys: SystemDef,
                               tol: float, budget: float = 0.01,
                               ) -> MembershipReport:
    """Distance of difference quotients to the reduced inclusion.

    For each step, measures the Euclidean distance from
    ``(x_{k+1} - x_k) / h`` to the reduced box at ``(x_k, t_k)``
    (infinite when the reduction is empty) and reports the fraction of
    steps beyond ``tol``. The pass budget (default 1%) encodes that the
    reduction constrains velocities only for almost all times: isolated
    guard crossings may violate it.
    """
    states = traj.states()
    violations = 0
    max_distance = 0.0
    for k, step in enumerate(traj.steps):
        dq = tuple((nxt - cur) / traj.h
                   for nxt, cur in zip(states[k + 1], step.x))
        reduced = reduce_collection(sys.inclusion, sys.reducers, step.x,
                                    step.t)
        dist = reduced.distance_to(dq)
        if dist > tol:
            violations += 1
        if dist != math.inf:
            max_distance = max(max_distance, dist)
    n = len(traj.steps)
    fraction = violations / n if n else 0.0
    return MembershipReport(n, violations, fraction, max_distance, tol,
                            budget, fraction <= budget)


@dataclass(frozen=True)
class DescentReport:
    bound_violations: int
    monotonicity_violations: int
    max_rate_gap: float
    slack: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_lyapunov_descent(traj: Trajectory, sys: SystemDef,
                           bound: expr.ScalarExpr) -> DescentReport:
    """First-order decrease of the candidate against ``-bound``.

    Verifies ``V(x_{k+1}, t_{k+1}) - V(x_k, t_k) <= -h bound(x_k) +
    h * err`` with the first-order slack ``err = 10 h``, and global
    nonincrease of the sampled values up to the same slack.
    ``max_rate_gap`` is the worst per-step value of
    ``delta V / h + bound(x_k)``; halving h should roughly halve it on
    smooth stretches.
    """
    bound_fn = expr.compile_scalar(bound)
    values = traj.values()
    h = traj.h
    slack = 10.0 * h * h
    bound_violations = 0
    monotonicity_violations = 0
    max_rate_gap = -math.inf
    for k, step in enumerate(traj.steps):
        dv = values[k + 1] - values[k]
        w = bound_fn(sys.inclusion.env(step.x, step.t))
        if dv > -h * w + slack:
            bound_violations += 1
        if dv > slack:
            monotonicity_violations += 1
        max_rate_gap = max(max_rate_gap, dv / h + w)
    return DescentReport(
        bound_violations=bound_violations,
        monotonicity_violations=monotonicity_violations,
        max_rate_gap=max_rate_gap, slack=slack,
        passed=bound_violations == 0 and monotonicity_violations == 0)


@dataclass(frozen=True)
class TailReport:
    tail_max: float
    tail_start: int
    tail_fraction: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_partial_convergence(traj: Trajectory, sys: SystemDef,
                              observable: expr.ScalarExpr,
                              tail_fraction: float,
                              threshold: float = 1e-3) -> TailReport:
    """Max of an observable over the final stretch of the trajectory.

    A finite-horizon proxy for asymptotic decay: PASS when the maximum
    of ``observable(x_k)`` over the last ``tail_fraction`` of samples
    stays below the threshold.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise SchemaError("tail_fraction must lie strictly between 0 and 1")
    fn = expr.compile_scalar(observable)
    states = traj.states()
    times = [s.t for s in traj.steps] + [traj.final_t]
    start = len(states) - max(1, math.ceil(tail_fraction * len(states)))
    tail_max = max(fn(sys.inclusion.env(x, t))
                   for x, t in zip(states[start:], times[start:]))
    return TailReport(tail_max, start, tail_fraction, threshold,
                      tail_max < threshold)


def trajectory_csv(traj: Trajectory) -> str:
    """CSV text with header ``t,x1..xn,q1..qn,V``.

    The final state appears as a last row with empty selection cells (no
    step leaves it).
    """
    n = len(traj.final_x)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (["t"] + [f"x{i+1}" for i in range(n)]
              + [f"q{i+1}" for i in range(n)] + ["V"])
    writer.writerow(header)
    for s in traj.steps:
        writer.writerow([repr(s.t)] + [repr(v) for v in s.x]
                        + [repr(v) for v in s.q] + [repr(s.v)])
    writer.writerow([repr(traj.final_t)] + [repr(v) for v in traj.final_x]
                    + [""] * n + [repr(traj.final_v)])
    return buf.getvalue()


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(trajectory_csv(traj))
