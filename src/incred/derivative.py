"""Set-valued derivative evaluation over box-valued data.

Three notions of the derivative of a locally Lipschitz candidate
function along a box-valued inclusion are computed in closed form:

* :func:`generalized_derivative` -- min over gradient elements ``p`` of
  the max over reduced directions ``q`` of ``p . [q; 1]`` (max-max when
  the candidate is not regular), with a distinguished minus-infinity
  marker when the reduced set is empty;
* :func:`baseline_max_derivative` -- the classical "common value"
  derivative: the max of the values attained simultaneously by every
  gradient element, which is the generalized derivative reduced by the
  candidate alone;
* :func:`baseline_interval_derivative` -- the classical intersection
  derivative ``∩_p p . (F x {1})``, an interval, or None when empty.

:func:`scan_derivative` gives the generalized derivative and any extras at
every (time node, node) pair of a grid as arrays, flagged cells pointwise.

Because gradients and inclusion values are boxes, both bilinear
optimizations decompose per axis: the max over a rectangle of ``p q`` is
attained at one of its four corners, and the min over an interval of the
convex piecewise-linear ``p -> max(p qlo, p qhi)`` is attained at an
endpoint or at the breakpoint 0. No LP solver and no tolerance are
involved.

The minus-infinity marker is ``value is None`` on the returned
:class:`DerivativeValue`, never a floating-point ``-inf``, so report
serialization stays unambiguous; it compares below every real bound in
certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from . import expr
from .expr import _array_max as _max, _array_min as _min
from .errors import (DimensionMismatchError, DslEvalError, EmptySetError,
                     SchemaError)
from .intervals import Interval, IntervalBox
from .reduction import (_fill, _gradient_arrays, _node_array,
                        _reduce_arrays, reduce_collection)
from .setmaps import PiecewiseBoxMap, RegularFunctionSpec, eval_gradient, eval_map

__all__ = [
    "DerivativeValue", "bilinear_maxmax", "bilinear_minmax",
    "generalized_derivative", "baseline_max_derivative",
    "baseline_interval_derivative",
    "DerivativeScan", "scan_derivative",
]

@dataclass(frozen=True)
class DerivativeValue:
    """One evaluated derivative.

    ``kind`` is ``"generalized"``, ``"baseline-max"`` or
    ``"baseline-interval"``. For the scalar kinds ``value`` is a float,
    or None as the minus-infinity marker (empty reduced set, flagged by
    ``empty_reduction``). For the interval kind ``value`` is an
    :class:`Interval`, or None when the intersection is empty.
    """
    kind: str
    value: Union[float, Interval, None]
    empty_reduction: bool = False

    @property
    def is_minus_inf(self) -> bool:
        return self.value is None

    def upper(self) -> float | None:
        """Largest value, or None when the set is empty / minus infinity."""
        if isinstance(self.value, Interval):
            return self.value.hi
        return self.value

    def leq(self, bound: float, tol: float = 0.0) -> bool:
        """Does the derivative certify ``<= bound`` (within ``tol``)?"""
        up = self.upper()
        return True if up is None else up <= bound + tol


def _check_pq(p: IntervalBox, q: IntervalBox) -> None:
    if p.dims != q.dims + 1:
        raise DimensionMismatchError(
            f"gradient box has {p.dims} axes, directions have {q.dims}; "
            "expected one extra time axis")
    if p.is_empty or q.is_empty:
        raise EmptySetError("bilinear optimization needs non-empty boxes")


def _products(pi: Interval, qi: Interval,
              breakpoint: bool) -> list[tuple[float, float]]:
    """``(c * qi.lo, c * qi.hi)`` for each endpoint c of ``pi``, and c = 0
    if ``breakpoint`` and ``pi`` straddles 0. A NaN product (0 * inf)
    raises DslEvalError, as min and max drop a NaN unless it comes first."""
    cs = [pi.lo, pi.hi]
    if breakpoint and pi.lo < 0.0 < pi.hi:
        cs.append(0.0)
    products = [(c * qi.lo, c * qi.hi) for c in cs]
    if any(math.isnan(v) for pair in products for v in pair):
        raise DslEvalError("a bilinear endpoint product is NaN (0 * inf)")
    return products


def _not_nan(total: float) -> float:
    if math.isnan(total):
        raise DslEvalError("a bilinear optimum is NaN (inf - inf)")
    return total


def bilinear_maxmax(p: IntervalBox, q: IntervalBox) -> float:
    """max over ``(p, q)`` in P x Q of ``p . [q; 1]``.

    P lives in ``R^{n+1}`` (time axis last), Q in ``R^n``. Separable per
    axis: each term is the max of the four endpoint products, and the
    time axis contributes its upper endpoint. A NaN product or sum raises
    DslEvalError.
    """
    _check_pq(p, q)
    total = 0.0
    for pi, qi in zip(p.axes, q.axes):
        total += max(v for pair in _products(pi, qi, False) for v in pair)
    return _not_nan(total + p.axes[-1].hi)


def bilinear_minmax(p: IntervalBox, q: IntervalBox) -> float:
    """min over ``p`` of max over ``q`` of ``p . [q; 1]``.

    For fixed ``p`` the inner max is ``sum_i max(p_i qlo_i, p_i qhi_i) +
    p_time``; each summand is convex piecewise-linear in ``p_i`` with its
    breakpoint at 0, so the outer min evaluates the endpoints of ``P_i``
    plus 0 when P_i straddles it. The time axis contributes its lower
    endpoint. A NaN product or sum raises DslEvalError.
    """
    _check_pq(p, q)
    total = 0.0
    for pi, qi in zip(p.axes, q.axes):
        total += min(map(max, _products(pi, qi, True)))
    return _not_nan(total + p.axes[-1].lo)


def generalized_derivative(candidate: RegularFunctionSpec,
                           inclusion: PiecewiseBoxMap,
                           reducers: Sequence[RegularFunctionSpec],
                           x: Sequence[float], t: float) -> DerivativeValue:
    """Derivative of the candidate along the reduced inclusion.

    Empty reduced set => minus-infinity marker. Otherwise min-max over
    (gradient, reduced directions) when the candidate is regular,
    max-max when it is not.
    """
    reduced = reduce_collection(inclusion, reducers, x, t)
    if reduced.is_empty:
        return DerivativeValue("generalized", None, empty_reduction=True)
    grad = eval_gradient(candidate, x, t)
    optimum = bilinear_minmax if candidate.regular else bilinear_maxmax
    try:
        value = optimum(grad, reduced)
    except DslEvalError:
        raise DslEvalError(f"{candidate.name}: the generalized derivative "
                           f"is NaN at x={tuple(x)}, t={t}") from None
    return DerivativeValue("generalized", value)


def baseline_max_derivative(candidate: RegularFunctionSpec,
                            inclusion: PiecewiseBoxMap,
                            x: Sequence[float], t: float) -> DerivativeValue:
    """Max of the common-value derivative set of a regular candidate.

    The feasible directions are those of the candidate's own reduction;
    on them ``p . [q; 1]`` does not depend on ``p``, so the max equals
    :func:`generalized_derivative` with the candidate as the only
    reducer, which is what is computed. Empty reduction => minus-infinity
    marker.
    """
    if not candidate.regular:
        raise SchemaError(
            f"{candidate.name}: the common-value derivative requires a "
            "regular candidate")
    d = generalized_derivative(candidate, inclusion, (candidate,), x, t)
    return replace(d, kind="baseline-max")


def baseline_interval_derivative(candidate: RegularFunctionSpec,
                                 inclusion: PiecewiseBoxMap,
                                 x: Sequence[float], t: float,
                                 ) -> DerivativeValue:
    """Intersection derivative over the *unreduced* inclusion.

    For each gradient element ``p``, ``p . (F x {1})`` is the interval
    ``[m(p), M(p)]`` with ``m, M`` the axiswise min/max products plus the
    time component; the intersection over the gradient box is
    ``[sup_p m(p), inf_p M(p)]``, each optimum separable per axis with
    endpoint-or-zero candidates, and ``inf_p M(p)`` is
    :func:`bilinear_minmax`. Empty when the sup exceeds the inf.
    """
    grad = eval_gradient(candidate, x, t)
    base = eval_map(inclusion, x, t)
    if base.is_empty:
        return DerivativeValue("baseline-interval", None)
    sup_lo = 0.0
    try:
        inf_hi = bilinear_minmax(grad, base)
        for pi, qi in zip(grad.axes, base.axes):
            sup_lo += max(map(min, _products(pi, qi, True)))
        sup_lo = _not_nan(sup_lo + grad.axes[-1].hi)
    except DslEvalError:
        raise DslEvalError(
            f"{candidate.name}: the baseline interval derivative is NaN "
            f"at x={tuple(x)}, t={t}") from None
    value = None if sup_lo > inf_hi else Interval(sup_lo, inf_hi)
    return DerivativeValue("baseline-interval", value)


@dataclass(frozen=True)
class DerivativeScan:
    """Per-pair columns of one scan, each of shape (time nodes, nodes).

    ``value`` is the generalized derivative, 0.0 where ``minus_inf``
    flags the minus-infinity marker; ``extras[k]`` is the k-th extra
    expression evaluated in its map's environment at every pair.
    """
    value: np.ndarray
    minus_inf: np.ndarray
    extras: tuple[np.ndarray, ...]


def scan_derivative(candidate: RegularFunctionSpec,
                    inclusion: PiecewiseBoxMap,
                    reducers: Sequence[RegularFunctionSpec],
                    nodes, time_nodes: Sequence[float],
                    extras: Sequence[tuple[expr.ScalarExpr,
                                           PiecewiseBoxMap]] = (),
                    ) -> DerivativeScan:
    """:func:`generalized_derivative` at every (t, x) pair, plus extras.

    ``nodes`` is an ``(N, n)`` array-like of points; ``extras`` pairs a
    scalar expression with the map whose environment (parameters) it
    reads. The one-job call of :func:`_scan`, which evaluates the pairs.
    """
    return _scan(inclusion, [(candidate, reducers, extras)], nodes,
                 time_nodes)[0]


def _scan(inclusion: PiecewiseBoxMap, jobs, nodes,
          time_nodes: Sequence[float]) -> list[DerivativeScan]:
    """:func:`scan_derivative` of each ``(candidate, reducers, extras)``
    job along one inclusion, in one pass over chunks of
    ``reduction._CHUNK`` nodes, time nodes inner. Per chunk, what reads
    neither t nor a parameter runs once (see
    :meth:`PiecewiseBoxMap.chunk_arrays`); per time node, the rest, each
    map once for all the jobs. The pointwise reference then refills the
    flagged cells (``reduction._fill``) job, time node, then node first,
    raising the errors the pointwise API raises; a parameter without a
    value at a time node raises at the first cell of that node.
    """
    pts = _node_array(nodes, inclusion.n_in)
    n, axes = inclusion.n_out, np.ascontiguousarray(pts.T)
    shape = (len(jobs), len(time_nodes), len(pts))
    value, minus_inf = np.zeros(shape), np.zeros(shape, dtype=bool)
    cols = [np.zeros((len(extras),) + shape[1:]) for *_, extras in jobs]
    ready = [candidate.n == n and all(f.n == n and f.regular for f in us)
             and all(m.n_in == pts.shape[-1] for m in (
                 inclusion, candidate.gradient, *(u.gradient for u in us),
                 *(m for _, m in extras)))
             for candidate, us, extras in jobs]  # else pointwise
    x_names = [f"x{i+1}" for i in range(pts.shape[-1])]
    array_fns = [[(expr.compile_scalar_array(e), m,
                   expr.free_vars(e) <= set(x_names)) for e, m in extras]
                 for *_, extras in jobs]
    scalar_fns = [[] for _ in jobs]  # compiled on the first pointwise cell
    errors = {}  # (job, time node): the error its array pass raised

    def arrays(rows):
        batch = axes[:, rows]
        x_env, chunk = dict(zip(x_names, batch)), {}
        fixed = [[fn(x_env) if state_only else None
                  for fn, _, state_only in fns] for fns in array_fns]
        flags = np.ones(shape[:2] + (batch.shape[1],), dtype=bool)
        for a, t in enumerate(time_nodes):
            now = {}

            def at(m):  # m's value on the chunk at t, once for every job
                if id(m) not in now:
                    if id(m) not in chunk:
                        chunk[id(m)] = m.chunk_arrays(batch)
                    now[id(m)] = chunk[id(m)](m.env((), t), False)
                return now[id(m)]

            for j, (candidate, reducers, _) in enumerate(jobs):
                if not ready[j]:
                    continue
                try:  # raises the first parameter error, in map order
                    value[j, a, rows], minus_inf[j, a, rows], bad = \
                        _derivative_arrays(candidate, inclusion, reducers, at)
                    for k, (fn, m, state_only) in enumerate(array_fns[j]):
                        cols[j][k, a, rows] = fixed[j][k] if state_only \
                            else fn({**m.env((), t), **x_env})
                except DslEvalError as e:  # flags[j, a] stays set
                    errors[j, a] = e
                    continue
                flags[j, a] = bad | ~np.isfinite(cols[j][:, a, rows]).all(
                    axis=0)
        return flags

    def pointwise(j, a, b):
        if (j, a) in errors:
            raise errors[j, a]
        candidate, reducers, extras = jobs[j]
        if not scalar_fns[j]:
            scalar_fns[j].extend((expr.compile_scalar(e), m)
                                 for e, m in extras)
        x, t = pts[b].tolist(), time_nodes[a]
        d = generalized_derivative(candidate, inclusion, reducers, x, t)
        minus_inf[j, a, b] = d.is_minus_inf
        value[j, a, b] = 0.0 if d.is_minus_inf else d.value
        for k, (fn, m) in enumerate(scalar_fns[j]):
            cols[j][k, a, b] = fn(m.env(x, t))

    _fill(shape, arrays, pointwise)
    return [DerivativeScan(v, d, tuple(c))
            for v, d, c in zip(value, minus_inf, cols)]


def _derivative_arrays(candidate, inclusion, reducers, value):
    """Array form of generalized_derivative on ``value(m)``, each map's
    value arrays: the reduction kernel, then the bilinear optimization
    with the pointwise code's operation order and Python's max/min tie
    rule; a non-finite value is a bad row."""
    lo, hi, minus_inf, bad = value(inclusion)
    lo, hi, minus_inf, _, bad = _reduce_arrays(lo, hi, minus_inf, bad,
                                               reducers, value)
    p_lo, p_hi, p_bad = _gradient_arrays(candidate, value)
    total = 0.0
    for i in range(len(lo)):
        if candidate.regular:
            best = [_max(c * lo[i], c * hi[i])
                    for c in (p_lo[i], p_hi[i], 0.0)]
            term = _min(best[0], best[1])
            straddles = (p_lo[i] < 0.0) & (0.0 < p_hi[i])
            term = np.where(straddles & (best[2] < term), best[2], term)
        else:
            term = p_lo[i] * lo[i]
            for v in (p_lo[i] * hi[i], p_hi[i] * lo[i], p_hi[i] * hi[i]):
                term = _max(term, v)
        total = total + term
    total = total + (p_lo[-1] if candidate.regular else p_hi[-1])
    bad = bad | p_bad | ~(np.isfinite(total) | minus_inf)
    return np.where(minus_inf, 0.0, total), minus_inf, bad
