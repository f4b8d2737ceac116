"""Set-valued derivative evaluation over box-valued data.

Three notions of the derivative of a locally Lipschitz candidate
function along a box-valued inclusion are computed in closed form:

* :func:`generalized_derivative` -- min over gradient elements ``p`` of
  the max over reduced directions ``q`` of ``p . [q; 1]`` (max-max when
  the candidate is not regular), or None for minus infinity when the
  reduced set is empty;
* the classical "common value" derivative of a regular candidate: the
  max of the values attained simultaneously by every gradient element,
  which is :func:`generalized_derivative` with the candidate as the only
  reducer (the ``deriv`` table's middle column);
* :func:`baseline_interval_derivative` -- the classical intersection
  derivative ``∩_p p . (F x {1})``, an interval, or None when empty.

:func:`_derivative_job` gives the generalized derivative and any extras
at every (time node, node) pair of a node set, the job of the
certificate scans, and :func:`_table_job` all three at every node, the
``deriv`` table: jobs of ``reduction._stream``, whose array forms here
share the pointwise code's operation order and tie rule, and whose
flagged cells the pointwise functions refill chunk by chunk.

Because gradients and inclusion values are boxes, both bilinear
optimizations decompose per axis: the max over a rectangle of ``p q`` is
attained at one of its four corners, and the min over an interval of the
convex piecewise-linear ``p -> max(p qlo, p qhi)`` is attained at an
endpoint or at the breakpoint 0. No LP solver and no tolerance are
involved.

Minus infinity is a None return, never a floating-point ``-inf``, so
report serialization stays unambiguous; it compares below every real
bound in certification.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import reduction
from .expr import _array_max as _max, _array_min as _min
from .errors import (DimensionMismatchError, DslEvalError, EmptySetError,
                     SchemaError)
from .intervals import Interval, IntervalBox
from .reduction import _gradient_arrays, _reduce_arrays, reduce_collection
from .setmaps import PiecewiseBoxMap, RegularFunctionSpec, eval_gradient, eval_map

__all__ = ["bilinear_maxmax", "bilinear_minmax", "generalized_derivative",
           "baseline_interval_derivative"]


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
                           x: Sequence[float], t: float) -> float | None:
    """Derivative of the candidate along the reduced inclusion.

    Empty reduced set => None (minus infinity). Otherwise min-max over
    (gradient, reduced directions) when the candidate is regular,
    max-max when it is not.
    """
    reduced = reduce_collection(inclusion, reducers, x, t)
    if reduced.is_empty:
        return None
    grad = eval_gradient(candidate, x, t)
    optimum = bilinear_minmax if candidate.regular else bilinear_maxmax
    try:
        return optimum(grad, reduced)
    except DslEvalError:
        raise DslEvalError(f"{candidate.name}: the generalized derivative "
                           f"is NaN at x={tuple(x)}, t={t}") from None


def baseline_interval_derivative(candidate: RegularFunctionSpec,
                                 inclusion: PiecewiseBoxMap,
                                 x: Sequence[float], t: float,
                                 ) -> Interval | None:
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
        return None
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
    return None if sup_lo > inf_hi else Interval(sup_lo, inf_hi)


def _derivative_job(inclusion, candidate, reducers, extras, width: int):
    """The ``reduction._stream`` job of :func:`generalized_derivative` (the
    value, 0.0 at minus infinity, and the minus-infinity flags), then the
    extras' ``reduction._expression_job``, on nodes of ``width`` axes."""
    n = inclusion.n_out
    fits = (candidate.n == n and all(f.n == n and f.regular for f in reducers)
            and all(m.n_in == width for m in (
                inclusion, candidate.gradient, *(u.gradient for u in reducers),
                *(m for _, m in extras))))
    zero, extra_arrays, extra_pointwise = reduction._expression_job(extras)

    def arrays(at):
        value, minus_inf, bad = _derivative_arrays(candidate, inclusion,
                                                   reducers, at)
        values, bad = extra_arrays(at, bad)
        return (value, minus_inf, *values), bad

    def pointwise(x, t):
        d = generalized_derivative(candidate, inclusion, reducers, x, t)
        return (*_cells(d), *extra_pointwise(x, t))

    return (0.0, False) + zero, fits and arrays, pointwise


def _cells(d: float | None) -> tuple[float, bool]:
    return (0.0, True) if d is None else (d, False)


def _table_job(candidate: RegularFunctionSpec, inclusion: PiecewiseBoxMap,
               reducers: Sequence[RegularFunctionSpec], width: int):
    """The ``reduction._stream`` job of the ``deriv`` table on nodes of
    ``width`` axes: the generalized and the common-value max derivatives
    (values and minus-infinity flags), then the intersection derivative's
    ends and empty flags. The reference computes the three in this order
    per node, so the first error is that of a loop over the nodes. The
    common-value derivative is :func:`generalized_derivative` with the
    candidate as the only reducer, for a regular candidate only."""
    (_, gen, _), (_, top, _) = (
        _derivative_job(inclusion, candidate, us, (), width)
        for us in (reducers, (candidate,)))

    def arrays(at):
        (value, minus_inf), bad = gen(at)
        (top_value, top_inf), top_bad = top(at)
        *ends, ends_bad = _interval_derivative_arrays(candidate, inclusion,
                                                      at)
        return (value, minus_inf, top_value, top_inf, *ends), \
            bad | top_bad | ends_bad

    def pointwise(x, t):
        d = generalized_derivative(candidate, inclusion, reducers, x, t)
        if not candidate.regular:
            raise SchemaError(
                f"{candidate.name}: the common-value derivative requires a "
                "regular candidate")
        d_max = generalized_derivative(candidate, inclusion, (candidate,),
                                       x, t)
        ends = baseline_interval_derivative(candidate, inclusion, x, t)
        return (*_cells(d), *_cells(d_max), *((0.0, 0.0, True) if ends is None
                                              else (ends.lo, ends.hi, False)))

    return (0.0, False, 0.0, False, 0.0, 0.0, False), \
        gen and top and arrays, pointwise


def _derivative_arrays(candidate, inclusion, reducers, value):
    """Array form of generalized_derivative on ``value(m)``, each map's
    value arrays: the reduction kernel, then the bilinear optimization;
    a non-finite value is a bad row."""
    lo, hi, minus_inf, bad = value(inclusion)
    lo, hi, minus_inf, _, bad = _reduce_arrays(lo, hi, minus_inf, bad,
                                               reducers, value)
    p_lo, p_hi, p_bad = _gradient_arrays(candidate, value)
    total = _optima(lo, hi, p_lo, p_hi, _max, _min, True) + p_lo[-1] \
        if candidate.regular else \
        _optima(lo, hi, p_lo, p_hi, _max, _max, False) + p_hi[-1]
    bad = bad | p_bad | ~(np.isfinite(total) | minus_inf)
    return np.where(minus_inf, 0.0, total), minus_inf, bad


def _interval_derivative_arrays(candidate, inclusion, value):
    """Array form of baseline_interval_derivative: the intersection's
    ends and empty rows; a non-finite end is a bad row."""
    lo, hi, empty, bad = value(inclusion)
    p_lo, p_hi, p_bad = _gradient_arrays(candidate, value)
    inf_hi = _optima(lo, hi, p_lo, p_hi, _max, _min, True) + p_lo[-1]
    sup_lo = _optima(lo, hi, p_lo, p_hi, _min, _max, True) + p_hi[-1]
    bad = bad | p_bad | ~(empty | np.isfinite(sup_lo) & np.isfinite(inf_hi))
    return sup_lo, inf_hi, empty | (sup_lo > inf_hi), bad


def _optima(lo, hi, p_lo, p_hi, inner, outer, breakpoint: bool):
    """Sum over the state axes of ``outer`` over c in p's endpoints (and 0
    where ``breakpoint`` and p straddles 0) of ``inner(c*lo, c*hi)``: the
    bilinear optima of ``_products``, in the pointwise order and with
    Python's max/min tie rule (no product is NaN where ends are finite)."""
    total = 0.0
    for i in range(len(lo)):
        term = outer(*(inner(c * lo[i], c * hi[i]) for c in (p_lo[i], p_hi[i])))
        if breakpoint:
            term = np.where((p_lo[i] < 0.0) & (0.0 < p_hi[i]), outer(
                term, inner(0.0 * lo[i], 0.0 * hi[i])), term)
        total = total + term
    return total
