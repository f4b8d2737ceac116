import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incred.derivative import (baseline_interval_derivative, bilinear_maxmax,
                               bilinear_minmax, generalized_derivative)
from incred.errors import (DimensionMismatchError, DslEvalError,
                           EmptySetError, SchemaError)
from incred.intervals import Interval, IntervalBox
from incred.reduction import reduce_collection
from incred.setmaps import eval_gradient

from test_reduction import box, constant_map, constant_spec


def common_value_max(candidate, inclusion, x, t):
    """The max of the common-value derivative set, from its definition:
    the directions q of F(x, t) on which ``p . [q; 1]`` takes one value
    for every gradient element p (the candidate's own reduction), and
    that value's max, read at p's lower corner. No such q is minus
    infinity (None)."""
    if not candidate.regular:
        raise SchemaError(f"{candidate.name}: the common-value derivative "
                          "requires a regular candidate")
    q = reduce_collection(inclusion, (candidate,), x, t)
    if q.is_empty:
        return None
    p = eval_gradient(candidate, x, t)
    total = 0.0
    for pi, qi in zip(p.axes, q.axes):
        total += max(pi.lo * qi.lo, pi.lo * qi.hi)
    return total + p.axes[-1].lo


def brute_maxmax(p, q, grid=201):
    """Per-axis dense sampling, endpoints and 0 included."""
    total = 0.0
    for pi, qi in zip(p.axes, q.axes):
        ps = _axis_grid(pi, grid)
        qs = _axis_grid(qi, grid)
        total += float(np.max(np.outer(ps, qs)))
    total += max(_axis_grid(p.axes[-1], grid))
    return total


def brute_minmax(p, q, grid=201):
    total = 0.0
    for pi, qi in zip(p.axes, q.axes):
        ps = _axis_grid(pi, grid)
        qs = _axis_grid(qi, grid)
        total += float(np.min(np.max(np.outer(ps, qs), axis=1)))
    total += min(_axis_grid(p.axes[-1], grid))
    return total


def _axis_grid(iv, grid):
    vals = set(np.linspace(iv.lo, iv.hi, grid).tolist())
    if iv.lo <= 0.0 <= iv.hi:
        vals.add(0.0)
    return np.array(sorted(vals))


def _random_box(rng, dims, span=3.0):
    axes = []
    for _ in range(dims):
        lo = float(rng.uniform(-span, span))
        width = float(rng.choice([0.0, rng.uniform(0.0, span)]))
        axes.append((lo, lo + width))
    return box(*axes)


class TestBilinearOptimizers:
    def test_maxmax_symmetric_gradient(self):
        # p in [-1,1], time {0}; q in [2,3]: the largest product is 3
        assert bilinear_maxmax(box((-1, 1), (0, 0)), box((2, 3))) == 3.0

    def test_maxmax_singletons(self):
        p = box((0.5, 0.5), (-2, -2), (0.25, 0.25))
        q = box((3, 3), (1, 1))
        assert bilinear_maxmax(p, q) == 0.5 * 3 + (-2) * 1 + 0.25

    def test_maxmax_endpoint_products(self):
        p = box((1, 1), (1, 1), (0, 0))
        q = box((-4, 0), (-1, 1))
        assert bilinear_maxmax(p, q) == 1.0  # 0 + 1 + 0

    def test_minmax_interior_minimizer(self):
        # min over p in [-1,1] of max(2p, 3p): the max is 2p for p < 0,
        # so the minimum sits at p = -1 with value -2 (brute force agrees)
        p = box((-1, 1), (0, 0))
        q = box((2, 3))
        value = bilinear_minmax(p, q)
        assert value == -2.0
        assert abs(value - brute_minmax(p, q)) <= 1e-6

    def test_minmax_singleton_zero(self):
        p = box((0, 0), (0, 0), (0.5, 0.5))
        q = box((0, 0), (0, 0))
        assert bilinear_minmax(p, q) == 0.5

    def test_minmax_matches_quadratic_identity(self, example2):
        # interior point of the worked planar system: exact equality with
        # the closed-form value -x1^2 - x2^2
        p = box((0.5, 0.5), (0.5, 0.5), (0, 0))
        q = box((0, 0), (-1, -1))
        assert bilinear_minmax(p, q) == -0.5

    def test_empty_and_mismatch_errors(self):
        with pytest.raises(EmptySetError):
            bilinear_maxmax(IntervalBox.empty(2), box((0, 1)))
        with pytest.raises(DimensionMismatchError):
            bilinear_minmax(box((0, 1)), box((0, 1)))

    @pytest.mark.parametrize("optimizer, p1", [
        (bilinear_minmax, (-1, 1)), (bilinear_minmax, (0, 1)),
        (bilinear_maxmax, (0, 1))], ids=["minmax-straddling", "minmax",
                                         "maxmax"])
    def test_nan_endpoint_product_is_an_eval_error(self, optimizer, p1):
        # 0 * -inf is NaN; min and max drop it unless it comes first, so
        # minmax would give 1.0 on P1 = [-1, 1], where the value is 0
        with pytest.raises(DslEvalError, match="endpoint product is NaN"):
            optimizer(box(p1, (0, 0)), box((-math.inf, 1)))

    def test_oracle_agreement_on_random_boxes(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            p = _random_box(rng, n + 1)
            q = _random_box(rng, n)
            assert abs(bilinear_maxmax(p, q) - brute_maxmax(p, q)) <= 1e-6
            assert abs(bilinear_minmax(p, q) - brute_minmax(p, q)) <= 1e-6

    def test_minmax_joint_enumeration_one_dimensional(self):
        # non-separable oracle: enumerate the full (p1, pt) grid jointly
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = _random_box(rng, 2)
            q = _random_box(rng, 1)
            p1 = _axis_grid(p.axes[0], 201)
            pt = _axis_grid(p.axes[1], 201)
            qs = _axis_grid(q.axes[0], 201)
            inner = np.max(np.outer(p1, qs), axis=1)  # max over q per p1
            joint = inner[:, None] + pt[None, :]
            assert abs(bilinear_minmax(p, q) - float(joint.min())) <= 1e-6


class TestGeneralizedDerivative:
    def test_interior_value(self, example2):
        d = generalized_derivative(example2.candidate, example2.inclusion,
                                   example2.reducers, (0.5, 0.5), 0.0)
        assert d == -0.5
        assert d is not None

    def test_minus_inf_on_guard(self, example2):
        d = generalized_derivative(example2.candidate, example2.inclusion,
                                   example2.reducers, (1.0, 1.0), 0.0)
        assert d is None

    def test_time_varying_value_meets_bound(self, example4):
        x = (0.5, 0.5)
        d = generalized_derivative(example4.candidate, example4.inclusion,
                                   example4.reducers, x, 0.0)
        # independent arithmetic for the smooth branch at t=0:
        # g = 0.5, gdot = -0.5, h = 1 + g
        g, gdot = 0.5, -0.5
        h = 1.0 + g
        expected = (2 * x[0] * (-x[0] + x[1] * h)
                    + 2 * x[1] * h * (-x[0] - x[1]) + gdot * x[1] ** 2)
        assert d == pytest.approx(expected, abs=1e-12)
        assert d <= -2 * (x[0] ** 2 + x[1] ** 2)

    def test_nonregular_candidate_uses_max_max(self):
        grad = box((-1, 1), (0, 0))
        fbox = box((2, 3))
        inclusion = constant_map(fbox)
        reg = constant_spec(grad, name="reg", regular=True)
        nonreg = constant_spec(grad, name="nonreg", regular=False)
        d_reg = generalized_derivative(reg, inclusion, (), (0.0,), 0.0)
        d_non = generalized_derivative(nonreg, inclusion, (), (0.0,), 0.0)
        assert d_reg == bilinear_minmax(grad, fbox) == -2.0
        assert d_non == bilinear_maxmax(grad, fbox) == 3.0

    def test_nan_value_names_the_candidate_and_point(self):
        inclusion = constant_map(box((-math.inf, 1)))
        v = constant_spec(box((0, 1), (0, 0)), name="V")
        with pytest.raises(DslEvalError, match=re.escape(
                "V: the generalized derivative is NaN at x=(0.5,), t=0.0")):
            generalized_derivative(v, inclusion, (), (0.5,), 0.0)


def _interval_reference(grad, fbox):
    """``(lo, hi)`` of the intersection derivative by the per-axis loop it
    used before its upper end came from bilinear_minmax; None when empty.
    A NaN product or sum raises DslEvalError."""
    sup_lo = inf_hi = 0.0
    for pi, qi in zip(grad.axes, fbox.axes):
        cs = [pi.lo, pi.hi] + ([0.0] if pi.lo < 0.0 < pi.hi else [])
        products = [(c * qi.lo, c * qi.hi) for c in cs]
        if any(math.isnan(v) for pair in products for v in pair):
            raise DslEvalError("NaN product")
        sup_lo += max(map(min, products))
        inf_hi += min(map(max, products))
    sup_lo, inf_hi = sup_lo + grad.axes[-1].hi, inf_hi + grad.axes[-1].lo
    if math.isnan(sup_lo) or math.isnan(inf_hi):
        raise DslEvalError("NaN sum")
    return None if sup_lo > inf_hi else (sup_lo, inf_hi)


# signed zeros and infinities, where the bits of min, max and sums differ
ENDPOINTS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -2.5]) \
    | st.floats(-3.0, 3.0)


def boxes(dims):
    return st.lists(st.tuples(ENDPOINTS, ENDPOINTS).map(sorted),
                    min_size=dims, max_size=dims).map(lambda b: box(*b))


class TestBaselines:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(boxes(n + 1), boxes(n))))
    def test_interval_derivative_upper_end_is_bilinear_minmax(self, pq):
        grad, fbox = pq
        spec, fmap = constant_spec(grad, name="s"), constant_map(fbox)
        x = (0.0,) * fbox.dims
        try:
            want = _interval_reference(grad, fbox)
        except DslEvalError:
            with pytest.raises(DslEvalError, match=re.escape(
                    "s: the baseline interval derivative is NaN at x=")):
                baseline_interval_derivative(spec, fmap, x, 0.0)
            return
        d = baseline_interval_derivative(spec, fmap, x, 0.0)
        got = None if d is None else (d.lo, d.hi)
        assert repr(got) == repr(want)
        if want is not None:
            assert repr(d.hi) == repr(bilinear_minmax(grad, fbox))

    def test_common_value_max_at_corner(self, example2):
        d = common_value_max(example2.candidate, example2.inclusion,
                             (1.0, 1.0), 0.0)
        assert d == 0.0

    def test_common_value_max_smooth_singleton(self, trivial_zero):
        d = common_value_max(trivial_zero.candidate,
                             trivial_zero.inclusion, (0.3, -0.4), 0.0)
        assert d == 0.0  # gradient . 0

    def test_common_value_max_example3_corner(self, example3):
        d = common_value_max(example3.candidate, example3.inclusion,
                             (1.0, 1.0), 0.0)
        # endpoint arithmetic: max over [0.5,1.5] + max over [-2.5,-1.5]
        # under gradient (1, 1): 1.5 - 1.5 = 0
        assert d == 0.0

    def test_interval_derivative_smooth(self, example2):
        d = baseline_interval_derivative(example2.candidate,
                                         example2.inclusion, (1.0, 1.0), 0.0)
        assert d == Interval(-4.0, 0.0)

    def test_interval_derivative_singletons(self):
        grad = box((0.7, 0.7), (-0.2, -0.2), (0, 0))
        fbox = box((2, 2), (5, 5))
        d = baseline_interval_derivative(
            constant_spec(grad, name="s"), constant_map(fbox), (0.0, 0.0),
            0.0)
        assert d == Interval(0.7 * 2 - 0.2 * 5, 0.7 * 2 - 0.2 * 5)

    def test_interval_derivative_empty_intersection(self):
        # gradient [-1,1], singleton direction {1}: the per-element values
        # p*1 never agree, so the intersection is empty
        grad = box((-1, 1), (0, 0))
        d = baseline_interval_derivative(
            constant_spec(grad, name="s"), constant_map(box((1, 1))), (0.0,),
            0.0)
        assert d is None

    def test_interval_derivative_sampled_oracle(self):
        # intersect the per-element value intervals over an enumeration of
        # gradient elements: every endpoint/zero combination (where the
        # extremizers live) plus random interior elements
        import itertools
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 3))
            grad = _random_box(rng, n + 1, span=2.0)
            fbox = _random_box(rng, n, span=2.0)
            d = baseline_interval_derivative(
                constant_spec(grad, name="s"), constant_map(fbox),
                (0.0,) * n, 0.0)
            cands = []
            for iv in grad.axes:
                vals = {iv.lo, iv.hi}
                if iv.lo <= 0.0 <= iv.hi:
                    vals.add(0.0)
                cands.append(sorted(vals))
            elements = [list(p) for p in itertools.product(*cands)]
            elements += [[rng.uniform(iv.lo, iv.hi) for iv in grad.axes]
                         for _ in range(500)]
            lo, hi = -math.inf, math.inf
            for p in elements:
                m = sum(min(pi * qi.lo, pi * qi.hi)
                        for pi, qi in zip(p, fbox.axes)) + p[-1]
                M = sum(max(pi * qi.lo, pi * qi.hi)
                        for pi, qi in zip(p, fbox.axes)) + p[-1]
                lo, hi = max(lo, m), min(hi, M)
            if d is None:
                assert lo > hi - 1e-9
            else:
                assert d.lo == pytest.approx(lo, abs=1e-9)
                assert d.hi == pytest.approx(hi, abs=1e-9)


class TestOrderingProperties:
    def test_candidate_as_reducer_equals_common_value_max(
            self, example2, example3, example4):
        rng = np.random.default_rng(21)
        for system in (example2, example3, example4):
            for _ in range(120):
                x = rng.uniform(-2, 2, 2)
                if rng.random() < 0.5:
                    x[rng.integers(2)] = [-1.0, 0.0, 1.0][rng.integers(3)]
                t = float(rng.uniform(0, 5))
                via_reducer = generalized_derivative(
                    system.candidate, system.inclusion, (system.candidate,),
                    x, t)
                direct = common_value_max(system.candidate,
                                          system.inclusion, x, t)
                assert (via_reducer is None) == (direct is None)
                if direct is not None:
                    assert via_reducer == direct  # exact

    def test_larger_collections_never_increase_the_value(self, example6):
        pyramid = example6.matrosov.collections[1][0]
        rng = np.random.default_rng(23)
        probes = [tuple(rng.uniform(-2, 2, 2)) for _ in range(100)]
        probes += [(0.5, 0.5), (1.0, 0.0), (0.3, 0.3), (1.0, 1.0)]
        for x in probes:
            small = generalized_derivative(example6.candidate,
                                           example6.inclusion,
                                           example6.reducers, x, 0.5)
            large = generalized_derivative(example6.candidate,
                                           example6.inclusion,
                                           (*example6.reducers, pyramid), x,
                                           0.5)
            if large is None:
                continue
            assert small is not None
            assert large <= small + 1e-12

    def test_common_value_max_below_interval_max(self, example2, example3):
        rng = np.random.default_rng(29)
        for system in (example2, example3):
            for _ in range(150):
                x = rng.uniform(-2, 2, 2)
                if rng.random() < 0.5:
                    x[rng.integers(2)] = [-1.0, 1.0][rng.integers(2)]
                common = common_value_max(system.candidate,
                                          system.inclusion, x, 0.0)
                interval = baseline_interval_derivative(
                    system.candidate, system.inclusion, x, 0.0)
                if common is None or interval is None:
                    continue
                assert common <= interval.hi + 1e-12
