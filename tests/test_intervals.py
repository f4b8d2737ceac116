import math

import numpy as np
import pytest

from incred.errors import DimensionMismatchError, EmptySetError
from incred.intervals import (Annulus, Interval, IntervalBox, box_hausdorff,
                              contains, direction_axes, minkowski_sum, scale)

TOL = 1e-9


def box(*bounds):
    return IntervalBox(Interval(lo, hi) for lo, hi in bounds)


class TestInterval:
    def test_construction_and_degeneracy(self):
        iv = Interval(-1.0, 1.0)
        assert iv.lo == -1.0 and iv.hi == 1.0
        assert not iv.is_degenerate
        assert Interval.point(3.0).is_degenerate

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_empty_is_canonical(self):
        e = Interval.EMPTY
        assert e.is_empty
        assert not e.contains(0.0)
        with pytest.raises(EmptySetError):
            e.lo
        with pytest.raises(EmptySetError):
            e.hi
        assert (e + Interval(0, 1)).is_empty
        assert e.scale(2.0).is_empty
        assert e.intersect(Interval(0, 1)).is_empty
        assert e == Interval.EMPTY
        assert e != Interval(0.0, 0.0)

    def test_intersection(self):
        assert Interval(0, 2).intersect(Interval(1, 3)) == Interval(1, 2)
        assert Interval(0, 1).intersect(Interval(2, 3)).is_empty


class TestMinkowskiSum:
    def test_singleton_plus_interval(self):
        # {-1} + [-1, 1] = [-2, 0]
        out = minkowski_sum(box((-1, -1)), box((-1, 1)))
        assert out == box((-2, 0))

    def test_additive_identity(self):
        b = box((-1, 2), (0.5, 3))
        assert minkowski_sum(box((0, 0), (0, 0)), b) == b

    def test_against_sampled_hull(self):
        # brute force: hull of pairwise sums over a dense sample
        a, b = Interval(-1, 2), Interval(3, 4)
        xs = np.linspace(a.lo, a.hi, 100)
        ys = np.linspace(b.lo, b.hi, 100)
        sums = xs[:, None] + ys[None, :]
        out = minkowski_sum(box((a.lo, a.hi)), box((b.lo, b.hi)))
        assert out.axes[0].lo == pytest.approx(sums.min(), abs=TOL)
        assert out.axes[0].hi == pytest.approx(sums.max(), abs=TOL)
        assert out == box((2, 6))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            minkowski_sum(box((0, 1)), box((0, 1), (0, 1)))

    def test_empty_propagates(self):
        assert minkowski_sum(IntervalBox.empty(2),
                             box((0, 1), (0, 1))).is_empty

    def test_random_membership_and_vertices(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            los_a = rng.uniform(-5, 5, k)
            los_b = rng.uniform(-5, 5, k)
            a = box(*[(lo, lo + w) for lo, w in
                      zip(los_a, rng.uniform(0, 3, k))])
            b = box(*[(lo, lo + w) for lo, w in
                      zip(los_b, rng.uniform(0, 3, k))])
            s = minkowski_sum(a, b)
            for _ in range(25):
                pa = [rng.uniform(iv.lo, iv.hi) for iv in a.axes]
                pb = [rng.uniform(iv.lo, iv.hi) for iv in b.axes]
                assert contains(s, [x + y for x, y in zip(pa, pb)])
            # every vertex of the sum is a sum of vertices
            va = {v for v in a.vertices()}
            vb = {v for v in b.vertices()}
            achieved = {tuple(x + y for x, y in zip(p, q))
                        for p in va for q in vb}
            for v in s.vertices():
                assert any(all(abs(x - y) <= TOL for x, y in zip(v, w))
                           for w in achieved)


class TestScale:
    def test_reflection(self):
        assert scale(-1.0, box((2, 3))) == box((-3, -2))

    def test_annihilator(self):
        assert scale(0.0, box((-5, 7))) == box((0, 0))

    def test_half(self):
        assert scale(0.5, box((-1, 1))) == box((-0.5, 0.5))

    def test_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c, d = rng.uniform(-3, 3, 2)
            lo = rng.uniform(-10, 10)
            b = box((lo, lo + rng.uniform(0, 5)))
            lhs = scale(c, scale(d, b))
            rhs = scale(c * d, b)
            assert abs(lhs.axes[0].lo - rhs.axes[0].lo) <= TOL
            assert abs(lhs.axes[0].hi - rhs.axes[0].hi) <= TOL

    def test_empty(self):
        assert scale(2.0, IntervalBox.empty(3)).is_empty


class TestContains:
    def test_paper_value(self):
        assert contains(box((-2, 5)), (0.0,))

    def test_empty_contains_nothing(self):
        assert not contains(IntervalBox.empty(1), (0.0,))

    def test_axiswise(self):
        assert not contains(box((1, 2), (0, 0)), (1.5, 0.1))
        assert contains(box((1, 2), (0, 0)), (1.5, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            contains(box((0, 1)), (0.0, 0.0))

    def test_monotone_in_enclosure(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            lo = rng.uniform(-5, 5, 2)
            w = rng.uniform(0, 2, 2)
            inner = box((lo[0], lo[0] + w[0]), (lo[1], lo[1] + w[1]))
            pad = rng.uniform(0, 1, 2)
            outer = box((lo[0] - pad[0], lo[0] + w[0] + pad[0]),
                        (lo[1] - pad[1], lo[1] + w[1] + pad[1]))
            assert outer.encloses(inner)
            p = [rng.uniform(iv.lo, iv.hi) for iv in inner.axes]
            assert contains(inner, p) and contains(outer, p)


class TestDirectionAxes:
    def test_one_based_indices(self):
        assert direction_axes(box((1, 2), (0, 0))) == {1}
        assert direction_axes(box((3, 3), (4, 4))) == set()
        assert direction_axes(box((-1, 1), (-1, 1), (0, 0))) == {1, 2}

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            direction_axes(IntervalBox.empty(2))

    def test_empty_iff_singleton(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lo = rng.uniform(-5, 5, 3)
            w = rng.uniform(0, 2, 3) * rng.integers(0, 2, 3)
            b = box(*[(l, l + ww) for l, ww in zip(lo, w)])
            singleton = all(iv.is_degenerate for iv in b.axes)
            assert (direction_axes(b) == set()) == singleton


class TestAnnulus:
    def test_membership_hits_radii_exactly(self):
        ann = Annulus(0.1, 2.0)
        assert ann.contains((0.1, 0.0))
        assert ann.contains((0.0, -0.1))
        assert ann.contains((2.0, 0.0))
        assert ann.contains((1.0, 1.0))
        assert not ann.contains((0.05, 0.05))
        assert not ann.contains((2.0, 0.5))

    def test_array_form_is_a_row_mask(self):
        ann = Annulus(0.1, 2.0)
        pts = [(0.1, 0.0), (0.0, -0.1), (-2.0, 0.0), (0.0, 2.0), (1.0, 1.0),
               (0.05, 0.05), (2.0, 0.5), (-0.0, 0.0)]
        expected = [True, True, True, True, True, False, False, False]
        mask = ann.contains(np.array(pts))
        assert mask.dtype == bool and mask.shape == (len(pts),)
        assert mask.tolist() == expected
        singles = [ann.contains(p) for p in pts]
        assert singles == expected
        assert all(type(v) is bool for v in singles)

    def test_array_form_hits_radii_in_three_dimensions(self):
        ann = Annulus(0.1, 2.0)
        radii = [(0.0, 0.0, 0.1), (0.0, -0.1, 0.0), (2.0, 0.0, 0.0),
                 (0.0, 0.0, -2.0)]
        assert ann.contains(np.array(radii)).all()
        assert ann.contains(np.empty((0, 3))).shape == (0,)

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            Annulus(-0.1, 1.0)
        with pytest.raises(ValueError):
            Annulus(1.0, 1.0)


class TestHausdorff:
    def test_basic(self):
        a = box((0, 1), (0, 1))
        b = box((0.5, 1), (0, 2))
        assert box_hausdorff(a, b) == 1.0
        assert box_hausdorff(a, a) == 0.0
        assert box_hausdorff(a, IntervalBox.empty(2)) == math.inf
        assert box_hausdorff(IntervalBox.empty(2),
                             IntervalBox.empty(2)) == 0.0
