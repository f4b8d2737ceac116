import numpy as np
import pytest

from incred import expr
from incred.errors import DimensionMismatchError, EmptySetError
from incred.intervals import Annulus, Interval, IntervalBox, contains

from boxes import distance_to, intersect, max_vertex_norm

TOL = 1e-9
MAX = 1.7976931348623157e308


def box(*bounds):
    return IntervalBox(Interval(lo, hi) for lo, hi in bounds)


def evset(src, **env):
    """The ``(lo, hi)`` value of a compiled set expression."""
    return expr.compile_sets((expr.parse_set(src),))(env)[0]


class TestInterval:
    def test_construction_and_degeneracy(self):
        iv = Interval(-1.0, 1.0)
        assert iv.lo == -1.0 and iv.hi == 1.0
        assert not iv.is_degenerate
        assert Interval(3.0, 3.0).is_degenerate

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_intersection(self):
        assert intersect(box((0, 2), (0, 1)), box((1, 3), (0, 1))) \
            == box((1, 2), (0, 1))
        assert intersect(box((0, 1), (0, 1)), box((2, 3), (0, 1))) \
            == IntervalBox.empty(2)
        assert intersect(box((0, 1)), IntervalBox.empty(1)).is_empty

    def test_center(self):
        assert Interval(-1.0, 3.0).center == 1.0
        assert Interval(0.1, 0.2).center == (0.1 + 0.2) / 2.0

    @pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, -5e-324, 1e308, 1.7e308,
                                   -1.7e308, 2.5])
    def test_center_of_a_point_is_the_point(self, v):
        c = Interval(v, v).center
        assert c == v and repr(c) == repr(v)

    @pytest.mark.parametrize("lo, hi, center", [
        (1e308, 1.7e308, 1.35e308),
        (-1.7e308, -1e308, -1.35e308),
        (1.7e308, MAX, 1.7e308 / 2 + MAX / 2),
    ])
    def test_center_does_not_overflow(self, lo, hi, center):
        c = Interval(lo, hi).center
        assert c == center and lo <= c <= hi


class TestEmptyBox:
    """``IntervalBox.empty``, the package's only empty set value."""

    def test_has_no_axes_corners_or_center(self):
        e = IntervalBox.empty(2)
        assert e.is_empty and e.dims == 2
        for read in (lambda: e.axes, e.lo_corner, e.hi_corner,
                     lambda: e.center):
            with pytest.raises(EmptySetError):
                read()

    def test_equality_hash_and_repr(self):
        assert IntervalBox.empty(2) == IntervalBox.empty(2)
        assert IntervalBox.empty(2) != IntervalBox.empty(3)
        assert IntervalBox.empty(1) != box((0, 0))
        assert box((0, 0)) != IntervalBox.empty(1)
        assert hash(IntervalBox.empty(2)) == hash(IntervalBox.empty(2))
        assert len({IntervalBox.empty(2), IntervalBox.empty(2),
                    IntervalBox.empty(3)}) == 2
        assert repr(IntervalBox.empty(3)) == "IntervalBox.empty(3)"

    def test_needs_a_dimension(self):
        with pytest.raises(ValueError):
            IntervalBox.empty(0)

    def test_set_operations(self):
        e = IntervalBox.empty(2)
        assert distance_to(e, (0.0, 0.0)) == float("inf")
        assert max_vertex_norm(e) == 0.0
        with pytest.raises(DimensionMismatchError):
            intersect(e, IntervalBox.empty(3))


class TestMinkowskiSum:
    """The Minkowski sum of set values, ``A + B``, on ``(lo, hi)`` pairs."""

    def test_singleton_plus_interval(self):
        assert evset("{-1} + [-1, 1]") == (-2.0, 0.0)

    def test_additive_identity(self):
        assert evset("{0} + [-1, 2]") == (-1.0, 2.0)

    def test_against_sampled_hull(self):
        # brute force: hull of pairwise sums over a dense sample
        xs = np.linspace(-1, 2, 100)
        ys = np.linspace(3, 4, 100)
        sums = xs[:, None] + ys[None, :]
        lo, hi = evset("[-1, 2] + [3, 4]")
        assert lo == pytest.approx(sums.min(), abs=TOL)
        assert hi == pytest.approx(sums.max(), abs=TOL)
        assert (lo, hi) == (2.0, 6.0)

    def test_random_membership_and_vertices(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            lo_a, lo_b = rng.uniform(-5, 5, 2)
            w_a, w_b = rng.uniform(0, 3, 2)
            a, b = (lo_a, lo_a + w_a), (lo_b, lo_b + w_b)
            lo, hi = evset("[x1, x2] + [x3, x4]", x1=a[0], x2=a[1],
                           x3=b[0], x4=b[1])
            for _ in range(25):
                assert lo <= rng.uniform(*a) + rng.uniform(*b) <= hi
            # the endpoints of the sum are sums of endpoints
            assert abs(lo - (a[0] + b[0])) <= TOL
            assert abs(hi - (a[1] + b[1])) <= TOL


class TestScale:
    """Scaled set values, ``c*A``, on ``(lo, hi)`` pairs."""

    def test_reflection(self):
        assert evset("-1*[2, 3]") == (-3.0, -2.0)

    def test_annihilator(self):
        assert evset("0*[-5, 7]") == (0.0, 0.0)

    def test_half(self):
        assert evset("0.5*[-1, 1]") == (-0.5, 0.5)

    def test_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c, d = rng.uniform(-3, 3, 2)
            lo = rng.uniform(-10, 10)
            env = dict(x1=c, x2=d, x3=lo, x4=lo + rng.uniform(0, 5))
            lhs = evset("x1*(x2*[x3, x4])", **env)
            rhs = evset("(x1*x2)*[x3, x4]", **env)
            assert abs(lhs[0] - rhs[0]) <= TOL
            assert abs(lhs[1] - rhs[1]) <= TOL


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
            assert intersect(outer, inner) == inner
            p = [rng.uniform(iv.lo, iv.hi) for iv in inner.axes]
            assert contains(inner, p) and contains(outer, p)


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
