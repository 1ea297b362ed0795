import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rboxkit import polyiou
from rboxkit.geom import RotatedBox
from rboxkit.polyiou import box_array, iou, iou_matrix, iou_oracle

from exact_iou import ExactBox, intersection

PI = math.pi


def random_box(rng, span=60.0):
    cx, cy = rng.uniform(-span / 2, span / 2, size=2)
    w = rng.uniform(2.0, 40.0)
    h = rng.uniform(max(1.0, w / 10.0), w)
    theta = rng.uniform(-PI / 2, PI / 2 - 1e-9)
    return RotatedBox(cx, cy, w, h, theta)


class TestIou:
    def test_self_iou_is_one(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            b = random_box(rng)
            assert iou(b, b) == 1.0

    def test_axis_aligned_offset(self):
        a = RotatedBox(0, 0, 2, 2, 0)
        b = RotatedBox(1, 0, 2, 2, 0)
        assert iou(a, b) == pytest.approx(2.0 / 6.0)

    def test_square_vs_rotated_45(self):
        # intersection is the regular octagon of area 2(sqrt2 - 1)
        a = RotatedBox(0, 0, 1, 1, 0)
        b = RotatedBox.make(0, 0, 1, 1, PI / 4)
        inter = 2 * (math.sqrt(2) - 1)
        assert iou(a, b) == pytest.approx(inter / (2 - inter), abs=1e-12)
        assert abs(iou(a, b) - iou_oracle(a, b, samples=1_000_000, seed=9)) < 0.002

    def test_symmetry(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)

    def test_bounds(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            v = iou(random_box(rng), random_box(rng))
            assert 0.0 <= v <= 1.0

    def test_one_only_for_coincident_boxes(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            a = random_box(rng)
            b = RotatedBox(a.cx + 0.05 * a.w, a.cy, a.w, a.h, a.theta)
            assert iou(a, b) < 1.0

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            base = iou(a, b)
            dx, dy = rng.uniform(-30, 30, size=2)
            rot = rng.uniform(-PI / 2, PI / 2)
            c, s = math.cos(rot), math.sin(rot)

            def moved(bb):
                x = bb.cx * c - bb.cy * s + dx
                y = bb.cx * s + bb.cy * c + dy
                return RotatedBox.make(x, y, bb.w, bb.h, bb.theta + rot)

            assert abs(iou(moved(a), moved(b)) - base) < 1e-9

    def test_matches_oracle(self):
        rng = np.random.default_rng(67)
        for k in range(50):
            a, b = random_box(rng), random_box(rng)
            exact = iou(a, b)
            approx = iou_oracle(a, b, samples=50_000, seed=k)
            # generous 3-sigma style bound for 5e4 samples
            assert abs(exact - approx) < 0.02

    def test_copy_shifted_along_its_own_axis(self):
        # moved a fraction f of a side along that side's axis, a copy keeps
        # (1 - f) of the box: IoU (1 - f) / (1 + f). Near-parallel edges used to
        # add spurious crossings, and this pair (f = 1/2) read 0.6
        a = RotatedBox(12.409657627761284, -15.35734695792156, 28.85909310057885, 11.751641675407324, -0.1689362174351734)
        b = RotatedBox(26.63378778601121, -17.783441533187418, a.w, a.h, a.theta)
        assert abs(iou(a, b) - 1.0 / 3.0) < 1e-9
        rng = np.random.default_rng(89)
        for offset in (0.0, 1e5):
            for along_w in (True, False):
                for _ in range(150):
                    a = random_box(rng)
                    a = RotatedBox(a.cx + offset, a.cy - offset, a.w, a.h, a.theta)
                    f = rng.uniform(0.01, 0.99)
                    d = f * (a.w if along_w else a.h)
                    c, s = math.cos(a.theta), math.sin(a.theta)
                    dx, dy = (d * c, d * s) if along_w else (-d * s, d * c)
                    b = RotatedBox(a.cx + dx, a.cy + dy, a.w, a.h, a.theta)
                    assert abs(iou(a, b) - (1.0 - f) / (1.0 + f)) < 1e-9

    def test_thin_box_small_rotation_probe(self):
        # 5:1 box against itself rotated by pi/15: kernel and oracle agree
        a = RotatedBox(0, 0, 5, 1, 0)
        b = RotatedBox.make(0, 0, 5, 1, PI / 15)
        exact = iou(a, b)
        approx = iou_oracle(a, b, samples=1_000_000, seed=77)
        assert abs(exact - approx) < 0.002
        assert 0.0 < exact < 1.0

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, -1.2])
    def test_long_thin_copy_moved_along_its_axis(self, theta):
        # rotating the half sides into image axes before pairing lost the 1e3
        # side of this 1e20 box: the pair read 0.0 at every angle but 0
        a = RotatedBox(0, 0, 1e20, 1e3, theta)
        b = RotatedBox(math.cos(theta), math.sin(theta), 1e20, 1e3, theta)
        assert iou(a, b) == pytest.approx(1.0, abs=1e-12)
        assert iou(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_long_pair_with_close_vertex_angles(self):
        # the right-hand vertices' sort keys rounded to one value, and the
        # polygon traced out of order read 0.2308
        a = RotatedBox(0, 0, 1e20, 1e3, 0.0)
        b = RotatedBox(0, 250, 1e20, 1e3, 0.0)
        assert iou(a, b) == pytest.approx(0.6, abs=1e-12)

    def test_long_pair_far_along_its_axis_stays_in_unit_interval(self):
        # the intersection came out above the sum of the areas, and the
        # negative union gave -2.956
        a = RotatedBox(0, 0, 1e20, 1e3, 0.3)
        b = RotatedBox(3e19 * math.cos(0.3), 3e19 * math.sin(0.3), 1e20, 1e3, 0.3)
        value = iou(a, b)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(7.0 / 13.0, abs=1e-12)


# exact integer boxes (cx, cy, w, h) at theta 0 around the 4 x 4 box at the
# origin, with their exact IoU: shared edges, touches and own-axis shifts
# are where the exact stage's tie rule decides
_TIES = {
    "nested": ((0, 0, 2, 2), 4 / 16),
    "nested_one_shared_edge": ((-1, 0, 2, 2), 4 / 16),
    "nested_two_shared_edges": ((-1, -1, 2, 2), 4 / 16),
    "nested_three_shared_edges": ((-1, 0, 2, 4), 8 / 16),
    "identical": ((0, 0, 4, 4), 1.0),
    "outside_edge_touch": ((4, 0, 4, 4), 0.0),
    "outside_part_edge_touch": ((3, 1, 2, 2), 0.0),
    "outside_corner_touch": ((4, 4, 4, 4), 0.0),
    "outside_corner_touch_small": ((-3, 3, 2, 2), 0.0),
    "shift_along_x": ((1, 0, 4, 4), 12 / 20),
    "shift_along_y": ((0, -2, 4, 4), 8 / 24),
    "overlap_sharing_part_of_an_edge": ((2, 1, 6, 2), 6 / 22),
}


@pytest.mark.parametrize("other, expected", _TIES.values(), ids=_TIES.keys())
def test_tie_rule_on_exact_boxes(other, expected):
    # both argument orders, so that either box is the exact stage's first box
    a = np.array([[0.0, 0.0, 4.0, 4.0, 0.0]])
    b = np.array([[*other, 0.0]], dtype=np.float64)
    assert iou_matrix(a, b)[0, 0] == expected
    assert iou_matrix(b, a)[0, 0] == expected


class TestIouMatrix:
    def test_shape_and_empty_sides(self):
        a = box_array([RotatedBox(0, 0, 4, 2, 0.1), RotatedBox(50, 0, 4, 2, 0.0)])
        assert iou_matrix(a, a[:0]).shape == (2, 0)
        assert iou_matrix(a[:0], a).shape == (0, 2)
        assert iou_matrix(a, a[:1]).shape == (2, 1)

    def test_known_values(self):
        a = box_array([RotatedBox(0, 0, 2, 2, 0), RotatedBox(0, 0, 1, 1, 0)])
        b = box_array([RotatedBox(1, 0, 2, 2, 0), RotatedBox.make(0, 0, 1, 1, PI / 4), RotatedBox(9, 9, 1, 1, 0)])
        m = iou_matrix(a, b)
        inter = 2 * (math.sqrt(2) - 1)
        assert m[0, 0] == pytest.approx(2.0 / 6.0, abs=1e-15)
        assert m[1, 1] == pytest.approx(inter / (2 - inter), abs=1e-15)
        assert m[0, 2] == 0.0 and m[1, 2] == 0.0

    def test_touching_boxes_zero(self):
        a = box_array([RotatedBox(0, 0, 2, 2, 0)])
        b = box_array([RotatedBox(2, 0, 2, 2, 0), RotatedBox(2, 2, 2, 2, 0)])
        assert np.all(iou_matrix(a, b) == 0.0)

    def test_self_matrix_equals_general_path(self):
        rng = np.random.default_rng(83)
        a = box_array(random_box(rng) for _ in range(40))
        a[5] = a[9]  # a duplicate row reads 1 against itself
        m = iou_matrix(a, a)
        assert np.array_equal(m, iou_matrix(a, a.copy()))
        assert m[5, 9] == 1.0 and np.all(np.diag(m) == 1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            iou_matrix(np.zeros((2, 4)), np.zeros((2, 5)))
        bad = box_array([RotatedBox(0, 0, 2, 1, 0)])
        bad[0, 3] = 0.0
        with pytest.raises(ValueError, match="zero-area"):
            iou_matrix(bad, box_array([RotatedBox(0, 0, 2, 1, 0)]))
        bad[0, 3] = np.nan
        with pytest.raises(ValueError):
            iou_matrix(bad, bad)
        bad[0, 2:4] = 1e200
        with pytest.raises(ValueError, match="overflows"):
            iou_matrix(bad, bad)

    def test_rejects_params_beyond_cross_product_range(self):
        # sides near 1e160 overflow the edge cross products, and this pair read 0.0
        with pytest.raises(ValueError, match="must not exceed 1e"):
            iou(RotatedBox(0, 0, 1e160, 1e100, 0.3), RotatedBox(1, 0, 1e160, 1e100, 0.3))
        small = box_array([RotatedBox(0, 0, 2, 1, 0)])
        for col in range(4):
            far = small.copy()
            far[0, col] = -2e150 if col < 2 else 2e150
            if col == 2:
                far[0, 3] = 1e-10  # keeps w * h finite
            with pytest.raises(ValueError, match="must not exceed 1e"):
                iou_matrix(far, small)
        edge = box_array([RotatedBox(1e150, -1e150, 1e150, 1e149, 0.3)])
        assert iou_matrix(edge, edge)[0, 0] == 1.0

    def test_overflowing_crossing_reads_a_number(self):
        # the 2e-300 short edge of g runs straight across f's bottom side, with
        # e_x exactly 0, and its line meets that side's line at t = -2.5e309,
        # beyond float range; g lies inside f, so the IoU is 4e-300 / 1e20
        f = np.array([[-1.0, 0.0, 1e10, 1e10, 0.0]])
        g = np.array([[0.0, 0.0, 2.0, 2e-300, 1e-290]])
        assert iou_matrix(f, g)[0, 0] == iou_matrix(g, f)[0, 0] == pytest.approx(4e-320, rel=1e-3, abs=0)

    def test_scalar_keeps_zero_area_error(self):
        tiny = RotatedBox(0, 0, 1e-200, 1e-200, 0)
        with pytest.raises(ValueError, match="zero-area"):
            iou(tiny, RotatedBox(0, 0, 2, 1, 0))

    def test_far_from_origin_matches_local_frame(self):
        # the 2x1 px pair that scalar shoelace areas on absolute coordinates
        # got wrong by 3e-4 at a 1e6 px offset
        a = RotatedBox(0.3, -0.2, 2, 1, 0.3)
        b = RotatedBox(0.9, 0.1, 2, 1, -0.4)
        near = iou(a, b)
        for off in (1e3, 1e5, 1e6):
            far = iou(
                RotatedBox(a.cx + off, a.cy - off, a.w, a.h, a.theta),
                RotatedBox(b.cx + off, b.cy - off, b.w, b.h, b.theta),
            )
            assert abs(far - near) < 1e-9


# property tests: boxes as canonical (cx, cy, w, h, theta) rows, sides of at
# least 2 px so that a translation's rounding (half an ulp, 6e-11 px at 1e6)
# moves IoU by well under 1e-9
_side = st.floats(2.0, 60.0)
_angle = st.floats(-PI / 2, PI / 2, exclude_max=True)
_near = st.floats(-40.0, 40.0)
_far = st.floats(-1e6, 1e6)


@st.composite
def _box(draw, cx=_near, cy=_near):
    return RotatedBox.make(draw(cx), draw(cy), draw(_side), draw(_side), draw(_angle))


@st.composite
def _pair(draw):
    """Two boxes whose centres lie within 30 px of each other, anywhere up to 1e6 px out."""
    base_x, base_y = draw(_far), draw(_far)
    a = draw(_box(st.just(base_x), st.just(base_y)))
    b = draw(_box(st.floats(base_x - 30, base_x + 30), st.floats(base_y - 30, base_y + 30)))
    return a, b


_boxes = st.lists(_box(), min_size=1, max_size=8).map(box_array)


def _moved(b: RotatedBox, dx: float, dy: float, rot: float = 0.0) -> RotatedBox:
    c, s = math.cos(rot), math.sin(rot)
    return RotatedBox.make(b.cx * c - b.cy * s + dx, b.cx * s + b.cy * c + dy, b.w, b.h, b.theta + rot)


def _float_box(b: RotatedBox) -> ExactBox:
    """The box as a float-valued :class:`ExactBox`, with libm cos and sin of its angle."""
    return ExactBox(b.cx, b.cy, b.w / 2.0, b.h / 2.0, math.cos(b.theta), math.sin(b.theta))


class TestIouProperties:
    @given(_boxes, _boxes)
    def test_transpose_is_bit_for_bit(self, a, b):
        assert np.array_equal(iou_matrix(b, a), iou_matrix(a, b).T)

    @given(_boxes, _boxes, st.data())
    def test_pairs_scatter_to_each_image_matrix(self, a, b, data):
        codes = [np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(x), max_size=len(x)))) for x in (a, b)]
        for (x, cx), (y, cy) in (((a, codes[0]), (b, codes[1])), ((b, codes[1]), (a, codes[0]))):
            i, j, v = polyiou.iou_pairs(x, y, cx, cy)
            assert np.array_equal(cx[i], cy[j])
            scattered = np.zeros((len(x), len(y)))
            scattered[i, j] = v
            for k in range(3):
                rows, cols = np.flatnonzero(cx == k), np.flatnonzero(cy == k)
                assert scattered[np.ix_(rows, cols)].tobytes() == iou_matrix(x[rows], y[cols]).tobytes()

    def test_boxes_of_two_images_never_pair(self):
        a = box_array([RotatedBox(50, 20, 80, 20, 0.0)])
        assert [len(v) for v in polyiou.iou_pairs(a, a, 0, 1)] == [0, 0, 0]
        assert polyiou.iou_pairs(a, a, 1, 1)[2].tolist() == [1.0]

    @given(_boxes, _boxes)
    def test_values_in_unit_interval(self, a, b):
        m = iou_matrix(a, b)
        assert np.all((m >= 0.0) & (m <= 1.0))

    @given(_boxes, _boxes)
    def test_entries_equal_scalar_iou(self, a, b):
        m = iou_matrix(a, b)
        for i, j in np.ndindex(*m.shape):
            assert m[i, j] == iou(RotatedBox(*a[i]), RotatedBox(*b[j]))

    @given(_box(_far, _far))
    def test_self_iou_is_one(self, b):
        assert iou(b, b) == 1.0

    @given(_pair(), _far, _far)
    def test_translation_invariant(self, pair, dx, dy):
        a, b = pair
        assert abs(iou(_moved(a, dx, dy), _moved(b, dx, dy)) - iou(a, b)) < 1e-9

    @given(_box(), _box(), st.floats(-PI, PI))
    def test_rotation_invariant(self, a, b, rot):
        assert abs(iou(_moved(a, 0.0, 0.0, rot), _moved(b, 0.0, 0.0, rot)) - iou(a, b)) < 1e-9

    @given(_pair())
    def test_agrees_with_clipping_in_local_frame(self, pair):
        a, b = pair
        local_a, local_b = _moved(a, -a.cx, -a.cy), _moved(b, -a.cx, -a.cy)
        inter = intersection(_float_box(local_a), _float_box(local_b))
        expected = inter / (a.area + b.area - inter)
        assert abs(iou(a, b) - expected) < 1e-9


@st.composite
def _crowd(draw):
    """(N, 5) rows: free boxes, exact copies, and axis-aligned boxes that touch exactly."""
    rows = [tuple(vars(b).values()) for b in draw(st.lists(_box(), max_size=10))]
    ints = st.integers(-20, 20)
    for _ in range(draw(st.integers(0, 3))):
        cx, cy, w, h = draw(ints), draw(ints), draw(st.integers(1, 10)), draw(st.integers(1, 10))
        rows += [(cx, cy, w, h, 0.0), (cx + w, cy, w, h, 0.0), (cx, cy - h, w, h, 0.0), (cx + w, cy + h, w, h, 0.0)]
    if rows:
        rows += [rows[k] for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    return np.array(rows, dtype=np.float64).reshape(-1, 5)


@st.composite
def _copy_pair(draw):
    """A box anywhere up to 1e6 px out and a copy of it: shifted along one of its axes, nested
    in it, identical, touching it, or turned by a small angle."""
    a = draw(_box(_far, _far))
    kind = draw(st.sampled_from(["shifted", "nested", "identical", "touching", "turned"]))
    c, s = math.cos(a.theta), math.sin(a.theta)
    along_w = draw(st.booleans())
    side = a.w if along_w else a.h
    ux, uy = (c, s) if along_w else (-s, c)
    if kind == "shifted":
        d = draw(st.floats(-1.5, 1.5)) * side
        return a, RotatedBox(a.cx + d * ux, a.cy + d * uy, a.w, a.h, a.theta)
    if kind == "nested":
        k = draw(st.floats(0.05, 1.0))
        d = draw(st.floats(-1.0, 1.0)) * (1.0 - k) * side / 2.0
        return a, RotatedBox.make(a.cx + d * ux, a.cy + d * uy, k * a.w, k * a.h, a.theta)
    if kind == "identical":
        return a, a
    if kind == "touching":
        return a, RotatedBox(a.cx + side * ux, a.cy + side * uy, a.w, a.h, a.theta)
    turn = draw(st.floats(-1e-3, 1e-3))
    return a, RotatedBox.make(a.cx, a.cy, a.w, a.h, a.theta + turn)


def _upper(a: RotatedBox, b: RotatedBox):
    return polyiou._iou_upper(polyiou._table(box_array((a, b))), np.array([0]), np.array([1]))[0]


def _dense_pairs(table, images):
    """Every pair i < j of one image whose bounding boxes meet, from testing all pairs on both axes."""
    x, y, ex, ey = (table[:, c] for c in (0, 1, polyiou._EXT_X, polyiou._EXT_Y))
    near = (np.abs(x[:, None] - x) <= ex[:, None] + ex) & (np.abs(y[:, None] - y) <= ey[:, None] + ey)
    i, j = np.nonzero(np.triu(near & (images[:, None] == images), 1))
    return sorted(zip(i.tolist(), j.tolist()))


class TestNmsStages:
    """The sweep pair listing and the IoU upper bound that greedy_nms builds on."""

    @given(_crowd(), st.data())
    def test_sweep_lists_the_dense_pairs(self, rows, data):
        # a drawn image per row: the pairs are the dense ones within one image
        images = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))), dtype=np.intp)
        table = polyiou._table(rows)
        i, j = polyiou._sweep_pairs(table, images)
        assert sorted(zip(i.tolist(), j.tolist())) == _dense_pairs(table, images)
        assert len(set(zip(i.tolist(), j.tolist()))) == len(i)

    @given(_crowd(), st.data())
    def test_split_sweep_lists_the_dense_cross_pairs(self, rows, data):
        # rows before the split against rows from it on, each pair once
        images = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))), dtype=np.intp)
        split = data.draw(st.integers(0, len(rows)))
        table = polyiou._table(rows)
        i, j = polyiou._sweep_pairs(table, images, split)
        cross = [(a, b) for a, b in _dense_pairs(table, images) if a < split <= b]
        assert sorted(zip(i.tolist(), j.tolist())) == cross

    def test_sweep_edge_cases(self):
        empty = polyiou._table(np.zeros((0, 5)))
        assert [len(v) for v in polyiou._sweep_pairs(empty)] == [0, 0]
        one = polyiou._table(np.array([[3.0, 4.0, 2.0, 1.0, 0.3]]))
        assert [len(v) for v in polyiou._sweep_pairs(one)] == [0, 0]
        # touching at an edge and at a corner, plus an identical copy: all listed
        rows = np.array([[0, 0, 2, 2, 0], [2, 0, 2, 2, 0], [2, 2, 2, 2, 0], [0, 0, 2, 2, 0], [4.5, 0, 2, 2, 0]])
        i, j = polyiou._sweep_pairs(polyiou._table(rows))
        assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        # the dense test accepts this pair while x-min (-26.5 + 19.9 rounded)
        # and x-max (2.5 - 9.1 rounded) cross by one ulp: the sweep must widen
        rows = np.array([[-26.5, 0, 39.8, 1, 0], [2.5, 0, 18.2, 1, 0]])
        assert [v.tolist() for v in polyiou._sweep_pairs(polyiou._table(rows))] == [[0], [1]]

    @given(st.one_of(_pair(), _copy_pair()))
    def test_bounds_enclose_the_exact_iou(self, pair):
        a, b = pair
        exact = iou(a, b)
        for f, g in ((a, b), (b, a)):
            assert exact <= _upper(f, g) + polyiou._MARGIN

    def test_bounds_are_tight_for_aligned_boxes(self):
        a = RotatedBox(0, 0, 10, 5, 0.0)
        for b in (a, RotatedBox(3, 0, 10, 5, 0.0), RotatedBox(1, 1, 4, 2, 0.0), RotatedBox(10, 0, 10, 5, 0.0)):
            assert _upper(a, b) == pytest.approx(iou(a, b), abs=1e-12)


class TestIouOracle:
    def test_self_close_to_one(self):
        b = RotatedBox(3, -2, 8, 3, 0.4)
        assert iou_oracle(b, b, samples=10_000, seed=1) == pytest.approx(1.0, abs=0.01)

    def test_disjoint_exactly_zero(self):
        a = RotatedBox(0, 0, 2, 1, 0.3)
        b = RotatedBox(100, 100, 2, 1, -0.3)
        assert iou_oracle(a, b, samples=10_000, seed=2) == 0.0

    def test_deterministic_for_seed(self):
        a = RotatedBox(0, 0, 4, 2, 0.2)
        b = RotatedBox(1, 1, 3, 2, -0.4)
        v1 = iou_oracle(a, b, samples=20_000, seed=5)
        v2 = iou_oracle(a, b, samples=20_000, seed=5)
        assert v1 == v2

    def test_far_from_origin(self):
        # sampled in a local frame: at a 1e6 px offset the float32 samples keep
        # sub-pixel resolution, and the estimate stays deterministic
        a = RotatedBox(1e6 + 0.3, 1e6 - 0.2, 2, 1, 0.3)
        b = RotatedBox(1e6 + 0.9, 1e6 + 0.1, 2, 1, -0.4)
        approx = iou_oracle(a, b, samples=1_000_000, seed=3)
        assert abs(approx - iou(a, b)) < 0.002
        assert iou_oracle(a, b, samples=1_000_000, seed=3) == approx

    def test_sample_floor(self):
        b = RotatedBox(0, 0, 2, 1, 0)
        with pytest.raises(ValueError):
            iou_oracle(b, b, samples=100, seed=0)
