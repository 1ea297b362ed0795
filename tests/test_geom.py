import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rboxkit import geom
from rboxkit.geom import (
    AugmentTransform,
    Detections,
    Point2,
    Proposal,
    Quad,
    RotatedBox,
    _canonical_rows,
    _proposals,
    angle_distance,
    angle_to_unit,
    apply_rotation,
    box_corners,
    canonicalize_angle,
    quad_to_rotated_box,
    rotate_box,
    rotated_box_to_quad,
    unit_to_angle,
)

PI = math.pi


def random_box(rng):
    cx, cy = rng.uniform(-100, 100, size=2)
    w = rng.uniform(2.0, 120.0)
    h = rng.uniform(1.0, w)
    theta = rng.uniform(-PI / 2, PI / 2 - 1e-9)
    return RotatedBox(cx, cy, w, h, theta)


class TestCanonicalizeAngle:
    def test_in_range_unchanged(self):
        assert canonicalize_angle(PI / 4) == PI / 4

    def test_shift_by_pi(self):
        assert canonicalize_angle(3 * PI / 4) == pytest.approx(-PI / 4, abs=1e-12)

    def test_upper_boundary_wraps(self):
        assert canonicalize_angle(PI / 2) == pytest.approx(-PI / 2)

    def test_idempotent_and_periodic(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(-20, 20, size=500):
            c = canonicalize_angle(theta)
            assert -PI / 2 <= c < PI / 2
            # differs from input by an integer multiple of pi
            k = (theta - c) / PI
            assert abs(k - round(k)) < 1e-9
            assert canonicalize_angle(c) == c
            assert canonicalize_angle(theta + PI) == pytest.approx(c, abs=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonicalize_angle(float("nan"))


class TestAngleUnitCodec:
    def test_zero_maps_to_half(self):
        assert angle_to_unit(0.0) == 0.5

    def test_quarter(self):
        assert angle_to_unit(PI / 4) == pytest.approx(0.75)

    def test_lower_boundary(self):
        assert angle_to_unit(-PI / 2) == pytest.approx(0.0)

    def test_inverse_values(self):
        assert unit_to_angle(0.5) == 0.0
        assert unit_to_angle(0.75) == pytest.approx(PI / 4)
        assert unit_to_angle(1.0) == pytest.approx(PI / 2)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for t in rng.uniform(0, 1, size=1000):
            assert abs(angle_to_unit(unit_to_angle(t)) - t) < 1e-12

    def test_unit_domain_checked(self):
        with pytest.raises(ValueError):
            unit_to_angle(1.5)
        with pytest.raises(ValueError):
            unit_to_angle(-0.1)


class TestTypes:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)

    def test_box_invariants(self):
        with pytest.raises(ValueError):
            RotatedBox(0, 0, 1, 2, 0)  # w < h
        with pytest.raises(ValueError):
            RotatedBox(0, 0, 2, 0, 0)  # h == 0
        with pytest.raises(ValueError):
            RotatedBox(0, 0, 2, 1, PI / 2)  # angle at open upper bound

    def test_make_swaps_sides(self):
        b = RotatedBox.make(0, 0, 1, 2, 0.0)
        assert (b.w, b.h) == (2, 1)
        assert b.theta == pytest.approx(-PI / 2)

    def test_quad_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Quad.from_points((0, 0), (1, 1), (2, 2), (3, 3))

    def test_quad_rejects_bowtie(self):
        with pytest.raises(ValueError):
            Quad.from_points((0, 0), (1, 0), (0, 1), (1, 1))

    def test_transform_invariants(self):
        with pytest.raises(ValueError):
            AugmentTransform(0, 10, 0.0)
        with pytest.raises(ValueError):
            AugmentTransform(10, 10, 2.0)


def bits(values):
    """Float64 bit patterns, so -0.0 and 0.0 (or two NaNs) compare as stored."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# angles at and near the canonical bounds, far outside them, and ordinary ones
angles = st.one_of(
    st.sampled_from([-PI / 2, PI / 2, -PI, PI, 3 * PI / 2, -3 * PI / 2, 0.0, -0.0]),
    st.sampled_from([-PI / 2, PI / 2]).map(lambda t: math.nextafter(t, 0.0)),
    st.sampled_from([-PI / 2, PI / 2]).map(lambda t: math.nextafter(t, 2 * t)),
    st.floats(-1e300, 1e300),
    st.floats(-10.0, 10.0),
)
sides = st.floats(1e-300, 1e300)
finite = st.floats(-1e300, 1e300)


@st.composite
def make_args(draw):
    """(cx, cy, w, h, theta) as RotatedBox.make takes them, with w == h drawn often."""
    w = draw(sides)
    h = w if draw(st.booleans()) else draw(sides)
    return (draw(finite), draw(finite), w, h, draw(angles))


# any float, with the values the box and proposal checks turn on drawn often
any_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 2.0, -PI / 2, PI / 2, math.inf, -math.inf, math.nan]),
)


class TestRowHelpers:
    @given(st.lists(make_args(), min_size=1, max_size=8))
    def test_canonical_rows_equal_make_bit_for_bit(self, args):
        rows = _canonical_rows(np.array(args, dtype=np.float64))
        made = [RotatedBox.make(*a) for a in args]
        assert bits(rows) == bits([(b.cx, b.cy, b.w, b.h, b.theta) for b in made])

    @given(st.lists(st.tuples(*[any_value] * 6), max_size=6))
    def test_builder_raises_exactly_when_constructors_raise(self, values):
        rows = np.array([v[:5] for v in values], dtype=np.float64).reshape(-1, 5)
        scores = np.array([v[5] for v in values], dtype=np.float64)
        try:
            want = [Proposal(RotatedBox(*v[:5]), v[5]) for v in values]
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                _proposals(rows, scores)
            assert str(got.value) == str(e)
        else:
            got = _proposals(rows, scores)
            assert got == want
            assert [type(p.box.cx) for p in got] == [float] * len(got)


def three_rows():
    rows = [(1.0, 2.0, 8.0, 4.0, 0.1), (5.0, 6.0, 9.0, 3.0, -0.2), (7.0, 1.0, 6.0, 6.0, 0.0)]
    return Detections(["b", "a", "b"], rows, [0.5, 0.9, 0.7])


class TestDetections:
    def test_sequence_of_proposals(self):
        rec = three_rows()
        assert len(rec) == 3
        assert list(rec) == _proposals(rec.boxes, rec.scores)
        assert rec[1] == Proposal(RotatedBox(5.0, 6.0, 9.0, 3.0, -0.2), 0.9)
        assert rec[-1] is rec[2]
        assert rec.image_ids.tolist() == ["b", "a", "b"]

    def test_proposals_built_once_per_record(self, monkeypatch):
        rec = three_rows()
        calls = []
        build = geom._proposals
        monkeypatch.setattr(geom, "_proposals", lambda *a: calls.append(1) or build(*a))
        first = list(rec)
        assert [p is q for p, q in zip(first, rec)] == [True] * 3
        sub = rec.take([2, 0])
        assert [sub[0], sub[1]] == [first[2], first[0]] and sub[0] is first[2]
        assert len(calls) == 1

    def test_selections_share_their_base_objects(self):
        rec = three_rows()
        sub = rec.take([2, 0, 1])[1:]
        assert sub.scores.tolist() == [0.5, 0.9]
        assert sub.image_ids.tolist() == ["b", "a"]
        # iterating the selection first still yields the base record's objects
        assert [id(p) for p in sub] == [id(rec[0]), id(rec[1])]
        assert len(rec[5:]) == 0

    def test_constructor_raises_the_first_bad_row(self):
        with pytest.raises(ValueError, match="w must be the long side"):
            Detections(["a", "a"], [(0, 0, 4, 2, 0), (0, 0, 2, 4, 0)], [0.5, 0.5])
        with pytest.raises(ValueError, match="score must be finite"):
            Detections(["a"], [(0, 0, 4, 2, 0)], [math.nan])
        with pytest.raises(ValueError, match="2 image ids, 1 boxes and 1 scores"):
            Detections(["a", "b"], [(0, 0, 4, 2, 0)], [0.5])

    def test_read_only(self):
        rec = three_rows()
        for a in (rec.image_ids, rec.boxes, rec.scores, rec.take([1]).boxes):
            with pytest.raises(ValueError):
                a[0] = a[0]


class TestQuadToRotatedBox:
    def test_axis_aligned(self):
        b = quad_to_rotated_box(Quad.from_points((0, 0), (4, 0), (4, 2), (0, 2)))
        assert (b.cx, b.cy, b.w, b.h, b.theta) == (2, 1, 4, 2, 0)

    def test_diagonal_quad(self):
        # hand trace: center (0.5, 1.5), |AB| = 2 sqrt2, |AD| = sqrt2,
        # |EG| = sqrt2 < |HF| = 2 sqrt2 so the angle follows HF at pi/4
        b = quad_to_rotated_box(Quad.from_points((0, 0), (2, 2), (1, 3), (-1, 1)))
        assert b.cx == pytest.approx(0.5)
        assert b.cy == pytest.approx(1.5)
        assert b.w == pytest.approx(2 * math.sqrt(2))
        assert b.h == pytest.approx(math.sqrt(2))
        assert b.theta == pytest.approx(PI / 4)

    def test_tie_uses_hf_branch(self):
        b = quad_to_rotated_box(Quad.from_points((0, 0), (1, 0), (1, 1), (0, 1)))
        assert b.theta == 0.0

    def test_vertical_long_axis(self):
        # tall rectangle: HF is vertical, slope-based angle would blow up
        b = quad_to_rotated_box(Quad.from_points((0, 0), (0, 4), (-2, 4), (-2, 0)))
        assert b.w == pytest.approx(4)
        assert b.h == pytest.approx(2)
        assert angle_distance(b.theta, PI / 2) < 1e-12


class TestRotatedBoxToQuad:
    def test_axis_square(self):
        q = rotated_box_to_quad(RotatedBox(0, 0, 2, 2, 0))
        assert [(p.x, p.y) for p in q.vertices] == [(-1, -1), (1, -1), (1, 1), (-1, 1)]

    def test_quarter_turn_corner_set(self):
        b = RotatedBox.make(0, 0, 2, 1, PI / 2)
        got = sorted(map(tuple, np.round(box_corners(b), 9)))
        # rotate the unrotated corners by 90 degrees about the origin
        base = np.array([(-1, -0.5), (1, -0.5), (1, 0.5), (-1, 0.5)])
        expect = sorted(map(tuple, np.round(np.stack([-base[:, 1], base[:, 0]], axis=1), 9)))
        assert got == expect

    def test_round_trip_10k(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            b = random_box(rng)
            r = quad_to_rotated_box(rotated_box_to_quad(b))
            assert abs(r.cx - b.cx) < 1e-6
            assert abs(r.cy - b.cy) < 1e-6
            assert abs(r.w - b.w) < 1e-6
            assert abs(r.h - b.h) < 1e-6
            assert angle_distance(r.theta, b.theta) < 1e-6

    def test_refit_keeps_long_side_first(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            b = random_box(rng)
            r = quad_to_rotated_box(rotated_box_to_quad(b))
            assert r.w >= r.h


class TestApplyRotation:
    def test_identity_when_zero(self):
        t = AugmentTransform(640, 480, 0.0)
        p = apply_rotation(t, Point2(12.5, 99.0))
        assert (p.x, p.y) == (12.5, 99.0)

    def test_center_fixed_point_exact(self):
        for theta0 in (-PI / 2, -0.3, 0.1, 1.2):
            t = AugmentTransform(640, 480, theta0)
            p = apply_rotation(t, Point2(320.0, 240.0))
            assert (p.x, p.y) == (320.0, 240.0)

    def test_worked_example(self):
        t = AugmentTransform(4, 2, PI / 2)
        p = apply_rotation(t, Point2(4, 2))
        assert p.x == pytest.approx(3.0, abs=1e-12)
        assert p.y == pytest.approx(-1.0, abs=1e-12)

    def test_preserves_distance_to_center(self):
        rng = np.random.default_rng(5)
        t = AugmentTransform(100, 60, 0.77)
        for _ in range(1000):
            p = Point2(rng.uniform(-50, 150), rng.uniform(-50, 150))
            q = apply_rotation(t, p)
            d0 = math.hypot(p.x - 50, p.y - 30)
            d1 = math.hypot(q.x - 50, q.y - 30)
            assert abs(d0 - d1) < 1e-9

    def test_inverse_composition(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            theta0 = rng.uniform(-PI / 2, PI / 2)
            fwd = AugmentTransform(123, 77, theta0)
            bwd = AugmentTransform(123, 77, -theta0)
            p = Point2(rng.uniform(-200, 200), rng.uniform(-200, 200))
            q = apply_rotation(bwd, apply_rotation(fwd, p))
            assert abs(q.x - p.x) < 1e-9
            assert abs(q.y - p.y) < 1e-9


class TestRotateBox:
    def test_zero_angle_unchanged(self):
        b = RotatedBox(10, 20, 8, 4, 0.3)
        t = AugmentTransform(64, 64, 0.0)
        assert rotate_box(t, b) == b

    def test_matches_corner_refit(self):
        # the angle composition is pinned by rotating the corners directly
        rng = np.random.default_rng(23)
        for _ in range(500):
            b = random_box(rng)
            theta0 = rng.uniform(-PI / 2, PI / 2)
            t = AugmentTransform(400, 300, theta0)
            got = rotate_box(t, b)
            corners = [apply_rotation(t, Point2(x, y)) for x, y in box_corners(b)]
            ref = quad_to_rotated_box(Quad(tuple(corners)))
            assert got.cx == pytest.approx(ref.cx, abs=1e-8)
            assert got.cy == pytest.approx(ref.cy, abs=1e-8)
            assert got.w == pytest.approx(ref.w, abs=1e-8)
            assert got.h == pytest.approx(ref.h, abs=1e-8)
            assert angle_distance(got.theta, ref.theta) < 1e-8

    def test_center_box_angle_shift(self):
        b = RotatedBox(200, 150, 30, 10, 0.2)
        t = AugmentTransform(400, 300, PI / 4)
        r = rotate_box(t, b)
        assert (r.cx, r.cy) == pytest.approx((200, 150))
        assert angle_distance(r.theta, 0.2 - PI / 4) < 1e-12

    def test_inverse_composition(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            b = random_box(rng)
            theta0 = rng.uniform(-PI / 2, PI / 2)
            fwd = AugmentTransform(500, 500, theta0)
            bwd = AugmentTransform(500, 500, -theta0)
            r = rotate_box(bwd, rotate_box(fwd, b))
            assert abs(r.cx - b.cx) < 1e-9
            assert abs(r.cy - b.cy) < 1e-9
            assert abs(r.w - b.w) < 1e-9
            assert abs(r.h - b.h) < 1e-9
            assert angle_distance(r.theta, b.theta) < 1e-9
