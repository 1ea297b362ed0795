import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rboxkit.geom import RotatedBox, angle_to_unit
from rboxkit.polyiou import iou
from rboxkit.targets import (
    LOC_IGNORE,
    LOC_NEGATIVE,
    LOC_POSITIVE,
    LevelSpec,
    ShapeCandidateSet,
    ShrinkParams,
    _aligned_iou,
    _cells_in_box_frame,
    assign_level,
    box_delta_decode,
    box_delta_encode,
    cell_center,
    enumerate_candidates,
    generate_targets,
    load_target_maps,
    make_levels,
    save_target_maps,
    shape_decode,
    shape_encode,
)

PI = math.pi


def level(stride, gw=32, gh=32, k=5.0, long_ratios=False):
    return LevelSpec(stride=stride, k=k, grid_w=gw, grid_h=gh, long_ratios_enabled=long_ratios)


def loop_targets(gts, levels, shrink=ShrinkParams(), candidates=ShapeCandidateSet()):
    """Reference: per level, the location grid and the shape grids from one
    _aligned_iou call per positive cell, kept while the IoU strictly rises."""
    shapes = [(lv.grid_h, lv.grid_w) for lv in levels]
    cov = [np.zeros(s, bool) for s in shapes]
    pos = [np.zeros(s, bool) for s in shapes]
    dw = [np.zeros(s, np.float32) for s in shapes]
    dh = [np.zeros(s, np.float32) for s in shapes]
    best = [np.full(s, -1.0) for s in shapes]
    for gt in gts:
        if gt.w < 1.0 or gt.h < 1.0:
            continue
        n = levels.index(assign_level(gt, levels))
        window = _cells_in_box_frame(levels[n], gt)
        if window is None:
            continue
        i0, j0, u, v = window
        jj, ii = np.nonzero((np.abs(u) < gt.w / 2.0) & (np.abs(v) < gt.h / 2.0))
        cov[n][jj + j0, ii + i0] = True
        core = (np.abs(u) < shrink.sigma1 * gt.w / 2.0) & (np.abs(v) < shrink.sigma2 * gt.h / 2.0)
        cand = np.array(enumerate_candidates(levels[n], candidates))
        cw, ch = cand[:, 0], cand[:, 1]
        for cj, ci in zip(*np.nonzero(core)):
            ious = _aligned_iou(u[cj, ci], v[cj, ci], cw, ch, gt.w, gt.h)
            k = int(np.argmax(ious))
            gj, gi = cj + j0, ci + i0
            pos[n][gj, gi] = True
            if ious[k] > best[n][gj, gi]:
                best[n][gj, gi] = ious[k]
                dw[n][gj, gi], dh[n][gj, gi] = shape_encode(cw[k], ch[k], levels[n])
    location = [
        np.where(p, LOC_POSITIVE, np.where(c, LOC_IGNORE, LOC_NEGATIVE)).astype(np.uint8) for c, p in zip(cov, pos)
    ]
    return list(zip(location, dw, dh))


@st.composite
def clustered_scenes(draw):
    """1-3 clusters of boxes with exact and near-exact duplicates, some under one pixel."""
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        cx, cy = draw(st.floats(0, 128)), draw(st.floats(0, 128))
        for _ in range(draw(st.integers(1, 5))):
            b = RotatedBox.make(
                cx + draw(st.floats(-12, 12)),
                cy + draw(st.floats(-12, 12)),
                draw(st.floats(0.5, 100)),
                draw(st.floats(0.5, 40)),
                draw(st.floats(-PI / 2, PI / 2)),
            )
            boxes.append(b)
            boxes.extend([b] * draw(st.integers(0, 2)))
            if draw(st.booleans()):
                boxes.append(RotatedBox(b.cx + 1e-9, b.cy, b.w, b.h, b.theta))
    return boxes


class TestShapeCodec:
    def test_zero_offsets(self):
        assert shape_decode(0.0, 0.0, level(4)) == (20.0, 20.0)

    def test_log_two(self):
        w, h = shape_decode(math.log(2), 0.0, level(4))
        assert w == pytest.approx(40.0)
        assert h == pytest.approx(20.0)

    def test_encode_values(self):
        assert shape_encode(20, 20, level(4)) == (0.0, 0.0)
        assert shape_encode(160, 160, level(32))[0] == 0.0
        assert shape_encode(500, 500, level(16))[0] == pytest.approx(math.log(6.25))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        lv = level(8)
        for _ in range(10_000):
            w, h = rng.uniform(0.5, 500.0, size=2)
            dw, dh = shape_encode(w, h, lv)
            w2, h2 = shape_decode(dw, dh, lv)
            assert abs(w2 - w) < 1e-12 * max(1.0, w)
            assert abs(h2 - h) < 1e-12 * max(1.0, h)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shape_encode(0.0, 10.0, level(4))


class TestCellCenter:
    def test_origin_cell(self):
        p = cell_center(0, 0, level(4))
        assert (p.x, p.y) == (2.0, 2.0)

    def test_interior_cell(self):
        p = cell_center(3, 4, level(4))
        assert (p.x, p.y) == (14.0, 18.0)

    def test_large_stride(self):
        p = cell_center(0, 0, level(32))
        assert (p.x, p.y) == (16.0, 16.0)

    def test_out_of_grid(self):
        with pytest.raises(ValueError):
            cell_center(32, 0, level(4, gw=32))


class TestAssignLevel:
    LEVELS = [level(4), level(8), level(16), level(32)]

    def test_exact_match_small(self):
        assert assign_level(RotatedBox(0, 0, 20, 20, 0), self.LEVELS).stride == 4

    def test_exact_match_large(self):
        assert assign_level(RotatedBox(0, 0, 160, 160, 0), self.LEVELS).stride == 32

    def test_tie_prefers_smaller_stride(self):
        # geometric midpoint between the 20 and 40 base sizes
        size = math.sqrt(20 * 40)
        assert assign_level(RotatedBox(0, 0, size, size, 0), self.LEVELS).stride == 4

    def test_empty_levels(self):
        with pytest.raises(ValueError):
            assign_level(RotatedBox(0, 0, 10, 10, 0), [])


class TestEnumerateCandidates:
    def test_counts_without_long(self):
        out = enumerate_candidates(level(16), ShapeCandidateSet())
        assert len(out) == 12

    def test_counts_with_long(self):
        out = enumerate_candidates(level(4, long_ratios=True), ShapeCandidateSet())
        assert len(out) == 24

    def test_values(self):
        out = enumerate_candidates(level(4), ShapeCandidateSet(scales=(8.0,), ratios=(4.0,)))
        (w, h), = out
        assert w == pytest.approx(64.0)
        assert h == pytest.approx(16.0)

    def test_ratio_and_area_preserved(self):
        for w, h in enumerate_candidates(level(8, long_ratios=True), ShapeCandidateSet()):
            assert w >= h


class TestGenerateTargets:
    def test_positive_cells_of_worked_example(self):
        lv = level(4, gw=8, gh=8)
        gt = RotatedBox(16, 16, 16, 10, 0.0)
        maps, = generate_targets([gt], [lv], ShrinkParams(0.4, 0.5))
        pos = np.argwhere(maps.location == LOC_POSITIVE)
        centers = sorted(((i + 0.5) * 4, (j + 0.5) * 4) for j, i in pos)
        assert centers == [(14.0, 14.0), (14.0, 18.0), (18.0, 14.0), (18.0, 18.0)]

    def test_ignore_ring_inside_full_box(self):
        lv = level(4, gw=8, gh=8)
        gt = RotatedBox(16, 16, 16, 10, 0.0)
        maps, = generate_targets([gt], [lv])
        ign = np.argwhere(maps.location == LOC_IGNORE)
        for j, i in ign:
            x, y = (i + 0.5) * 4, (j + 0.5) * 4
            assert abs(x - 16) < 8 and abs(y - 16) < 5

    def test_orientation_constant_for_flat_boxes(self):
        lv = level(4, gw=16, gh=16)
        gts = [RotatedBox(20, 20, 16, 10, 0.0), RotatedBox(44, 44, 18, 12, 0.0)]
        maps, = generate_targets(gts, [lv])
        covered = maps.location != LOC_NEGATIVE
        assert covered.any()
        assert np.allclose(maps.orientation[covered], 0.5)

    def test_orientation_averages_overlaps(self):
        lv = level(4, gw=16, gh=16)
        a = RotatedBox(32, 32, 40, 30, 0.0)
        b = RotatedBox(32, 32, 40, 30, PI / 4)
        maps, = generate_targets([a, b], [lv])
        overlap_mean = (angle_to_unit(0.0) + angle_to_unit(PI / 4)) / 2
        # the normalization is affine, so the normalized mean is the
        # normalized mean angle
        assert overlap_mean == pytest.approx(angle_to_unit((0.0 + PI / 4) / 2))
        both = (np.abs(maps.orientation - overlap_mean) < 1e-6) & (
            maps.location != LOC_NEGATIVE
        )
        assert both.any()

    def test_wrap_straddling_overlap_warns(self):
        lv = level(4, gw=16, gh=16)
        a = RotatedBox(32, 32, 40, 30, 1.5)
        b = RotatedBox(32, 32, 40, 30, -1.5)
        with pytest.warns(UserWarning, match="wrap"):
            generate_targets([a, b], [lv])

    def test_cells_outside_all_boxes_negative(self):
        lv = level(4, gw=16, gh=16)
        gt = RotatedBox(30, 30, 20, 12, 0.4)
        maps, = generate_targets([gt], [lv])
        c, s = math.cos(gt.theta), math.sin(gt.theta)
        for j, i in np.argwhere(maps.location == LOC_NEGATIVE):
            x, y = (i + 0.5) * 4, (j + 0.5) * 4
            u = (x - gt.cx) * c + (y - gt.cy) * s
            v = (y - gt.cy) * c - (x - gt.cx) * s
            assert abs(u) >= gt.w / 2 - 1e-9 or abs(v) >= gt.h / 2 - 1e-9

    def test_shape_target_exact_candidate(self):
        # a box matching candidate scale 8 exactly, centered on a cell
        # center, stores that candidate (IoU 1 there) at every positive cell
        lv = level(4, gw=16, gh=16)
        gt = RotatedBox(30, 30, 32, 32, 0.0)
        maps, = generate_targets([gt], [lv])
        valid = np.argwhere(maps.shape_valid)
        assert len(valid)
        want = math.log(32 / 20)
        for j, i in valid:
            assert maps.shape_dw[j, i] == pytest.approx(want, abs=1e-6)
            assert maps.shape_dh[j, i] == pytest.approx(want, abs=1e-6)

    def test_shape_target_is_argmax_of_candidates(self):
        # exhaustive check against the exact polygon kernel
        rng = np.random.default_rng(11)
        levels = [level(4, 24, 24), level(8, 12, 12), level(16, 6, 6), level(32, 3, 3)]
        cands = ShapeCandidateSet()
        for _ in range(10):
            w = rng.uniform(16, 80)
            h = rng.uniform(12, w)
            gt = RotatedBox(48, 48, w, h, rng.uniform(-PI / 2, PI / 2 - 1e-6))
            out = generate_targets([gt], levels, candidates=cands)
            lv_idx = levels.index(assign_level(gt, levels))
            maps = out[lv_idx]
            cand = enumerate_candidates(levels[lv_idx], cands)
            for j, i in np.argwhere(maps.shape_valid):
                cx, cy = (i + 0.5) * maps.level.stride, (j + 0.5) * maps.level.stride
                stored_w, stored_h = shape_decode(
                    maps.shape_dw[j, i], maps.shape_dh[j, i], maps.level
                )
                stored = iou(RotatedBox.make(cx, cy, stored_w, stored_h, gt.theta), gt)
                # 1e-6 slack: equal-IoU candidate ties evaluate through two
                # different float routes here
                for cw, ch in cand:
                    other = iou(RotatedBox.make(cx, cy, cw, ch, gt.theta), gt)
                    assert other <= stored + 1e-6

    def test_positive_centers_inside_gt(self):
        rng = np.random.default_rng(13)
        levels = make_levels(256, 256)
        for _ in range(20):
            w = rng.uniform(20, 120)
            h = rng.uniform(15, w)
            gt = RotatedBox(
                rng.uniform(80, 176), rng.uniform(80, 176), w, h, rng.uniform(-PI / 2, PI / 2 - 1e-6)
            )
            for maps in generate_targets([gt], levels):
                c, s = math.cos(gt.theta), math.sin(gt.theta)
                for j, i in np.argwhere(maps.location == LOC_POSITIVE):
                    x, y = (i + 0.5) * maps.level.stride, (j + 0.5) * maps.level.stride
                    u = (x - gt.cx) * c + (y - gt.cy) * s
                    v = (y - gt.cy) * c - (x - gt.cx) * s
                    assert abs(u) < gt.w / 2 and abs(v) < gt.h / 2

    def test_shrink_monotonicity(self):
        rng = np.random.default_rng(17)
        levels = make_levels(256, 256)
        for _ in range(10):
            gt = RotatedBox(
                rng.uniform(64, 192),
                rng.uniform(64, 192),
                rng.uniform(30, 100),
                rng.uniform(20, 30),
                rng.uniform(-PI / 2, PI / 2 - 1e-6),
            )
            loose = generate_targets([gt], levels, ShrinkParams(0.5, 0.6))
            tight = generate_targets([gt], levels, ShrinkParams(0.3, 0.4))
            for lo, ti in zip(loose, tight):
                ti_pos = ti.location == LOC_POSITIVE
                lo_pos = lo.location == LOC_POSITIVE
                assert np.all(lo_pos[ti_pos])

    def test_positive_overrides_ignore(self):
        lv = level(4, gw=16, gh=16)
        a = RotatedBox(32, 32, 30, 20, 0.0)
        b = RotatedBox(34, 32, 30, 20, 0.0)
        maps, = generate_targets([a, b], [lv])
        # cells positive for either box must end positive even where the
        # other box only covers them
        singles = [generate_targets([g], [lv])[0] for g in (a, b)]
        pos_union = (singles[0].location == LOC_POSITIVE) | (singles[1].location == LOC_POSITIVE)
        assert np.array_equal(maps.location == LOC_POSITIVE, pos_union)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(clustered_scenes())
    def test_matches_per_cell_loop(self, gts):
        levels = make_levels(128, 128)
        for maps, (location, dw, dh) in zip(generate_targets(gts, levels), loop_targets(gts, levels)):
            assert maps.location.tobytes() == location.tobytes()
            assert np.array_equal(maps.shape_valid, location == LOC_POSITIVE)
            assert maps.shape_dw.tobytes() == dw.tobytes()
            assert maps.shape_dh.tobytes() == dh.tobytes()

    def test_shared_cell_goes_to_higher_iou_in_either_order(self):
        # a matches the scale-8 square candidate exactly at cell (7, 7), whose
        # center (30, 30) is a's own; b covers that cell at a lower best IoU
        lv = level(4, gw=16, gh=16)
        a = RotatedBox(30, 30, 32, 32, 0.0)
        b = RotatedBox(34, 30, 40, 20, 0.3)
        ab, = generate_targets([a, b], [lv])
        ba, = generate_targets([b, a], [lv])
        alone, = generate_targets([b], [lv])
        assert alone.shape_valid[7, 7]
        assert alone.shape_dw[7, 7] != np.float32(math.log(32 / 20))
        for maps in (ab, ba):
            assert maps.shape_dw[7, 7] == maps.shape_dh[7, 7] == np.float32(math.log(32 / 20))
        assert np.array_equal(ab.shape_dw, ba.shape_dw)
        assert np.array_equal(ab.shape_dh, ba.shape_dh)

    def test_shared_cell_tie_goes_to_earlier_box(self):
        # both boxes match a candidate exactly at their common center (30, 30):
        # IoU 1 each, with different candidates, so input order decides
        lv = level(4, gw=16, gh=16)
        flat = RotatedBox(30, 30, 64, 16, 0.0)
        square = RotatedBox(30, 30, 32, 32, 0.0)
        for first, want in ((flat, (64, 16)), (square, (32, 32))):
            maps, = generate_targets([first, square if first is flat else flat], [lv])
            got = (maps.shape_dw[7, 7], maps.shape_dh[7, 7])
            assert got == tuple(np.float32(math.log(x / 20)) for x in want)

    def test_tiny_box_warned_and_skipped(self):
        lv = level(4, gw=8, gh=8)
        with pytest.warns(UserWarning, match="skipped"):
            maps, = generate_targets([RotatedBox(16, 16, 4, 0.5, 0.0)], [lv])
        assert not (maps.location != LOC_NEGATIVE).any()

    def test_no_boxes_all_negative(self):
        maps = generate_targets([], make_levels(64, 64))
        for m in maps:
            assert not (m.location != LOC_NEGATIVE).any()
            assert not m.shape_valid.any()


class TestBoxDeltaCodec:
    def test_identity(self):
        b = RotatedBox(3, 4, 20, 10, 0.2)
        assert box_delta_encode(b, b) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_worked_example(self):
        anchor = RotatedBox(0, 0, 20, 10, 0)
        gt = RotatedBox(2, 1, 40, 10, 0)
        tx, ty, tw, th, tth = box_delta_encode(gt, anchor)
        assert (tx, ty) == pytest.approx((0.1, 0.1))
        assert tw == pytest.approx(math.log(2))
        assert (th, tth) == (0.0, 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            def rb():
                w = rng.uniform(5, 100)
                return RotatedBox(
                    rng.uniform(-50, 50),
                    rng.uniform(-50, 50),
                    w,
                    rng.uniform(1, w),
                    rng.uniform(-PI / 2, PI / 2 - 1e-9),
                )

            gt, anchor = rb(), rb()
            back = box_delta_decode(box_delta_encode(gt, anchor), anchor)
            assert abs(back.cx - gt.cx) < 1e-9
            assert abs(back.cy - gt.cy) < 1e-9
            assert abs(back.w - gt.w) < 1e-9
            assert abs(back.h - gt.h) < 1e-9
            assert abs(back.theta - gt.theta) < 1e-9


class TestSerialization:
    def test_round_trip(self, tmp_path):
        levels = make_levels(128, 96)
        gts = [RotatedBox(40, 40, 30, 18, 0.3), RotatedBox(90, 60, 60, 25, -0.7)]
        for maps in generate_targets(gts, levels):
            p = tmp_path / f"lv{maps.level.stride}.tmap"
            save_target_maps(maps, p)
            back = load_target_maps(p)
            assert back.level.stride == maps.level.stride
            assert back.level.k == maps.level.k
            assert np.array_equal(back.location, maps.location)
            assert np.array_equal(back.shape_valid, maps.shape_valid)
            assert np.allclose(back.shape_dw, maps.shape_dw)
            assert np.allclose(back.shape_dh, maps.shape_dh)
            cov = back.location != LOC_NEGATIVE
            assert np.allclose(back.orientation[cov], maps.orientation[cov])
            assert np.all(np.isnan(back.orientation[~cov]))

    def test_deterministic_bytes(self, tmp_path):
        lv = make_levels(64, 64)
        gts = [RotatedBox(32, 32, 24, 12, 0.1)]
        a, b = tmp_path / "a", tmp_path / "b"
        save_target_maps(generate_targets(gts, lv)[0], a)
        save_target_maps(generate_targets(gts, lv)[0], b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.tmap"
        p.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            load_target_maps(p)

    def test_truncated_rejected(self, tmp_path):
        levels = make_levels(32, 32)
        maps = generate_targets([RotatedBox(16, 16, 20, 12, 0.0)], levels)[0]
        p = tmp_path / "t.tmap"
        save_target_maps(maps, p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(ValueError):
            load_target_maps(p)
