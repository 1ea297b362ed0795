import math

import numpy as np
import pytest

from rboxkit.decode import (
    AnchorStats,
    DecodeParams,
    PredictionMaps,
    Proposal,
    anchor_statistics,
    decode_anchors,
    ideal_predictions,
    load_prediction_maps,
    polygon_nms,
    save_prediction_maps,
)
from rboxkit.geom import RotatedBox
from rboxkit.polyiou import iou
from rboxkit.targets import LevelSpec, generate_targets, make_levels

PI = math.pi


def level(stride=4, gw=8, gh=8, k=5.0):
    return LevelSpec(stride=stride, k=k, grid_w=gw, grid_h=gh)


def blank_maps(lv):
    shape = (lv.grid_h, lv.grid_w)
    return PredictionMaps(
        level=lv,
        location_prob=np.zeros(shape, dtype=np.float32),
        orientation=np.full(shape, 0.5, dtype=np.float32),
        shape_dw=np.zeros(shape, dtype=np.float32),
        shape_dh=np.zeros(shape, dtype=np.float32),
    )


def prop(cx, cy, w, h, theta, score):
    return Proposal(box=RotatedBox.make(cx, cy, w, h, theta), score=score)


class TestDecodeAnchors:
    def test_empty_map(self):
        assert decode_anchors(blank_maps(level())) == []

    def test_single_active_cell(self):
        maps = blank_maps(level())
        maps.location_prob[4, 3] = 0.9
        maps.orientation[4, 3] = 0.75
        out = decode_anchors(maps, DecodeParams(t_a=0.05))
        assert len(out) == 1
        p = out[0]
        assert (p.box.cx, p.box.cy) == (14.0, 18.0)
        assert p.box.w == pytest.approx(20.0, rel=1e-6)
        assert p.box.h == pytest.approx(20.0, rel=1e-6)
        assert p.box.theta == pytest.approx(PI / 4, abs=1e-6)
        assert p.score == pytest.approx(0.9)

    def test_threshold_one_blocks_everything(self):
        maps = blank_maps(level())
        maps.location_prob[:] = 1.0
        assert decode_anchors(maps, DecodeParams(t_a=1.0)) == []

    def test_threshold_is_strict(self):
        maps = blank_maps(level())
        maps.location_prob[0, 0] = 0.05
        maps.location_prob[0, 1] = 0.06
        out = decode_anchors(maps, DecodeParams(t_a=0.05))
        assert len(out) == 1
        assert out[0].box.cx == 6.0

    def test_sorted_and_truncated(self):
        maps = blank_maps(level())
        maps.location_prob[0, 0] = 0.3
        maps.location_prob[1, 1] = 0.9
        maps.location_prob[2, 2] = 0.6
        out = decode_anchors(maps, DecodeParams(t_a=0.1))
        assert [p.score for p in out] == pytest.approx([0.9, 0.6, 0.3])

    def test_monotone_threshold_sets(self):
        rng = np.random.default_rng(31)
        maps = blank_maps(level(gw=16, gh=16))
        maps.location_prob[:] = rng.random((16, 16), dtype=np.float32)
        counts = [len(decode_anchors(maps, DecodeParams(t_a=t))) for t in (0.0, 0.01, 0.05, 0.1)]
        assert counts == sorted(counts, reverse=True)
        lo = {(p.box.cx, p.box.cy) for p in decode_anchors(maps, DecodeParams(t_a=0.6))}
        hi = {(p.box.cx, p.box.cy) for p in decode_anchors(maps, DecodeParams(t_a=0.2))}
        assert lo <= hi

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        maps = blank_maps(level(gw=12, gh=12))
        maps.location_prob[:] = rng.random((12, 12), dtype=np.float32)
        maps.orientation[:] = rng.random((12, 12), dtype=np.float32)
        a = decode_anchors(maps, DecodeParams(t_a=0.5))
        b = decode_anchors(maps, DecodeParams(t_a=0.5))
        assert a == b


class TestPolygonNms:
    def test_single_proposal(self):
        p = prop(0, 0, 10, 5, 0.2, 0.7)
        assert polygon_nms([p], 0.3) == [p]

    def test_duplicate_suppressed(self):
        a = prop(0, 0, 10, 5, 0.0, 0.9)
        b = prop(0, 0, 10, 5, 0.0, 0.8)
        assert polygon_nms([a, b], 0.3) == [a]

    def test_disjoint_kept_in_score_order(self):
        a = prop(0, 0, 10, 5, 0.0, 0.8)
        b = prop(100, 100, 10, 5, 0.0, 0.9)
        assert polygon_nms([a, b], 0.3) == [b, a]

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        props = [
            prop(
                rng.uniform(0, 60),
                rng.uniform(0, 60),
                rng.uniform(5, 30),
                rng.uniform(3, 20),
                rng.uniform(-PI / 2, PI / 2 - 1e-6),
                float(rng.random()),
            )
            for _ in range(60)
        ]
        once = polygon_nms(props, 0.3)
        twice = polygon_nms(once, 0.3)
        assert once == twice

    def test_no_surviving_overlap(self):
        rng = np.random.default_rng(43)
        props = [
            prop(
                rng.uniform(0, 40),
                rng.uniform(0, 40),
                rng.uniform(5, 25),
                rng.uniform(3, 15),
                rng.uniform(-PI / 2, PI / 2 - 1e-6),
                float(rng.random()),
            )
            for _ in range(50)
        ]
        kept = polygon_nms(props, 0.3)
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert iou(kept[i].box, kept[j].box) <= 0.3

    def test_discarded_dominated_by_a_kept(self):
        rng = np.random.default_rng(47)
        props = [
            prop(
                rng.uniform(0, 40),
                rng.uniform(0, 40),
                rng.uniform(5, 25),
                rng.uniform(3, 15),
                rng.uniform(-PI / 2, PI / 2 - 1e-6),
                float(rng.random()),
            )
            for _ in range(50)
        ]
        kept = polygon_nms(props, 0.3)
        dropped = [p for p in props if p not in kept]
        for d in dropped:
            assert any(
                k.score >= d.score and iou(k.box, d.box) > 0.3 for k in kept
            )


class TestAnchorStatistics:
    def test_empty(self):
        st = anchor_statistics([], 100)
        assert st.count == 0
        assert st.fraction == 0.0
        assert st.aspect_log2_hist[0].sum() == 0

    def test_fraction(self):
        props = [prop(i * 30.0, 0, 10, 5, 0.0, 0.5) for i in range(100)]
        st = anchor_statistics(props, 10_000)
        assert st.fraction == pytest.approx(0.01)

    def test_aspect_mass_at_log2_one(self):
        props = [prop(0, 0, 12, 6, 0.1, 0.5) for _ in range(20)]
        st = anchor_statistics(props, 100)
        counts, edges = st.aspect_log2_hist
        bin_of_one = np.searchsorted(edges, 1.0, side="right") - 1
        assert counts[bin_of_one] == 20
        assert counts.sum() == 20


class TestPredictionMapsIo:
    def test_round_trip(self, tmp_path):
        levels = make_levels(96, 64)
        target = generate_targets([RotatedBox(40, 30, 30, 16, 0.4)], levels)[1]
        maps = ideal_predictions(target)
        p = tmp_path / "maps.pmap"
        save_prediction_maps(maps, p)
        back = load_prediction_maps(p)
        assert back.level.stride == maps.level.stride
        assert np.array_equal(back.location_prob, maps.location_prob)
        assert np.array_equal(back.orientation, maps.orientation)
        assert np.array_equal(back.shape_dw, maps.shape_dw)
        assert np.array_equal(back.shape_dh, maps.shape_dh)

    def test_target_magic_rejected(self, tmp_path):
        levels = make_levels(32, 32)
        from rboxkit.targets import save_target_maps

        target = generate_targets([RotatedBox(16, 16, 20, 10, 0.0)], levels)[0]
        p = tmp_path / "t.tmap"
        save_target_maps(target, p)
        with pytest.raises(ValueError, match="magic"):
            load_prediction_maps(p)

    def test_invalid_probabilities_rejected(self):
        lv = level()
        shape = (lv.grid_h, lv.grid_w)
        with pytest.raises(ValueError):
            PredictionMaps(
                level=lv,
                location_prob=np.full(shape, 1.5, dtype=np.float32),
                orientation=np.full(shape, 0.5, dtype=np.float32),
                shape_dw=np.zeros(shape, dtype=np.float32),
                shape_dh=np.zeros(shape, dtype=np.float32),
            )


class TestIdealRoundTrip:
    def test_isolated_box_recovered(self):
        levels = make_levels(256, 256)
        gt = RotatedBox(128, 128, 80, 40, 0.5)
        best = 0.0
        for target in generate_targets([gt], levels):
            for p in decode_anchors(ideal_predictions(target), DecodeParams(t_a=0.05)):
                best = max(best, iou(p.box, gt))
        assert best >= 0.5
