import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rboxkit import polyiou
from rboxkit.decode import (
    AnchorStats,
    PredictionMaps,
    anchor_statistics,
    decode_anchors,
    ideal_predictions,
    load_prediction_maps,
    polygon_nms,
    save_prediction_maps,
)
from rboxkit.formats import group_detections_by_image
from rboxkit.geom import Proposal, RotatedBox, unit_to_angle
from rboxkit.polyiou import iou
from records import pairs, record
from rboxkit.targets import LevelSpec, cell_center, generate_targets, make_levels, shape_decode

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


def loop_decode(maps, t_a=0.05):
    """Reference: one cell at a time through the scalar codec and the box constructors."""
    lv = maps.level
    proposals = []
    for i, j in np.argwhere((maps.location_prob > t_a).T):
        p = cell_center(int(i), int(j), lv)
        w, h = shape_decode(float(maps.shape_dw[j, i]), float(maps.shape_dh[j, i]), lv)
        theta = unit_to_angle(float(maps.orientation[j, i]))
        box = RotatedBox.make(p.x, p.y, w, h, theta)
        proposals.append(Proposal(box=box, score=float(maps.location_prob[j, i])))
    proposals.sort(key=lambda pr: -pr.score)
    return proposals


def fields(proposals):
    """Every stored float of each proposal as its bit pattern."""
    rows = [(p.box.cx, p.box.cy, p.box.w, p.box.h, p.box.theta, p.score) for p in proposals]
    return np.array(rows, dtype=np.float64).reshape(-1, 6).view(np.int64).tolist()


def random_maps(rng, lv, active=0.3):
    """Maps with ties, w < h cells, orientations of exactly 0 and 1, and scores on a coarse grid."""
    shape = (lv.grid_h, lv.grid_w)
    prob = np.where(rng.random(shape) < active, rng.integers(1, 9, shape) / 8, 0.0)
    orientation = rng.random(shape)
    orientation[rng.random(shape) < 0.2] = 0.0
    orientation[rng.random(shape) < 0.2] = 1.0
    return PredictionMaps(
        level=lv,
        location_prob=prob.astype(np.float32),
        orientation=orientation.astype(np.float32),
        shape_dw=rng.normal(0.0, 1.0, shape).astype(np.float32),
        shape_dh=rng.normal(0.0, 1.0, shape).astype(np.float32),
    )


def cli_order(per_level):
    """Levels concatenated by stride and sorted by score, as ``rboxkit decode`` merges them."""
    merged = [p for props in per_level for p in props]
    merged.sort(key=lambda p: -p.score)
    return merged


class TestDecodeMatchesCellLoop:
    def test_random_levels(self):
        rng = np.random.default_rng(61)
        for trial in range(20):
            levels = [level(stride=s, gw=int(rng.integers(1, 30)), gh=int(rng.integers(1, 30))) for s in (4, 8, 16)]
            maps = [random_maps(rng, lv) for lv in levels]
            # t_a equal to a probability present in the maps: those cells stay off
            t_a = float(rng.choice([0.0, 0.125, 0.5, 0.875, 1.0]))
            got = [decode_anchors(m, t_a) for m in maps]
            want = [loop_decode(m, t_a) for m in maps]
            for g, w in zip(got, want):
                assert fields(g) == fields(w)
                assert list(g) == w
            assert fields(cli_order(got)) == fields(cli_order(want))

    def test_w_below_h_and_orientation_bounds(self):
        maps = blank_maps(level(gw=4, gh=1))
        maps.location_prob[:] = 0.5
        maps.orientation[0] = [0.0, 1.0, 0.0, 1.0]
        maps.shape_dw[0] = [0.0, 0.0, -1.0, -1.0]
        maps.shape_dh[0] = [1.0, 1.0, 0.0, 0.0]
        got = decode_anchors(maps)
        assert fields(got) == fields(loop_decode(maps))
        assert all(p.box.w > p.box.h for p in got)

    def test_dense_map(self):
        rng = np.random.default_rng(67)
        maps = random_maps(rng, level(gw=64, gh=48), active=1.0)
        assert fields(decode_anchors(maps, 0.0)) == fields(loop_decode(maps, 0.0))

    @pytest.mark.parametrize(
        "grid, value, message",
        [
            ("shape_dw", np.nan, "shape offsets must be finite"),
            ("shape_dh", -np.inf, "shape offsets must be finite"),
            ("shape_dw", 1000.0, "overflow the box size"),
            ("shape_dh", 709.0, "w must be finite, got inf"),
            ("shape_dw", -800.0, "sides must be positive, got h=0.0"),
            ("orientation", 1.5, "normalized orientation 1.5 outside"),
            ("location_prob", np.inf, "score must be finite, got inf"),
        ],
    )
    def test_first_bad_cell_in_cell_order_raises_its_error(self, grid, value, message):
        # a second bad cell later in (i, j) order, of another kind, must not be the one reported
        maps = blank_maps(level(gw=6, gh=5))
        maps.location_prob[:] = 0.5
        getattr(maps, grid)[3, 1] = value
        maps.shape_dw[0, 4] = -800.0
        maps.orientation[4, 4] = np.nan
        with pytest.raises(ValueError) as want:
            loop_decode(maps)
        with pytest.raises(ValueError, match=message) as got:
            decode_anchors(maps)
        assert str(got.value) == str(want.value)

    def test_cell_with_two_faults_raises_its_first_step(self):
        maps = blank_maps(level(gw=3, gh=3))
        maps.location_prob[1, 1] = np.inf
        maps.orientation[1, 1] = 2.0
        with pytest.raises(ValueError, match="normalized orientation 2.0 outside"):
            decode_anchors(maps)
        maps.shape_dh[1, 1] = 1000.0
        with pytest.raises(ValueError, match="overflow the box size"):
            decode_anchors(maps)


class TestDecodeAnchors:
    def test_empty_map(self):
        assert list(decode_anchors(blank_maps(level()))) == []

    def test_single_active_cell(self):
        maps = blank_maps(level())
        maps.location_prob[4, 3] = 0.9
        maps.orientation[4, 3] = 0.75
        out = decode_anchors(maps, t_a=0.05)
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
        assert list(decode_anchors(maps, t_a=1.0)) == []

    def test_threshold_is_strict(self):
        maps = blank_maps(level())
        maps.location_prob[0, 0] = 0.05
        maps.location_prob[0, 1] = 0.06
        out = decode_anchors(maps, t_a=0.05)
        assert len(out) == 1
        assert out[0].box.cx == 6.0

    def test_sorted_and_truncated(self):
        maps = blank_maps(level())
        maps.location_prob[0, 0] = 0.3
        maps.location_prob[1, 1] = 0.9
        maps.location_prob[2, 2] = 0.6
        out = decode_anchors(maps, t_a=0.1)
        assert [p.score for p in out] == pytest.approx([0.9, 0.6, 0.3])

    def test_monotone_threshold_sets(self):
        rng = np.random.default_rng(31)
        maps = blank_maps(level(gw=16, gh=16))
        maps.location_prob[:] = rng.random((16, 16), dtype=np.float32)
        counts = [len(decode_anchors(maps, t_a=t)) for t in (0.0, 0.01, 0.05, 0.1)]
        assert counts == sorted(counts, reverse=True)
        lo = {(p.box.cx, p.box.cy) for p in decode_anchors(maps, t_a=0.6)}
        hi = {(p.box.cx, p.box.cy) for p in decode_anchors(maps, t_a=0.2)}
        assert lo <= hi

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        maps = blank_maps(level(gw=12, gh=12))
        maps.location_prob[:] = rng.random((12, 12), dtype=np.float32)
        maps.orientation[:] = rng.random((12, 12), dtype=np.float32)
        a = decode_anchors(maps, t_a=0.5)
        b = decode_anchors(maps, t_a=0.5)
        assert list(a) == list(b)

    @pytest.mark.parametrize("t_a", [-0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, t_a):
        with pytest.raises(ValueError, match=r"t_a must lie in \[0, 1\]"):
            decode_anchors(blank_maps(level()), t_a=t_a)


def loop_nms(proposals, thr):
    """Reference: the greedy loop with one scalar iou call per pair."""
    order = sorted(range(len(proposals)), key=lambda k: -proposals[k].score)
    alive = [True] * len(proposals)
    kept = []
    for idx in order:
        if not alive[idx]:
            continue
        kept.append(idx)
        alive[idx] = False
        for jdx in order:
            if alive[jdx] and iou(proposals[idx].box, proposals[jdx].box) > thr:
                alive[jdx] = False
    return [proposals[k] for k in kept]


@st.composite
def clustered_proposals(draw):
    """1-3 clusters of overlapping boxes, scores on a coarse grid (ties), some exact duplicates."""
    props = []
    for _ in range(draw(st.integers(1, 3))):
        cx, cy = draw(st.floats(0, 80)), draw(st.floats(0, 80))
        for _ in range(draw(st.integers(1, 8))):
            props.append(
                prop(
                    cx + draw(st.floats(-8, 8)),
                    cy + draw(st.floats(-8, 8)),
                    draw(st.floats(4, 30)),
                    draw(st.floats(2, 15)),
                    draw(st.floats(-PI / 2, PI / 2, exclude_max=True)),
                    draw(st.integers(0, 4)) / 4,
                )
            )
    copies = draw(st.lists(st.integers(0, len(props) - 1), max_size=3))
    return props + [props[k] for k in copies]


@st.composite
def clusters_with_copies(draw):
    """Clustered proposals plus copies of some of their boxes: shifted along one of the
    box's axes, nested in it, identical, touching it, or turned by a small angle."""
    props = draw(clustered_proposals())
    for p in draw(st.lists(st.sampled_from(props), max_size=6)):
        b = p.box
        along_w = draw(st.booleans())
        side = b.w if along_w else b.h
        c, s = math.cos(b.theta), math.sin(b.theta)
        ux, uy = (c, s) if along_w else (-s, c)
        kind = draw(st.sampled_from(["shifted", "nested", "identical", "touching", "turned"]))
        d = {"shifted": draw(st.floats(0.0, 1.5)) * side, "touching": side}.get(kind, 0.0)
        k = draw(st.floats(0.2, 1.0)) if kind == "nested" else 1.0
        turn = draw(st.floats(-1e-3, 1e-3)) if kind == "turned" else 0.0
        score = draw(st.integers(0, 4)) / 4
        props.append(prop(b.cx + d * ux, b.cy + d * uy, k * b.w, k * b.h, b.theta + turn, score))
    return props


class TestPolygonNms:
    def test_single_proposal(self):
        p = prop(0, 0, 10, 5, 0.2, 0.7)
        assert list(polygon_nms(record([p]), 0.3)) == [p]

    def test_duplicate_suppressed(self):
        a = prop(0, 0, 10, 5, 0.0, 0.9)
        b = prop(0, 0, 10, 5, 0.0, 0.8)
        assert list(polygon_nms(record([a, b]), 0.3)) == [a]

    def test_disjoint_kept_in_score_order(self):
        a = prop(0, 0, 10, 5, 0.0, 0.8)
        b = prop(100, 100, 10, 5, 0.0, 0.9)
        assert list(polygon_nms(record([a, b]), 0.3)) == [b, a]

    def test_images_never_suppress_each_other(self):
        # one box under four rows: each image keeps its best row, and "a\x00" is not "a"
        p, q = prop(0, 0, 10, 5, 0.2, 0.9), prop(0, 0, 10, 5, 0.2, 0.8)
        kept = polygon_nms(record([q, p, p, q], ["b", "a", "a\x00", "a"]), 0.3)
        assert pairs(kept) == [("a", p), ("a\x00", p), ("b", q)]

    @given(st.data(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_many_images_equal_one_call_per_image(self, data, thr):
        props = data.draw(clusters_with_copies())
        ids = data.draw(st.lists(st.sampled_from(["a", "a\x00", "b", ""]), min_size=len(props), max_size=len(props)))
        rec = record(props, ids)
        groups = group_detections_by_image(rec)
        want = [p for image_id in sorted(groups) for p in polygon_nms(groups[image_id], thr)]
        kept = polygon_nms(rec, thr)
        # the same rows, and a selection of the record: the same objects
        assert [id(p) for p in kept] == [id(p) for p in want]
        assert kept.image_ids.tolist() == sorted(kept.image_ids.tolist())

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
        once = polygon_nms(record(props), 0.3)
        twice = polygon_nms(once, 0.3)
        assert list(once) == list(twice)

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
        kept = polygon_nms(record(props), 0.3)
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
        kept = polygon_nms(record(props), 0.3)
        dropped = [p for p in props if p not in kept]
        for d in dropped:
            assert any(
                k.score >= d.score and iou(k.box, d.box) > 0.3 for k in kept
            )


    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(53)
        for _ in range(3):
            props = [
                prop(
                    rng.uniform(0, 60),
                    rng.uniform(0, 60),
                    rng.uniform(5, 30),
                    rng.uniform(3, 20),
                    rng.uniform(-PI / 2, PI / 2 - 1e-6),
                    round(float(rng.random()), 1),  # many score ties
                )
                for _ in range(40)
            ]
            props += props[:3]  # exact duplicates
            for thr in (0.1, 0.3, 0.7):
                assert list(polygon_nms(record(props), thr)) == loop_nms(props, thr)

    def test_axis_aligned_chain_needs_no_exact_iou(self, monkeypatch):
        # each box overlaps the next at IoU 7/13 and the one after at 4/16:
        # a drops b, so c survives and drops d, so e survives. Aligned boxes
        # make the IoU upper bound exact, so it drops the pairs at 4/16 with
        # no exact IoU; the exact IoU runs once a round, from a and from c.
        a, b, c, d, e = (prop(3.0 * k, 0, 10, 5, 0.0, 0.9 - 0.1 * k) for k in range(5))
        props = [e, d, c, b, a]
        assert loop_nms(props, 0.3) == [a, c, e]
        calls = []
        exact = polyiou._exact
        monkeypatch.setattr(polyiou, "_exact", lambda *args: calls.append(args[1]) or exact(*args))
        assert list(polygon_nms(record(props), 0.3)) == [a, c, e]
        assert [rows.tolist() for rows in calls] == [[0], [2]]

    def test_chain_needs_several_rounds(self, monkeypatch):
        # each box turns 28 degrees from the last: it overlaps the next at IoU
        # about 0.42, and the one after at about 0.25 with an upper bound above
        # 0.41, so the bound drops neither kind of pair and each round's exact
        # IoU keeps the next surviving box
        chain = [prop(2.0 * k, 0, 10, 5, math.radians(28.0 * k), 0.9 - 0.1 * k) for k in range(7)]
        a, b, c, d, e, f, g = chain
        assert loop_nms(chain[::-1], 0.3) == [a, c, e, g]
        rounds = []
        exact = polyiou._exact
        monkeypatch.setattr(polyiou, "_exact", lambda *args: rounds.append(args[1]) or exact(*args))
        assert list(polygon_nms(record(chain[::-1]), 0.3)) == [a, c, e, g]
        assert len(rounds) == 3

    @given(clustered_proposals(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_matches_pairwise_loop_property(self, props, thr):
        assert list(polygon_nms(record(props), thr)) == loop_nms(props, thr)

    @given(clusters_with_copies(), st.sampled_from([0.1, 0.3, 1.0 / 3.0, 0.5, 0.7]))
    def test_matches_pairwise_loop_with_copies(self, props, thr):
        # a copy shifted by half a side reads IoU 1/3, a threshold the bounds cannot decide
        assert list(polygon_nms(record(props), thr)) == loop_nms(props, thr)

    def test_exact_iou_only_from_kept_boxes(self, monkeypatch):
        rng = np.random.default_rng(59)
        centres = rng.uniform(0, 200, size=(6, 2))
        boxes = np.column_stack(
            [
                centres[rng.integers(0, 6, 120)] + rng.normal(0, 6, (120, 2)),
                rng.uniform(8, 40, 120),
                rng.uniform(4, 16, 120),
                rng.uniform(-PI / 2, PI / 2, 120),
            ]
        )
        table = polyiou._table(boxes)
        aabb_pairs = len(polyiou._sweep_pairs(table)[0])
        firsts = []
        exact = polyiou._exact
        monkeypatch.setattr(polyiou, "_exact", lambda *args: firsts.append(args[1]) or exact(*args))
        kept = polyiou.greedy_nms(boxes, 0.3)
        first = np.concatenate(firsts)
        assert 0 < len(first) < aabb_pairs
        assert np.isin(first, kept).all()


class TestAnchorStatistics:
    def test_empty(self):
        st = anchor_statistics(record([]), 100)
        assert st.count == 0
        assert st.fraction == 0.0
        assert st.aspect_log2_hist[0].sum() == 0

    def test_fraction(self):
        props = [prop(i * 30.0, 0, 10, 5, 0.0, 0.5) for i in range(100)]
        st = anchor_statistics(record(props), 10_000)
        assert st.fraction == pytest.approx(0.01)

    def test_aspect_mass_at_log2_one(self):
        props = [prop(0, 0, 12, 6, 0.1, 0.5) for _ in range(20)]
        st = anchor_statistics(record(props), 100)
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

    @pytest.mark.parametrize("grid", ["location_prob", "orientation"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1, 1.1])
    def test_value_outside_unit_interval_rejected(self, grid, value):
        fields = vars(blank_maps(level()))
        fields[grid] = fields[grid].copy()
        fields[grid][3, 5] = value
        with pytest.raises(ValueError) as e:
            PredictionMaps(**fields)
        assert str(e.value) == f"{grid} must lie in [0, 1]"


class TestIdealRoundTrip:
    def test_isolated_box_recovered(self):
        levels = make_levels(256, 256)
        gt = RotatedBox(128, 128, 80, 40, 0.5)
        best = 0.0
        for target in generate_targets([gt], levels):
            for p in decode_anchors(ideal_predictions(target), t_a=0.05):
                best = max(best, iou(p.box, gt))
        assert best >= 0.5
