import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rboxkit.evalkit import (
    AVG_THRESHOLDS,
    EvalReport,
    GroundTruthItem,
    RecallReport,
    combine_reports,
    eval_machine_lines,
    format_eval_table,
    format_recall_table,
    match_detections,
    proposal_recall,
    recall_machine_lines,
    sweep_report,
)
from rboxkit.geom import Proposal, RotatedBox
from rboxkit.polyiou import box_array, iou, iou_matrix
from records import record

PI = math.pi


def box(cx, cy, w=20, h=10, theta=0.0):
    return RotatedBox.make(cx, cy, w, h, theta)


def det(cx, cy, score, w=20, h=10, theta=0.0):
    return Proposal(box=box(cx, cy, w, h, theta), score=score)


def gt(cx, cy, w=20, h=10, theta=0.0, dont_care=False):
    return GroundTruthItem(box=box(cx, cy, w, h, theta), dont_care=dont_care)


def random_scene(rng, n_dets, n_gts):
    def rb():
        w = rng.uniform(8, 40)
        return box(
            rng.uniform(0, 200),
            rng.uniform(0, 200),
            w,
            rng.uniform(4, w),
            rng.uniform(-PI / 2, PI / 2 - 1e-6),
        )

    dets = [Proposal(box=rb(), score=float(rng.random())) for _ in range(n_dets)]
    gts = [GroundTruthItem(box=rb(), dont_care=bool(rng.random() < 0.15)) for _ in range(n_gts)]
    return dets, gts


class TestMatchDetections:
    def test_perfect_match(self):
        gts = [gt(10, 10), gt(60, 60)]
        dets = [det(10, 10, 0.9), det(60, 60, 0.8)]
        r = match_detections(record(dets), gts, 0.5)
        assert (r.precision, r.recall, r.f_measure) == (1.0, 1.0, 1.0)
        assert r.matched == 2

    def test_half_recall(self):
        r = match_detections(record([det(10, 10, 0.9)]), [gt(10, 10), gt(60, 60)], 0.5)
        assert r.precision == 1.0
        assert r.recall == 0.5
        assert r.f_measure == pytest.approx(2 / 3)

    def test_dont_care_only(self):
        r = match_detections(record([det(10, 10, 0.9)]), [gt(10, 10, dont_care=True)], 0.5)
        assert (r.precision, r.recall, r.f_measure) == (0.0, 0.0, 0.0)
        assert r.num_detections == 0 and r.num_gt == 0

    def test_dont_care_removal_is_strict(self):
        # a detection at exactly threshold overlap with a don't-care stays
        d = det(10, 10, 0.9)
        dc = gt(10, 10, dont_care=True)
        thr = iou(d.box, dc.box)  # 1.0 here
        r = match_detections(record([d]), [dc, gt(60, 60)], 0.5)
        assert r.num_detections == 0
        shifted = det(10 + 25, 10, 0.9)  # disjoint from the don't-care
        r2 = match_detections(record([shifted]), [dc, gt(60, 60)], 0.5)
        assert r2.num_detections == 1

    def test_one_to_one(self):
        # two detections on one gt: a single match, the duplicate hurts precision
        dets = [det(10, 10, 0.9), det(10.5, 10, 0.8)]
        r = match_detections(record(dets), [gt(10, 10)], 0.5)
        assert r.matched == 1
        assert r.precision == 0.5
        assert r.recall == 1.0

    def test_matched_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dets, gts = random_scene(rng, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            r = match_detections(record(dets), gts, 0.5)
            assert r.matched <= min(r.num_detections, r.num_gt)

    def test_greedy_vs_optimal_on_small_scenes(self):
        # brute-force maximum bipartite matching; greedy may differ only on
        # genuinely conflicting overlap patterns, which we log and tolerate
        rng = np.random.default_rng(5)
        conflicts = 0
        for _ in range(60):
            dets, gts = random_scene(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            gts = [GroundTruthItem(box=g.box, dont_care=False) for g in gts]
            r = match_detections(record(dets), gts, 0.3)
            n, m = len(dets), len(gts)
            # one matrix per scene; its entries equal scalar iou bit for bit
            ious = iou_matrix(box_array(d.box for d in dets), box_array(g.box for g in gts))
            best = 0
            for perm in itertools.permutations(range(m), min(n, m)):
                used = 0
                for di, gi in zip(range(n), perm):
                    if ious[di, gi] >= 0.3:
                        used += 1
                best = max(best, used)
            # order detections arbitrarily in the permutation too
            for det_order in itertools.permutations(range(n), min(n, m)):
                for perm in itertools.permutations(range(m), min(n, m)):
                    used = sum(1 for di, gi in zip(det_order, perm) if ious[di, gi] >= 0.3)
                    best = max(best, used)
            assert r.matched <= best
            if r.matched < best:
                conflicts += 1
        assert conflicts <= 6  # greedy is the contract, not optimality


    def test_matches_pairwise_loop(self):
        # reference: don't-care filter and greedy matching, one scalar iou call per pair
        def loop_match(dets, gts, thr):
            care = [g for g in gts if not g.dont_care]
            ignore = [g for g in gts if g.dont_care]
            kept = [d for d in dets if not any(iou(d.box, g.box) > thr for g in ignore)]
            kept.sort(key=lambda d: -d.score)
            taken = [False] * len(care)
            matched = 0
            for d in kept:
                best, best_iou = -1, 0.0
                for k, g in enumerate(care):
                    v = iou(d.box, g.box)
                    if not taken[k] and v > best_iou:
                        best, best_iou = k, v
                if best >= 0 and best_iou >= thr:
                    taken[best] = True
                    matched += 1
            return matched, len(kept), len(care)

        rng = np.random.default_rng(59)
        for _ in range(10):
            gts = random_scene(rng, 0, 12)[1]
            # jittered copies of the ground truth with tied scores, plus clutter
            dets = [
                det(g.box.cx + rng.normal(0, 3), g.box.cy + rng.normal(0, 3), round(float(rng.random()), 1),
                    g.box.w, g.box.h, g.box.theta)
                for g in gts + gts[:4]
            ] + random_scene(rng, 8, 0)[0]
            for thr in (0.3, 0.5, 0.75):
                r = match_detections(record(dets), gts, thr)
                assert (r.matched, r.num_detections, r.num_gt) == loop_match(dets, gts, thr)

    def test_given_ious_match_computed(self):
        rng = np.random.default_rng(61)
        dets, gts = random_scene(rng, 30, 10)
        ious = np.array([[iou(d.box, g.box) for g in gts] for d in dets])
        for thr in (0.3, 0.5):
            assert match_detections(record(dets), gts, thr, ious=ious) == match_detections(record(dets), gts, thr)
        with pytest.raises(ValueError):
            match_detections(record(dets), gts, 0.5, ious=ious[:, :-1])

    @pytest.mark.parametrize("thr", [-2.0, 0.0, 1.0, 1.5, math.nan])
    def test_threshold_outside_unit_interval(self, thr):
        # at -2.0 both detections matched the one ground truth: recall read 2.0
        with pytest.raises(ValueError, match=r"iou threshold .* outside \(0, 1\)"):
            match_detections(record([det(10, 10, 0.9), det(10, 10, 0.8)]), [gt(10, 10)], thr)


class TestSweepReport:
    def test_perfect_rows(self):
        gts = [gt(10, 10)]
        dets = [det(10, 10, 0.9)]
        rows = sweep_report([record(dets)], [gts], [0.5, 0.75])
        assert all(r.f_measure == 1.0 for r in rows)

    def test_empty_detections(self):
        rows = sweep_report([record([])], [[gt(10, 10)]], [0.5, 0.75])
        assert all(r.recall == 0.0 for r in rows)

    def test_mid_iou_detection_counts_only_below(self):
        g = gt(0, 0, 20, 10)
        d = det(4, 0, 0.9, 20, 10)  # overlap 16/24 = 2/3 along x
        v = iou(d.box, g.box)
        assert 0.5 < v < 0.75
        rows = sweep_report([record([d])], [[g]], [0.5, 0.75])
        assert rows[0].matched == 1
        assert rows[1].matched == 0

    def test_recall_non_increasing(self):
        rng = np.random.default_rng(7)
        dets, gts = random_scene(rng, 10, 6)
        rows = sweep_report([record(dets)], [gts], [0.3, 0.5, 0.7, 0.9])
        recalls = [r.recall for r in rows]
        assert recalls == sorted(recalls, reverse=True)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            sweep_report([record([])], [[]], [1.5])


# a run of up to four images, each with up to four detections and ground
# truths in one 40 px square, so that an image's boxes overlap; images may be empty
_coord, _side = st.floats(0.0, 40.0), st.floats(2.0, 30.0)
_rbox = st.builds(RotatedBox.make, _coord, _coord, _side, _side, st.floats(-PI / 2, PI / 2, exclude_max=True))
_image = st.tuples(
    st.lists(st.builds(Proposal, box=_rbox, score=st.floats(0.0, 1.0)), max_size=4),
    st.lists(st.builds(GroundTruthItem, box=_rbox, dont_care=st.booleans()), max_size=4),
)


class TestImagesApart:
    @given(st.lists(_image, max_size=4))
    def test_run_pools_its_images(self, images):
        thresholds = [0.3, 0.5, 0.7]
        dets, gts = [record(d) for d, _ in images], [g for _, g in images]
        one = [sweep_report([d], [g], thresholds) for d, g in zip(dets, gts)]
        # zero images score like one empty image
        one = one or [sweep_report([record([])], [[]], thresholds)]
        assert sweep_report(dets, gts, thresholds) == [combine_reports(list(col)) for col in zip(*one)]

    def test_coinciding_boxes_of_two_images_never_match(self):
        # image a holds only the ground truth, image b only the detection, on the same box
        runs = [record([]), record([det(50, 20, 0.9, 80, 20)])], [[gt(50, 20, 80, 20)], []]
        (row,) = sweep_report(*runs, [0.5])
        assert (row.matched, row.num_detections, row.num_gt) == (0, 1, 1)
        rep = proposal_recall(*runs, n_values=(1,), modes=(0.5,))
        assert rep.get(1, 0.5) == 0.0


class TestCombineReports:
    def test_counts_add(self):
        a = match_detections(record([det(10, 10, 0.9)]), [gt(10, 10)], 0.5)
        b = match_detections(record([]), [gt(50, 50)], 0.5)
        c = combine_reports([a, b])
        assert c.matched == 1 and c.num_gt == 2
        assert c.recall == 0.5

    def test_threshold_mismatch(self):
        a = match_detections(record([]), [], 0.5)
        b = match_detections(record([]), [], 0.75)
        with pytest.raises(ValueError):
            combine_reports([a, b])


def brute_force_tr(proposals_per_image, gts_per_image, n, tau):
    recalled = 0
    total = 0
    for props, gts in zip(proposals_per_image, gts_per_image):
        top = sorted(props, key=lambda p: -p.score)[:n]
        for g in gts:
            if g.dont_care:
                continue
            total += 1
            if any(iou(p.box, g.box) >= tau for p in top):
                recalled += 1
    return recalled / total if total else 0.0


class TestProposalRecall:
    def test_single_mid_iou_match(self):
        g = gt(0, 0, 20, 10)
        d = det(4, 0, 0.9, 20, 10)
        v = iou(d.box, g.box)
        assert 0.6 < v < 0.7
        rep = proposal_recall([record([d])], [[g]], n_values=(50,), modes=(0.5, 0.75, "avg"))
        assert rep.get(50, 0.5) == 1.0
        assert rep.get(50, 0.75) == 0.0
        # recalled at 0.50, 0.55, 0.60, 0.65 of the ten averaged thresholds
        hits = sum(1 for t in AVG_THRESHOLDS if v >= t)
        assert rep.get(50, "avg") == pytest.approx(hits / 10)

    def test_perfect_proposals(self):
        gts = [[gt(10, 10)], [gt(30, 30), gt(90, 90)]]
        props = [[det(10, 10, 0.9)], [det(30, 30, 0.8), det(90, 90, 0.7)]]
        rep = proposal_recall([record(p) for p in props], gts)
        assert all(v == 1.0 for v in rep.values.values())

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        props, gts = [], []
        for _ in range(6):
            d, g = random_scene(rng, int(rng.integers(0, 15)), int(rng.integers(1, 6)))
            props.append(d)
            gts.append(g)
        n_values = (1, 3, 10)
        rep = proposal_recall([record(p) for p in props], gts, n_values=n_values, modes=(0.5, 0.75, "avg"))
        for n in n_values:
            assert rep.get(n, 0.5) == brute_force_tr(props, gts, n, 0.5)
            assert rep.get(n, 0.75) == brute_force_tr(props, gts, n, 0.75)
            avg = sum(brute_force_tr(props, gts, n, t) for t in AVG_THRESHOLDS) / 10
            assert rep.get(n, "avg") == pytest.approx(avg, abs=1e-12)

    def test_monotonicity_in_n_and_threshold(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            props, gts = [], []
            for _ in range(3):
                d, g = random_scene(rng, int(rng.integers(0, 20)), int(rng.integers(1, 5)))
                props.append(d)
                gts.append(g)
            rep = proposal_recall([record(p) for p in props], gts, n_values=(5, 10, 50))
            for mode in ("0.50", "0.75", "avg"):
                assert (
                    rep.values[(5, mode)] <= rep.values[(10, mode)] <= rep.values[(50, mode)]
                )
            for n in (5, 10, 50):
                assert rep.values[(n, "0.75")] <= rep.values[(n, "0.50")]
                assert rep.values[(n, "avg")] <= rep.values[(n, "0.50")]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            proposal_recall([record([])], [[]], n_values=(0,))

    def test_misaligned_lists(self):
        with pytest.raises(ValueError):
            proposal_recall([record([])], [])

    @pytest.mark.parametrize("mode", [0.0, -0.5, 1.0, 1.5, math.nan])
    def test_mode_outside_unit_interval(self, mode):
        # at 0.0 an image with no proposal read TR 1.0
        with pytest.raises(ValueError, match=r"iou threshold .* outside \(0, 1\)"):
            proposal_recall([record([])], [[gt(10, 10)]], n_values=(50,), modes=(0.5, mode))


class TestFormatting:
    def test_recall_table_shape(self):
        rep = proposal_recall([record([det(10, 10, 0.9)])], [[gt(10, 10)]])
        table = format_recall_table(rep)
        lines = table.splitlines()
        assert len(lines) == 4  # header + three modes
        assert "TR  50" in lines[0] or "TR 50" in lines[0].replace("  ", " ")
        assert "100.0" in lines[1]

    def test_machine_lines_format(self):
        rep = proposal_recall([record([det(10, 10, 0.9)])], [[gt(10, 10)]], n_values=(50,), modes=(0.5,))
        lines = recall_machine_lines(rep)
        assert lines == ["TR\t50\t0.50\t1.0000"]

    def test_eval_machine_lines(self):
        rows = sweep_report([record([det(10, 10, 0.9)])], [[gt(10, 10)]], [0.5])
        lines = eval_machine_lines(rows)
        assert "precision\t-\t0.50\t1.0000" in lines
        assert "recall\t-\t0.50\t1.0000" in lines
        table = format_eval_table(rows)
        assert "100.0" in table
