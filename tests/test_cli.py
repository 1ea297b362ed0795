import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rboxkit
from rboxkit.cli import build_parser, main
from rboxkit.decode import PredictionMaps, Proposal, save_prediction_maps
from rboxkit.formats import read_detection_file, write_detection_file
from rboxkit.geom import RotatedBox, rotated_box_to_quad
from rboxkit.targets import LevelSpec

PI = math.pi


def write_gt_icdar15(path, boxes, dont_care=()):
    lines = []
    for k, b in enumerate(boxes):
        q = rotated_box_to_quad(b)
        coords = ",".join(f"{v:.2f}" for p in q.vertices for v in (p.x, p.y))
        text = "###" if k in dont_care else f"word{k}"
        lines.append(f"{coords},{text}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def scene(tmp_path):
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    # sizes chosen inside the bands the default candidate scales can reach
    # with IoU >= 0.5 at each box's assigned level
    boxes = {
        "img_1": [RotatedBox(100, 80, 40, 16, 0.3), RotatedBox(300, 200, 90, 30, -0.6)],
        "img_2": [RotatedBox(220, 140, 150, 60, 0.0)],
    }
    for image_id, bs in boxes.items():
        write_gt_icdar15(gt_dir / f"gt_{image_id}.txt", bs)
    det_file = tmp_path / "dets.txt"
    records = []
    for image_id, bs in boxes.items():
        for n, b in enumerate(bs):
            records.append((image_id, Proposal(box=b, score=0.9 - 0.1 * n)))
    write_detection_file(det_file, records)
    return tmp_path, gt_dir, det_file, boxes


class TestEvaluate:
    def test_perfect_detections(self, scene, capsys):
        tmp, gt_dir, det_file, _ = scene
        out_file = tmp / "metrics.tsv"
        rc = main(
            [
                "evaluate",
                "--detections",
                str(det_file),
                "--gt",
                str(gt_dir),
                "--gt-format",
                "icdar15",
                "--iou-thresholds",
                "0.5",
                "0.75",
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "100.0" in out
        lines = out_file.read_text().splitlines()
        assert "precision\t-\t0.50\t1.0000" in lines
        assert "f_measure\t-\t0.75\t1.0000" in lines

    def test_empty_detections(self, scene, capsys, tmp_path):
        _, gt_dir, _, _ = scene
        det_file = tmp_path / "none.txt"
        det_file.write_text("")
        rc = main(
            ["evaluate", "--detections", str(det_file), "--gt", str(gt_dir), "--gt-format", "icdar15"]
        )
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert "0.0" in row

    def test_corrupt_gt_line_fails(self, scene, capsys):
        tmp, gt_dir, det_file, _ = scene
        bad = gt_dir / "gt_img_1.txt"
        bad.write_text(bad.read_text() + "1,2,3\n")
        rc = main(
            ["evaluate", "--detections", str(det_file), "--gt", str(gt_dir), "--gt-format", "icdar15"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_thresholds_rejected(self, scene, capsys):
        _, gt_dir, det_file, _ = scene
        rc = main(
            [
                "evaluate",
                "--detections",
                str(det_file),
                "--gt",
                str(gt_dir),
                "--gt-format",
                "icdar15",
                "--iou-thresholds",
                "1.5",
                "0",
                "-0.2",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_zero_images_keep_thresholds(self, tmp_path, capsys):
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        det_file = tmp_path / "none.txt"
        det_file.write_text("")
        out_file = tmp_path / "metrics.tsv"
        rc = main(
            [
                "evaluate",
                "--detections",
                str(det_file),
                "--gt",
                str(gt_dir),
                "--gt-format",
                "icdar15",
                "--iou-thresholds",
                "0.5",
                "0.75",
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split()[0] for r in rows] == ["0.50", "0.75"]
        modes = [line.split("\t")[2] for line in out_file.read_text().splitlines()]
        assert modes == ["0.50"] * 3 + ["0.75"] * 3


    def test_missing_gt_dir_rejected(self, scene, capsys):
        tmp, _, det_file, _ = scene
        args = ["--detections", str(det_file), "--gt", str(tmp / "nodir"), "--gt-format", "icdar15"]
        rc = main(["evaluate", *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "nodir" in captured.err
        assert captured.out == ""


class TestProposalRecall:
    def test_missing_gt_dir_rejected(self, scene, capsys):
        tmp, _, det_file, _ = scene
        args = ["--proposals", str(det_file), "--gt", str(tmp / "nodir"), "--gt-format", "icdar15"]
        rc = main(["proposal-recall", *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "nodir" in captured.err
        assert captured.out == ""

    def test_perfect_grid(self, scene, capsys):
        tmp, gt_dir, det_file, _ = scene
        rc = main(
            [
                "proposal-recall",
                "--proposals",
                str(det_file),
                "--gt",
                str(gt_dir),
                "--gt-format",
                "icdar15",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("100.0") == 9

    def test_no_proposals(self, scene, capsys, tmp_path):
        _, gt_dir, _, _ = scene
        det_file = tmp_path / "none.txt"
        det_file.write_text("")
        rc = main(
            [
                "proposal-recall",
                "--proposals",
                str(det_file),
                "--gt",
                str(gt_dir),
                "--gt-format",
                "icdar15",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "100.0" not in out
        assert out.count("0.0") >= 9


class TestLabelgenAndDecode:
    def run_labelgen(self, scene, tmp_path, capsys):
        _, gt_dir, _, boxes = scene
        out_dir = tmp_path / "maps"
        rc = main(
            [
                "labelgen",
                "--gt",
                str(gt_dir),
                "--gt-format",
                "icdar15",
                "--image-width",
                "512",
                "--image-height",
                "384",
                "--output",
                str(out_dir),
            ]
        )
        assert rc == 0
        return out_dir, capsys.readouterr().out

    def test_labelgen_writes_maps_and_summary(self, scene, tmp_path, capsys):
        out_dir, out = self.run_labelgen(scene, tmp_path, capsys)
        assert len(list(out_dir.glob("*.tmap"))) == 8  # 2 images x 4 levels
        for line in out.strip().splitlines():
            assert "positive=" in line and "ignore=" in line

    def test_labelgen_zero_stride_rejected(self, scene, tmp_path, capsys):
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        rc = main(
            ["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", "--strides", "0", "--output", str(out_dir)]
        )
        assert rc == 2
        assert "error: stride must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scales", "8", "nan", "32", "64"], "error: scales must all be positive and finite"),
            (["--ratios", "1", "inf", "4"], "error: ratios must all be positive and finite"),
            # finite, but the candidate sides overflow to inf
            (["--scales", "8", "1e308"], "error: sizes must be positive and finite relative to k s"),
        ],
        ids=["scale-nan", "ratio-inf", "scale-overflow"],
    )
    def test_labelgen_bad_candidates_rejected(self, scene, tmp_path, capsys, flags, message):
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        rc = main(
            ["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", *flags, "--output", str(out_dir)]
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not list(out_dir.glob("*.tmap"))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "1e300"], "error: scale factor k"),
            (["--k", "1e-300"], "error: scale factor k"),
            (["--k", "inf"], "error: scale factor k"),
            (["--strides", "4", "5000000000"], "error: stride must lie in"),
        ],
        ids=["k-1e300", "k-1e-300", "k-inf", "stride-5e9"],
    )
    def test_labelgen_level_outside_map_header_rejected(self, scene, tmp_path, capsys, flags, message):
        # the .tmap header holds k as f32 and the stride as u32
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        rc = main(
            ["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", *flags, "--output", str(out_dir)]
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_labelgen_deterministic_bytes(self, scene, tmp_path, capsys):
        d1, _ = self.run_labelgen(scene, tmp_path / "a", capsys)
        d2, _ = self.run_labelgen(scene, tmp_path / "b", capsys)
        for p1 in sorted(d1.glob("*.tmap")):
            p2 = d2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_decode_round_trip_recovers_gt(self, scene, tmp_path, capsys):
        out_dir, _ = self.run_labelgen(scene, tmp_path, capsys)
        det_file = tmp_path / "decoded.txt"
        # ideal maps carry tied scores, so NMS would keep an arbitrary corner
        # cell; recovery is about the decoded set itself
        rc = main(
            [
                "decode",
                *map(str, sorted(out_dir.glob("*.tmap"))),
                "--no-nms",
                "--output",
                str(det_file),
            ]
        )
        assert rc == 0
        stats_out = capsys.readouterr().out
        assert "fraction\t" in stats_out
        records, errors = read_detection_file(det_file)
        assert errors == []
        from rboxkit.polyiou import iou

        _, _, _, boxes = scene
        for image_id, gts in boxes.items():
            decoded = [p.box for i, p in records if i == image_id]
            for gt in gts:
                assert max(iou(gt, d) for d in decoded) >= 0.5

    def test_decode_threshold_one_empty(self, scene, tmp_path, capsys):
        out_dir, _ = self.run_labelgen(scene, tmp_path, capsys)
        det_file = tmp_path / "empty.txt"
        rc = main(
            [
                "decode",
                *map(str, sorted(out_dir.glob("*.tmap"))),
                "--t-a",
                "1.0",
                "--output",
                str(det_file),
            ]
        )
        assert rc == 0
        records, _ = read_detection_file(det_file)
        assert records == []

    def test_decode_counts_monotone_in_threshold(self, scene, tmp_path, capsys):
        out_dir, _ = self.run_labelgen(scene, tmp_path, capsys)
        counts = []
        for t in ("0", "0.01", "0.05", "0.1"):
            det_file = tmp_path / f"d{t}.txt"
            main(
                [
                    "decode",
                    *map(str, sorted(out_dir.glob("*.tmap"))),
                    "--t-a",
                    t,
                    "--no-nms",
                    "--output",
                    str(det_file),
                ]
            )
            capsys.readouterr()
            records, _ = read_detection_file(det_file)
            counts.append(len(records))
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("top_n", ["-1", "0"])
    def test_decode_top_n_must_be_positive(self, scene, tmp_path, capsys, top_n):
        out_dir, _ = self.run_labelgen(scene, tmp_path, capsys)
        det_file = tmp_path / "decoded.txt"
        rc = main(
            [
                "decode",
                *map(str, sorted(out_dir.glob("*.tmap"))),
                "--top-n",
                top_n,
                "--output",
                str(det_file),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not det_file.exists()

    def test_decode_shape_overflow_rejected(self, tmp_path, capsys):
        lv = LevelSpec(stride=4, grid_w=4, grid_h=4)
        maps = PredictionMaps(
            level=lv,
            location_prob=np.zeros((4, 4), dtype=np.float32),
            orientation=np.full((4, 4), 0.5, dtype=np.float32),
            shape_dw=np.zeros((4, 4), dtype=np.float32),
            shape_dh=np.zeros((4, 4), dtype=np.float32),
        )
        maps.location_prob[1, 2] = 0.9
        maps.shape_dw[1, 2] = 1000.0
        pmap = tmp_path / "img.s4.pmap"
        save_prediction_maps(maps, pmap)
        rc = main(["decode", str(pmap), "--output", str(tmp_path / "out.txt")])
        assert rc == 2
        assert "overflow" in capsys.readouterr().err


class TestNms:
    def test_duplicate_collapsed(self, tmp_path, capsys):
        det_file = tmp_path / "in.txt"
        b = RotatedBox(50, 50, 30, 12, 0.2)
        write_detection_file(
            det_file,
            [("img", Proposal(box=b, score=0.9)), ("img", Proposal(box=b, score=0.8))],
        )
        out_file = tmp_path / "out.txt"
        rc = main(["nms", "--detections", str(det_file), "--nms-iou", "0.3", "--output", str(out_file)])
        assert rc == 0
        records, _ = read_detection_file(out_file)
        assert len(records) == 1
        assert records[0][1].score == pytest.approx(0.9)

    @pytest.mark.parametrize("thr", ["-1", "0", "1", "1.5"])
    def test_threshold_outside_unit_interval(self, tmp_path, capsys, thr):
        det_file = tmp_path / "in.txt"
        boxes = [RotatedBox(50 + 3 * k, 50, 30, 12, 0.2) for k in range(4)]
        write_detection_file(
            det_file, [("img", Proposal(box=b, score=0.9 - 0.1 * k)) for k, b in enumerate(boxes)]
        )
        out_file = tmp_path / "out.txt"
        rc = main(["nms", "--detections", str(det_file), "--nms-iou", thr, "--output", str(out_file)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out_file.exists()


    def test_area_overflow_rejected(self, tmp_path, capsys):
        # w * h overflows: its IoU was nan, so nan > threshold kept it silently
        det_file = tmp_path / "in.txt"
        det_file.write_text("img 1 2 1e200 1e200 0 0.9\nimg 1 2 1e200 1e200 0.3 0.8\n")
        out_file = tmp_path / "out.txt"
        rc = main(["nms", "--detections", str(det_file), "--output", str(out_file)])
        assert rc == 2
        assert "overflows" in capsys.readouterr().err
        assert not out_file.exists()

    def test_threshold_checked_on_empty_file(self, tmp_path, capsys):
        det_file = tmp_path / "empty.txt"
        det_file.write_text("")
        out_file = tmp_path / "out.txt"
        rc = main(["nms", "--detections", str(det_file), "--nms-iou", "7", "--output", str(out_file)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out_file.exists()


class TestIouCommand:
    def test_identical_boxes(self, capsys):
        rc = main(
            [
                "iou",
                "--box-a",
                "0,0,20,10,0.3",
                "--box-b",
                "0,0,20,10,0.3",
                "--samples",
                "20000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact\t1.000000" in out

    def test_negative_first_coordinate(self, capsys):
        rest = ["--samples", "20000"]
        assert main(["iou", "--box-a=-5,0,10,10,0", "--box-b=-1,0,10,10,0", *rest]) == 0
        attached = capsys.readouterr()
        assert "exact\t0.428571" in attached.out
        assert main(["iou", "--box-a", "-5,0,10,10,0", "--box-b", "-1,0,10,10,0", *rest]) == 0
        assert capsys.readouterr() == attached

    def test_malformed_box_spec(self, capsys):
        rc = main(["iou", "--box-a", "1,2,3", "--box-b", "0,0,20,10,0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_area_overflow_rejected(self, capsys):
        rc = main(["iou", "--box-a", "1,2,1e200,1e200,0", "--box-b", "1,2,1e200,1e200,0.3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: box area" in captured.err
        assert "nan" not in captured.out


class TestParserReuse:
    def test_back_to_back_calls_match_fresh_processes(self, scene, capsys):
        # the parser is built once per process; a call that sets list flags
        # must leave the defaults of the next call as a fresh process has them
        tmp, gt_dir, det_file, _ = scene
        gt = ["--gt", str(gt_dir), "--gt-format", "icdar15"]
        calls = [
            ["evaluate", "--detections", str(det_file), *gt, "--iou-thresholds", "0.3", "0.9"],
            ["evaluate", "--detections", str(det_file), *gt],
            ["proposal-recall", "--proposals", str(det_file), *gt, "--top-n", "1", "2"],
            ["proposal-recall", "--proposals", str(det_file), *gt],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(rboxkit.__file__).parents[1]))
        build_parser.cache_clear()
        for argv in calls:
            rc = main(argv)
            got = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "rboxkit.cli", *argv], env=env, capture_output=True, text=True
            )
            assert (rc, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert build_parser.cache_info().misses == 1


class TestConvert:
    def test_icdar15_to_msra_axis_aligned(self, tmp_path, capsys):
        src = tmp_path / "gt.txt"
        src.write_text("0,0,10,0,10,5,0,5,word\n")
        dst = tmp_path / "out.txt"
        rc = main(
            [
                "convert",
                "--input",
                str(src),
                "--from",
                "icdar15",
                "--to",
                "msra",
                "--output",
                str(dst),
            ]
        )
        assert rc == 0
        fields = dst.read_text().split()
        assert float(fields[6]) == pytest.approx(0.0)

    def test_missing_input(self, tmp_path, capsys):
        rc = main(
            [
                "convert",
                "--input",
                str(tmp_path / "nope.txt"),
                "--from",
                "icdar15",
                "--to",
                "msra",
                "--output",
                str(tmp_path / "out.txt"),
            ]
        )
        assert rc == 1
