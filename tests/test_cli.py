import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rboxkit
from rboxkit import formats, geom
from rboxkit.cli import _in_bounds, build_parser, main
from rboxkit.decode import PredictionMaps, save_prediction_maps
from rboxkit.formats import read_detection_file, write_detection_file
from rboxkit.geom import Proposal, RotatedBox, box_corners, rotated_box_to_quad
from rboxkit.targets import LevelSpec, ShapeCandidateSet, ShrinkParams, generate_targets, make_levels, save_target_maps
from records import pairs, record, record_of_pairs
from test_decode import cli_order, loop_decode, loop_nms, random_maps
from test_formats import loop_read_detection_file, loop_write_detection_file

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
    write_detection_file(det_file, record_of_pairs(records))
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


class TestSingleGtFile:
    @pytest.mark.parametrize(
        "command, det_flag", [("evaluate", "--detections"), ("proposal-recall", "--proposals")]
    )
    def test_file_prints_what_its_directory_prints(self, scene, capsys, command, det_flag):
        tmp, gt_dir, det_file, _ = scene
        one_dir = tmp / "one"
        one_dir.mkdir()
        (one_dir / "gt_img_1.txt").write_bytes((gt_dir / "gt_img_1.txt").read_bytes())
        runs = []
        for gt in (one_dir / "gt_img_1.txt", one_dir):
            out_file = tmp / f"{gt.name}.tsv"
            argv = [command, det_flag, str(det_file), "--gt", str(gt), "--gt-format", "icdar15"]
            rc = main([*argv, "--output", str(out_file)])
            captured = capsys.readouterr()
            runs.append((rc, captured.out, captured.err, out_file.read_text()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0


class TestDuplicateImageId:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--detections", "{det}"],
            ["proposal-recall", "--proposals", "{det}"],
            ["labelgen", "--output", "{out}"],
        ],
        ids=["evaluate", "proposal-recall", "labelgen"],
    )
    def test_two_files_for_one_image_rejected(self, scene, capsys, argv):
        # a.txt and gt_a.txt both name image "a"; neither may shadow the other
        tmp, _, det_file, _ = scene
        gt_dir = tmp / "dup"
        gt_dir.mkdir()
        write_gt_icdar15(gt_dir / "a.txt", [RotatedBox(30, 20, 40, 16, 0.0)])
        write_gt_icdar15(gt_dir / "gt_a.txt", [RotatedBox(125, 115, 40, 16, 0.0)])
        out_dir = tmp / "maps"
        argv = [a.format(det=det_file, out=out_dir) for a in argv]
        rc = main([*argv, "--gt", str(gt_dir), "--gt-format", "icdar15"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "'a'" in captured.err
        assert str(gt_dir / "a.txt") in captured.err and str(gt_dir / "gt_a.txt") in captured.err
        assert captured.out == ""
        assert not out_dir.exists()


class TestEmptyImageId:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--detections", "{det}"],
            ["proposal-recall", "--proposals", "{det}"],
            ["labelgen", "--output", "{out}"],
        ],
        ids=["evaluate", "proposal-recall", "labelgen"],
    )
    def test_gt_file_without_an_id_rejected(self, scene, capsys, argv):
        # gt_.txt gave image id "": labelgen wrote hidden .s4.tmap files and
        # evaluate scored its boxes as ground truth no detection can match
        tmp, _, det_file, _ = scene
        gt_dir = tmp / "noid"
        gt_dir.mkdir()
        write_gt_icdar15(gt_dir / "gt_.txt", [RotatedBox(30, 20, 40, 16, 0.0)])
        out_dir = tmp / "maps"
        argv = [a.format(det=det_file, out=out_dir) for a in argv]
        rc = main([*argv, "--gt", str(gt_dir), "--gt-format", "icdar15"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and str(gt_dir / "gt_.txt") in captured.err
        assert captured.out == ""
        assert not out_dir.exists()


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


def loop_in_bounds(box, width, height):
    """Reference: one box's corners from box_corners against the image rectangle."""
    pts = box_corners(box)
    return pts[:, 0].min() >= 0 and pts[:, 1].min() >= 0 and pts[:, 0].max() <= width and pts[:, 1].max() <= height


@st.composite
def edge_boxes(draw):
    """Boxes in and around a 64x48 image; axis-aligned ones (theta 0 or -pi/2) with integer
    sides may put a corner exactly on an edge."""
    boxes = []
    for _ in range(draw(st.integers(0, 8))):
        w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        theta = draw(st.sampled_from([0.0, -PI / 2, 0.3, -1.2, 1.5]))
        if draw(st.booleans()):
            # half sides from the edge: the corner lands on 0 or on the far side
            cx = draw(st.sampled_from([w / 2, 64 - w / 2, h / 2, 64 - h / 2]))
            cy = draw(st.sampled_from([h / 2, 48 - h / 2, w / 2, 48 - w / 2]))
        else:
            cx, cy = draw(st.floats(-20, 84)), draw(st.floats(-20, 68))
        boxes.append(RotatedBox.make(cx, cy, w, h, theta))
    return boxes


class TestInBounds:
    @given(edge_boxes())
    def test_equals_the_per_box_test(self, boxes):
        got = _in_bounds(boxes, 64, 48)
        assert got.dtype == bool and got.shape == (len(boxes),)
        assert got.tolist() == [loop_in_bounds(b, 64, 48) for b in boxes]

    def test_corners_on_the_edges_are_inside(self):
        boxes = [RotatedBox(5, 4, 10, 8, 0.0), RotatedBox(59, 44, 10, 8, 0.0), RotatedBox(59.5, 44, 10, 8, 0.0)]
        assert _in_bounds(boxes, 64, 48).tolist() == [True, True, False]

    def test_labelgen_warns_in_box_order(self, tmp_path, capsys):
        gt = tmp_path / "gt_a.txt"
        boxes = [
            RotatedBox(-30, 40, 40, 16, 0.0),
            RotatedBox(100, 80, 40, 16, 0.3),
            RotatedBox(700, 40, 40, 16, 0.0),
            RotatedBox(200, 80, 40, 16, 0.0),
        ]
        write_gt_icdar15(gt, boxes)
        argv = ["labelgen", "--gt", str(gt), "--gt-format", "icdar15", "--image-width", "512", "--image-height", "384"]
        assert main([*argv, "--output", str(tmp_path / "maps")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: a: box at (-30, 40) out of bounds, skipped",
            "warning: a: box at (700, 40) out of bounds, skipped",
        ]


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

    def test_labelgen_repeated_stride_rejected(self, scene, tmp_path, capsys):
        # both stride-4 levels would be saved to the same file, the empty one last
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        rc = main(
            ["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", "--strides", "4", "4", "--output", str(out_dir)]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: stride 4 given more than once"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scales", "8", "nan", "32", "64"], "error: scales must all be positive and finite"),
            (["--ratios", "1", "inf", "4"], "error: ratios must all be positive and finite"),
            # finite, but the candidate sides overflow to inf
            (["--scales", "8", "1e308"], "error: sizes must be positive and finite relative to k s"),
            # both sides overflow, and print as plain floats (the line ends there), not numpy scalars
            (["--scales", "1e308"], "error: sizes must be positive and finite relative to k s, got (inf, inf)\n"),
        ],
        ids=["scale-nan", "ratio-inf", "scale-overflow", "scale-overflow-both-sides"],
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
            # 25e9 cells a row at stride 4, refused before any grid is allocated
            (["--image-width", "99999999999"], "error: grid sides must lie in [1, 2**32 - 1], got 25000000000x"),
        ],
        ids=["k-1e300", "k-1e-300", "k-inf", "stride-5e9", "grid-width-25e9"],
    )
    def test_labelgen_level_outside_map_header_rejected(self, scene, tmp_path, capsys, flags, message):
        # the .tmap header holds k as f32 and the stride and grid sides as u32
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        rc = main(
            ["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", *flags, "--output", str(out_dir)]
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_labelgen_out_of_memory_reported(self, scene, tmp_path, capsys, monkeypatch):
        def refuse(level):
            raise MemoryError("Unable to allocate 9.31 GiB for an array")

        monkeypatch.setattr(rboxkit.targets.TargetMaps, "empty", refuse)
        _, gt_dir, _, _ = scene
        argv = ["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", "--output", str(tmp_path / "maps")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: out of memory: Unable to allocate 9.31 GiB for an array"]

    @pytest.mark.parametrize(
        "boxes, message",
        [
            ([RotatedBox(100, 80, 40, 16, 0.3), RotatedBox(200, 80, 10, 0.5, 0.0)], "ground truth #1 smaller than 1px"),
            ([RotatedBox(128, 128, 40, 30, 1.5), RotatedBox(128, 128, 40, 30, -1.5)], "straddling the +-pi/2 wrap"),
        ],
        ids=["under-1px", "wrap-straddling"],
    )
    def test_labelgen_reports_target_warnings(self, tmp_path, capsys, boxes, message):
        # generate_targets' warnings reach stderr with the image id; the maps are still written
        write_gt_icdar15(tmp_path / "gt_a.txt", boxes)
        out_dir = tmp_path / "maps"
        argv = ["labelgen", "--gt", str(tmp_path / "gt_a.txt"), "--gt-format", "icdar15", "--output", str(out_dir)]
        assert main([*argv, "--image-width", "512", "--image-height", "384"]) == 0
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: a: ") and message in line
        assert sorted(p.name for p in out_dir.glob("*.tmap")) == [f"a.s{s}.tmap" for s in (16, 32, 4, 8)]

    @pytest.mark.parametrize(
        "flags",
        [["--image-width", "0"], ["--image-width", "-5"], ["--image-height", "0"]],
        ids=["width-0", "width-neg", "height-0"],
    )
    def test_labelgen_image_size_below_one_rejected(self, scene, tmp_path, capsys, flags):
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        rc = main(
            ["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", *flags, "--output", str(out_dir)]
        )
        assert rc == 2
        assert "error: image size must be at least 1x1" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, stride",
        [(["--long-ratio-strides", "5"], 5), (["--strides", "16", "32", "--long-ratio-strides", "16", "8"], 8)],
        ids=["not-a-default-stride", "dropped-stride"],
    )
    def test_labelgen_long_ratio_stride_outside_strides_rejected(self, scene, tmp_path, capsys, flags, stride):
        # a mistyped long-ratio stride would silently drop the long candidates of every level
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        rc = main(["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", *flags, "--output", str(out_dir)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: long-ratio stride {stride} is not one of the strides")
        assert not out_dir.exists()

    def test_labelgen_default_long_ratio_strides_need_not_name_a_level(self, scene, tmp_path, capsys):
        # the default (4, 8) names no level of --strides 16 32, so no level gets the long candidates
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        flags = ["--image-width", "512", "--image-height", "384", "--strides", "16", "32", "--output", str(out_dir)]
        rc = main(["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", *flags])
        assert rc == 0
        levels = make_levels(512, 384, strides=(16, 32), long_ratio_strides=())
        expected = tmp_path / "expected.tmap"
        for path in sorted(gt_dir.glob("gt_*.txt")):
            records, _ = formats.read_annotation_file(path, "icdar15")
            boxes = [item.box for item in formats.to_ground_truth(records)]
            for maps in generate_targets(boxes, levels, ShrinkParams(0.4, 0.5), ShapeCandidateSet()):
                save_target_maps(maps, expected)
                got = out_dir / f"{path.stem[3:]}.s{maps.level.stride}.tmap"
                assert got.read_bytes() == expected.read_bytes()

    def test_labelgen_missing_gt_rejected(self, scene, tmp_path, capsys):
        out_dir = tmp_path / "maps"
        missing = tmp_path / "nogt"
        rc = main(["labelgen", "--gt", str(missing), "--gt-format", "icdar15", "--output", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(missing) in err
        assert not out_dir.exists()

    def test_labelgen_has_no_include_difficult_flag(self, scene, tmp_path, capsys):
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        argv = ["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", "--output", str(out_dir)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--include-difficult"])
        assert exc.value.code == 2
        assert "--include-difficult" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_labelgen_single_file_strips_gt_prefix(self, scene, tmp_path, capsys):
        _, gt_dir, _, _ = scene
        whole, _ = self.run_labelgen(scene, tmp_path / "whole", capsys)
        out_dir = tmp_path / "single"
        argv = ["labelgen", "--gt", str(gt_dir / "gt_img_1.txt"), "--gt-format", "icdar15"]
        rc = main([*argv, "--image-width", "512", "--image-height", "384", "--output", str(out_dir)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("img_1\t")
        written = sorted(p.name for p in out_dir.glob("*.tmap"))
        assert written == sorted(p.name for p in whole.glob("img_1.*.tmap"))
        for name in written:
            assert (out_dir / name).read_bytes() == (whole / name).read_bytes()

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
            decoded = [p.box for i, p in pairs(records) if i == image_id]
            for gt in gts:
                assert max(iou(gt, d) for d in decoded) >= 0.5

    def test_decode_keeps_dotted_image_ids_apart(self, scene, tmp_path, capsys):
        # labelgen names maps {image_id}.s{stride}.tmap, so decode reads the id
        # back as the file name without its last two suffixes
        _, gt_dir, _, _ = scene
        for n, image_id in enumerate(("img.1", "img.2")):
            write_gt_icdar15(gt_dir / f"gt_{image_id}.txt", [RotatedBox(100 + 200 * n, 80, 40, 16, 0.3)])
        for path in gt_dir.glob("gt_img_*.txt"):
            path.unlink()
        out_dir, _ = self.run_labelgen(scene, tmp_path, capsys)
        maps = sorted(out_dir.glob("*.tmap"))
        assert [p.name for p in maps][:2] == ["img.1.s16.tmap", "img.1.s32.tmap"]
        # decoding both images at once gives each image's own decode, in id order
        lines = []
        for image_id, files in [("both", maps), ("img.1", maps[:4]), ("img.2", maps[4:])]:
            det_file = tmp_path / f"{image_id}.txt"
            assert main(["decode", *map(str, files), "--output", str(det_file)]) == 0
            capsys.readouterr()
            lines.append(det_file.read_text().splitlines())
        both, one, two = lines
        assert {line.split()[0] for line in one} == {"img.1"}
        assert {line.split()[0] for line in two} == {"img.2"}
        assert both == one + two

    def test_decode_two_files_for_one_level_rejected(self, scene, tmp_path, capsys):
        # a second copy of a level's map would decode each of its cells twice
        out_dir, _ = self.run_labelgen(scene, tmp_path, capsys)
        first, second = out_dir / "img_1.s8.tmap", tmp_path / "copy" / "img_1.s8.tmap"
        second.parent.mkdir()
        second.write_bytes(first.read_bytes())
        det_file = tmp_path / "dets_out.txt"
        maps = [*sorted(out_dir.glob("*.tmap")), second]
        rc = main(["decode", *map(str, maps), "--no-nms", "--output", str(det_file)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: map files {first} and {second} both give image 'img_1' at stride 8"
        ]
        assert not det_file.exists()

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
        assert list(records) == []

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


    def test_decode_empty_image_id_rejected(self, tmp_path, capsys):
        # the image id is the file name up to its first dot, here ""
        lv = LevelSpec(stride=4, grid_w=4, grid_h=4)
        maps = PredictionMaps(
            level=lv,
            location_prob=np.full((4, 4), 0.9, dtype=np.float32),
            orientation=np.full((4, 4), 0.5, dtype=np.float32),
            shape_dw=np.zeros((4, 4), dtype=np.float32),
            shape_dh=np.zeros((4, 4), dtype=np.float32),
        )
        pmap = tmp_path / ".s4.pmap"
        save_prediction_maps(maps, pmap)
        out = tmp_path / "dec.txt"
        rc = main(["decode", str(pmap), "--no-nms", "--output", str(out)])
        assert rc == 2
        assert "error: image id must not be empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"PMA", "error: map file truncated: missing header"),
            (b"XMAP" + bytes(16), "error: bad magic b'XMAP', expected b'PMAP'"),
            (b"TMAP" + bytes(3), "error: map file truncated: missing header"),
        ],
        ids=["truncated", "bad-magic", "truncated-tmap"],
    )
    def test_decode_bad_map_file(self, tmp_path, capsys, data, message):
        path = tmp_path / "img.s4.pmap"
        path.write_bytes(data)
        assert main(["decode", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestOutputsOverwrittenInPlace:
    def test_evaluate_output_trimmed(self, scene, capsys):
        tmp, gt_dir, det_file, _ = scene
        args = ["evaluate", "--detections", str(det_file), "--gt", str(gt_dir), "--gt-format", "icdar15", "--output"]
        out, fresh = tmp / "metrics.tsv", tmp / "fresh.tsv"
        out.write_text("an older and much longer metric file\n" * 50)
        assert main([*args, str(out)]) == 0
        assert main([*args, str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_labelgen_rerun_with_a_smaller_image(self, scene, tmp_path, capsys):
        _, gt_dir, _, _ = scene

        def labelgen(out_dir, width):
            args = ["--gt", str(gt_dir), "--gt-format", "icdar15", "--image-width", str(width), "--output", str(out_dir)]
            assert main(["labelgen", *args]) == 0

        labelgen(tmp_path / "maps", 640)
        labelgen(tmp_path / "maps", 320)
        labelgen(tmp_path / "fresh", 320)
        names = sorted(p.name for p in (tmp_path / "fresh").glob("*.tmap"))
        assert len(names) == 8
        assert sorted(p.name for p in (tmp_path / "maps").glob("*.tmap")) == names
        for name in names:
            assert (tmp_path / "maps" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize("command", ["nms", "evaluate"])
    def test_dev_null_output(self, scene, command, capsys):
        _, gt_dir, det_file, _ = scene
        gt = ["--gt", str(gt_dir), "--gt-format", "icdar15"] if command == "evaluate" else []
        assert main([command, "--detections", str(det_file), *gt, "--output", os.devnull]) == 0


class TestNms:
    def test_duplicate_collapsed(self, tmp_path, capsys):
        det_file = tmp_path / "in.txt"
        b = RotatedBox(50, 50, 30, 12, 0.2)
        write_detection_file(
            det_file,
            record([Proposal(box=b, score=0.9), Proposal(box=b, score=0.8)]),
        )
        out_file = tmp_path / "out.txt"
        rc = main(["nms", "--detections", str(det_file), "--nms-iou", "0.3", "--output", str(out_file)])
        assert rc == 0
        records, _ = read_detection_file(out_file)
        assert len(records) == 1
        assert records[0].score == pytest.approx(0.9)

    def test_images_kept_apart(self, tmp_path, capsys):
        det_file, out_file = tmp_path / "in.txt", tmp_path / "out.txt"
        det_file.write_text("a 50 50 30 12 0.2 0.9\nb 50 50 30 12 0.2 0.8\n")
        assert main(["nms", "--detections", str(det_file), "--output", str(out_file)]) == 0
        assert capsys.readouterr().err == "kept 2 of 2 detections\n"
        assert read_detection_file(out_file)[0].image_ids.tolist() == ["a", "b"]

    def test_parse_errors_print_before_a_bad_threshold(self, tmp_path, capsys):
        det_file, out_file = tmp_path / "in.txt", tmp_path / "out.txt"
        det_file.write_text("a 50 50 30 12 0.2\n")
        rc = main(["nms", "--detections", str(det_file), "--nms-iou", "1.5", "--output", str(out_file)])
        assert rc == 2
        first, second = capsys.readouterr().err.splitlines()
        assert first.startswith(f"error: {det_file}:1: ")
        assert second == "error: nms iou threshold must lie in (0, 1), got 1.5"
        assert not out_file.exists()

    @pytest.mark.parametrize("thr", ["-1", "0", "1", "1.5"])
    def test_threshold_outside_unit_interval(self, tmp_path, capsys, thr):
        det_file = tmp_path / "in.txt"
        boxes = [RotatedBox(50 + 3 * k, 50, 30, 12, 0.2) for k in range(4)]
        write_detection_file(
            det_file, record([Proposal(box=b, score=0.9 - 0.1 * k) for k, b in enumerate(boxes)])
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

    def test_sides_beyond_kernel_range_rejected(self, tmp_path, capsys):
        # both boxes were kept, because their IoU read 0.0
        det_file = tmp_path / "in.txt"
        det_file.write_text("img 0 0 1e160 1e100 0.3 0.9\nimg 1 0 1e160 1e100 0.3 0.8\n")
        out_file = tmp_path / "out.txt"
        rc = main(["nms", "--detections", str(det_file), "--output", str(out_file)])
        assert rc == 2
        assert "error: box centre and sides must not exceed" in capsys.readouterr().err
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

    def test_sides_beyond_kernel_range_rejected(self, capsys):
        # the edge cross products of this pair overflowed, so it read 0.0 and exited 0
        rc = main(["iou", "--box-a", "0,0,1e160,1e100,0.3", "--box-b", "1,0,1e160,1e100,0.3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: box centre and sides must not exceed 1e+150" in captured.err
        assert captured.out == ""


class TestPathOfTheWrongKind:
    @pytest.mark.parametrize(
        "argv",
        [
            ["labelgen", "--gt", "{gt}", "--gt-format", "icdar15", "--output", "{file}"],
            ["evaluate", "--detections", "{dir}", "--gt", "{gt}", "--gt-format", "icdar15"],
            ["proposal-recall", "--proposals", "{dir}", "--gt", "{gt}", "--gt-format", "icdar15"],
            ["nms", "--detections", "{dir}", "--output", "{out}"],
            ["decode", "{dir}"],
        ],
        ids=["labelgen-output-is-file", "evaluate", "proposal-recall", "nms", "decode"],
    )
    def test_exits_1_with_message(self, scene, capsys, argv):
        tmp, gt_dir, det_file, _ = scene
        a_dir = tmp / "somedir"
        a_dir.mkdir()
        paths = {"gt": gt_dir, "file": det_file, "dir": a_dir, "out": tmp / "out.txt"}
        rc = main([a.format(**paths) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno")
        assert "Traceback" not in err


class TestNegativeExponentValues:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "-1e3"], "error: scale factor k must be positive and finite as a float32, got -1000.0"),
            (["--scales", "8", "-1e3"], "error: scales must all be positive and finite, got (8.0, -1000.0)"),
            (["--sigma1", "-2E-1"], "error: shrink scales must lie in (0, 1], got -0.2, 0.5"),
        ],
    )
    def test_labelgen_option_checks_the_value(self, scene, tmp_path, capsys, flags, message):
        _, gt_dir, _, _ = scene
        out_dir = tmp_path / "maps"
        rc = main(["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", *flags, "--output", str(out_dir)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_type_error_shows_the_value_as_given(self, scene, tmp_path, capsys):
        # main marks a negative value with a leading space; the error must not show it
        _, gt_dir, _, _ = scene
        argv = ["labelgen", "--gt", str(gt_dir), "--gt-format", "icdar15", "--strides", "-1e3", "--output", str(tmp_path / "m")]
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "argument --strides: invalid int value: '-1e3'" in err
        assert "' -1e3'" not in err

    def test_nms_threshold_checks_the_value(self, scene, tmp_path, capsys):
        _, _, det_file, _ = scene
        rc = main(["nms", "--detections", str(det_file), "--nms-iou", "-1e-1", "--output", str(tmp_path / "o.txt")])
        assert rc == 2
        assert "error: nms iou threshold must lie in (0, 1), got -0.1" in capsys.readouterr().err

    def test_value_and_option_told_apart(self, scene, capsys):
        _, gt_dir, det_file, _ = scene
        gt = ["--gt", str(gt_dir), "--gt-format", "icdar15"]
        assert main(["evaluate", "--detections", str(det_file), *gt, "--iou-thresholds", "-5e-1", "0.5"]) == 2
        assert "error: iou threshold -0.5 outside (0, 1)" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["evaluate", "--detections", str(det_file), *gt, "-1x"])


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

    # a non-rectangular quad, a rotated box and a rectangle, each followed by a
    # don't-care or difficult line, which every format marks
    SOURCES = {
        "icdar15": "10,10,90,14,88,34,12,30,word\n0,0,20,0,20,10,0,10,###\n",
        "msra": "0 0 10 20 100 40 0.5\n1 1 10 20 100 40 0.5\n",
        "icdar13": "10, 20, 110, 60, hi\n0 0 5 5 ###\n",
    }

    @pytest.mark.parametrize(
        "src_fmt, dst_fmt, expected, lossy",
        [
            (
                "icdar15",
                "msra",
                [
                    "0 0 9.950031 11.950124 80.099938 20.099751 0.051237",
                    "1 1 0.000000 0.000000 20.000000 10.000000 0.000000",
                ],
                True,
            ),
            ("icdar15", "icdar13", ["9.49, 9.91, 90.51, 34.09, word", "0.00, 0.00, 20.00, 10.00, ###"], True),
            (
                "msra",
                "icdar15",
                [
                    "25.71,-1.52,113.47,46.42,94.29,81.52,6.53,33.58",
                    "25.71,-1.52,113.47,46.42,94.29,81.52,6.53,33.58,###",
                ],
                False,
            ),
            ("msra", "icdar13", ["6.53, -1.52, 113.47, 81.52", "6.53, -1.52, 113.47, 81.52, ###"], True),
            (
                "icdar13",
                "icdar15",
                [
                    "10.00,20.00,110.00,20.00,110.00,60.00,10.00,60.00,hi",
                    "0.00,0.00,5.00,0.00,5.00,5.00,0.00,5.00,###",
                ],
                False,
            ),
            (
                "icdar13",
                "msra",
                [
                    "0 0 10.000000 20.000000 100.000000 40.000000 0.000000",
                    "1 1 0.000000 0.000000 5.000000 5.000000 0.000000",
                ],
                False,
            ),
        ],
    )
    def test_cross_format_lines(self, tmp_path, src_fmt, dst_fmt, expected, lossy):
        # the note goes with a non-rectangular quad into msra and a rotated shape into icdar13 only
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text(self.SOURCES[src_fmt])
        code, out, err = run_main(["convert", "--input", src, "--from", src_fmt, "--to", dst_fmt, "--output", dst])
        assert (code, out) == (0, "")
        assert dst.read_text().splitlines() == expected
        assert err == ("note: conversion via rotated-box fitting is lossy for this format pair\n" if lossy else "")

    def test_dont_care_survives_msra_and_back(self, tmp_path):
        src, mid, back = tmp_path / "in.txt", tmp_path / "mid.txt", tmp_path / "back.txt"
        src.write_text(self.SOURCES["icdar15"])
        assert run_main(["convert", "--input", src, "--from", "icdar15", "--to", "msra", "--output", mid])[0] == 0
        assert run_main(["convert", "--input", mid, "--from", "msra", "--to", "icdar15", "--output", back])[0] == 0
        assert [line.endswith(",###") for line in back.read_text().splitlines()] == [False, True]

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


def run_main(argv):
    """``main`` in process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def reference_stats(proposals, cells):
    """``decode``'s stdout for a list of proposals, one ``math.log2`` per proposal."""
    ratios = np.array([math.log2(p.box.w / p.box.h) for p in proposals])
    angles = np.array([p.box.theta for p in proposals])
    lines = [f"active\t{len(proposals)}", f"cells\t{cells}", f"fraction\t{len(proposals) / cells if cells else 0.0:.4f}"]
    for name, values, lo, hi, bins, digits in (
        ("aspect_log2", ratios, 0.0, 4.0, 16, 2),
        ("angle", angles, -PI / 2, PI / 2, 18, 4),
    ):
        counts, edges = np.histogram(values, bins=np.linspace(lo, hi, bins + 1))
        lines += [f"{name}\t{a:.{digits}f}\t{b:.{digits}f}\t{c}" for c, a, b in zip(counts, edges[:-1], edges[1:])]
    return "".join(line + "\n" for line in lines)


def reference_nms(det_file, out_file, thr):
    """``nms`` through the line loop reader, the pairwise NMS loop and the f-string writer; its stderr note."""
    records, errors = loop_read_detection_file(det_file)
    assert errors == []
    groups = {}
    for image_id, p in records:
        groups.setdefault(image_id, []).append(p)
    kept = [(i, p) for i in sorted(groups) for p in loop_nms(groups[i], thr)]
    loop_write_detection_file(out_file, kept)
    return f"kept {len(kept)} of {len(records)} detections\n"


@st.composite
def map_images(draw):
    """Maps of 1-3 images plus one with no active cell, in an order that is not sorted by id.

    Scores sit on a grid of eighths (ties), shape offsets make w < h cells
    and orientations of exactly 0 and 1 put theta at -pi/2 and pi/2.
    """
    ids = draw(st.permutations(["b", "a9", "a10", "c"]))[: draw(st.integers(2, 4))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = {}
    for k, image_id in enumerate(ids):
        levels = [
            LevelSpec(stride=s, k=5.0, grid_w=draw(st.integers(1, 5)), grid_h=draw(st.integers(1, 5)))
            for s in draw(st.permutations([4, 8, 16]))[: draw(st.integers(1, 3))]
        ]
        active = 0.0 if k == len(ids) - 1 else draw(st.sampled_from([0.3, 0.7]))
        images[image_id] = [random_maps(rng, lv, active) for lv in levels]
    return images


class TestDetectionRecordPath:
    @given(
        map_images(),
        st.sampled_from([0.0, 0.125, 0.5]),
        st.one_of(st.none(), st.sampled_from([0.1, 0.3, 0.5])),
        st.one_of(st.none(), st.integers(1, 6)),
        st.randoms(use_true_random=False),
    )
    def test_decode_then_nms_equal_the_reference_path(self, tmp_path_factory, images, t_a, nms_iou, top_n, shuffle):
        tmp = tmp_path_factory.mktemp("record")
        paths = []
        for image_id, levels in images.items():
            for maps in levels:
                paths.append(tmp / f"{image_id}.s{maps.level.stride}.pmap")
                save_prediction_maps(maps, paths[-1])
        argv = ["decode", *paths, "--t-a", t_a, "--output", tmp / "dec.txt"]
        argv += ["--no-nms"] if nms_iou is None else ["--nms-iou", nms_iou]
        argv += [] if top_n is None else ["--top-n", top_n]
        code, out, err = run_main(argv)
        assert (code, err) == (0, "")

        want, cells = [], 0
        for image_id in sorted(images):
            levels = sorted(images[image_id], key=lambda m: m.level.stride)
            cells += sum(m.level.grid_w * m.level.grid_h for m in levels)
            props = cli_order([loop_decode(m, t_a) for m in levels])
            props = props if nms_iou is None else loop_nms(props, nms_iou)
            want += [(image_id, p) for p in props[:top_n]]
        loop_write_detection_file(tmp / "want.txt", want)
        assert out == reference_stats([p for _, p in want], cells)
        assert (tmp / "dec.txt").read_bytes() == (tmp / "want.txt").read_bytes()

        # nms on the decoded file, and on its lines in another order
        lines = (tmp / "dec.txt").read_text().splitlines(keepends=True)
        shuffle.shuffle(lines)
        (tmp / "shuffled.txt").write_text("".join(lines))
        for name in ("dec.txt", "shuffled.txt"):
            code, out, err = run_main(["nms", "--detections", tmp / name, "--output", tmp / "kept.txt"])
            note = reference_nms(tmp / name, tmp / "want_kept.txt", 0.3)
            assert (code, out, err) == (0, "", note)
            assert (tmp / "kept.txt").read_bytes() == (tmp / "want_kept.txt").read_bytes()

    def test_batch_commands_build_no_proposal(self, scene, tmp_path, monkeypatch):
        _, gt_dir, det_file, _ = scene

        def refuse(*args, **kwargs):
            raise AssertionError("a Proposal was built")

        monkeypatch.setattr(geom, "_proposals", refuse)
        monkeypatch.setattr(geom.Proposal, "__init__", refuse)
        gt = ["--gt", gt_dir, "--gt-format", "icdar15"]
        maps = tmp_path / "maps"
        assert run_main(["labelgen", *gt, "--image-width", 512, "--image-height", 384, "--output", maps])[0] == 0
        tmaps = sorted(maps.glob("*.tmap"))
        decoded, kept = tmp_path / "decoded.txt", tmp_path / "kept.txt"
        assert run_main(["decode", *tmaps, "--top-n", 50, "--output", tmp_path / "top.txt"])[0] == 0
        assert run_main(["decode", *tmaps, "--no-nms", "--output", decoded])[0] == 0
        assert run_main(["nms", "--detections", decoded, "--output", kept])[0] == 0
        for dets in (det_file, kept):
            assert run_main(["evaluate", "--detections", dets, *gt])[0] == 0
            assert run_main(["proposal-recall", "--proposals", dets, *gt])[0] == 0
        assert read_detection_file(kept)[0].boxes.shape[1] == 5
