import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rboxkit.formats import (
    AnnotationRecord,
    GeometryError,
    ParseError,
    Rect,
    format_icdar13_line,
    format_icdar15_line,
    format_msra_line,
    group_detections_by_image,
    parse_icdar13,
    parse_icdar15,
    parse_msra,
    read_annotation_file,
    read_detection_file,
    to_ground_truth,
    write_detection_file,
)
from rboxkit.geom import Proposal, Quad, RotatedBox, quad_to_rotated_box
from records import pairs, record, record_of_pairs

DATA = Path(__file__).parent / "data"

PI = math.pi


class TestParseIcdar15:
    def test_plain_word(self):
        rec = parse_icdar15("0,0,10,0,10,5,0,5,word")
        assert isinstance(rec.geometry, Quad)
        assert rec.transcription == "word"
        assert not rec.dont_care
        b = rec.to_rotated_box()
        assert (b.cx, b.cy, b.w, b.h, b.theta) == (5, 2.5, 10, 5, 0)

    def test_dont_care_sentinel(self):
        rec = parse_icdar15("0,0,10,0,10,5,0,5,###")
        assert rec.dont_care

    def test_transcription_keeps_commas(self):
        rec = parse_icdar15("0,0,10,0,10,5,0,5,a,b,c")
        assert rec.transcription == "a,b,c"

    def test_too_few_fields(self):
        with pytest.raises(ParseError, match="field 5"):
            parse_icdar15("0,0,10,0", lineno=3)

    def test_non_numeric(self):
        with pytest.raises(ParseError, match="not a number"):
            parse_icdar15("0,0,ten,0,10,5,0,5")

    def test_bom_and_whitespace_tolerated(self):
        rec = parse_icdar15("﻿0,0,10,0,10,5,0,5,word  \r")
        assert rec.transcription == "word"

    def test_self_intersecting_rejected(self):
        with pytest.raises(GeometryError):
            parse_icdar15("0,0,10,0,0,5,10,5,bowtie")


class TestParseMsra:
    def test_plain_box(self):
        rec = parse_msra("0 0 100 100 200 100 0")
        b = rec.geometry
        assert isinstance(b, RotatedBox)
        assert (b.cx, b.cy, b.w, b.h, b.theta) == (200, 150, 200, 100, 0)
        assert not rec.difficult

    def test_difficult_flag(self):
        assert parse_msra("1 1 0 0 10 10 0").difficult

    def test_angle_canonicalized_with_side_swap(self):
        rec = parse_msra("2 0 40 40 30 60 2.0")
        b = rec.geometry
        assert b.w >= b.h
        assert -PI / 2 <= b.theta < PI / 2
        # same rectangle: 60 is the long side, angle shifted by pi/2
        assert (b.w, b.h) == (60, 30)

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="7"):
            parse_msra("0 0 100 100 200 100")

    def test_negative_size(self):
        with pytest.raises(GeometryError):
            parse_msra("3 0 10 10 -5 10 0")


class TestParseIcdar13:
    def test_comma_form(self):
        rec = parse_icdar13("10, 20, 110, 60, hello")
        assert rec.geometry == Rect(10, 20, 110, 60)
        assert rec.transcription == "hello"

    def test_space_form(self):
        rec = parse_icdar13("10 20 110 60")
        assert rec.geometry == Rect(10, 20, 110, 60)
        assert rec.transcription is None

    def test_flipped_extents(self):
        with pytest.raises(GeometryError):
            parse_icdar13("110, 20, 10, 60")

    def test_to_rotated_box_is_flat(self):
        b = parse_icdar13("10, 20, 110, 60").to_rotated_box()
        assert (b.cx, b.cy, b.w, b.h, b.theta) == (60, 40, 100, 40, 0)


class TestGoldenFiles:
    def test_icdar15_good(self):
        records, errors = read_annotation_file(DATA / "gt_icdar15_good.txt", "icdar15")
        assert errors == []
        assert len(records) == 3
        assert records[0].transcription == "word"
        assert records[1].transcription == "The quick, brown fox"
        assert records[2].dont_care

    def test_icdar15_bad(self):
        records, errors = read_annotation_file(DATA / "gt_icdar15_bad.txt", "icdar15")
        assert len(records) == 1
        assert [e.lineno for e in errors] == [1, 2]

    def test_msra_good(self):
        records, errors = read_annotation_file(DATA / "gt_msra_good.txt", "msra")
        assert errors == []
        assert len(records) == 3
        assert records[1].difficult

    def test_msra_bad(self):
        records, errors = read_annotation_file(DATA / "gt_msra_bad.txt", "msra")
        assert records == []
        assert [e.lineno for e in errors] == [1, 2, 3]

    def test_icdar13_good(self):
        records, errors = read_annotation_file(DATA / "gt_icdar13_good.txt", "icdar13")
        assert errors == []
        assert len(records) == 3
        assert records[2].dont_care

    def test_icdar13_bad(self):
        records, errors = read_annotation_file(DATA / "gt_icdar13_bad.txt", "icdar13")
        assert records == []
        assert len(errors) == 3

    def test_quad_conversion_consistent_with_geometry_module(self):
        records, _ = read_annotation_file(DATA / "gt_icdar15_good.txt", "icdar15")
        for rec in records:
            direct = quad_to_rotated_box(rec.geometry)
            assert rec.to_rotated_box() == direct


class TestParserTotality:
    def test_arbitrary_bytes_never_crash(self):
        rng = np.random.default_rng(3)
        for parser in (parse_icdar13, parse_icdar15, parse_msra):
            for _ in range(300):
                n = int(rng.integers(0, 60))
                junk = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
                line = junk.decode("utf-8", errors="replace")
                try:
                    rec = parser(line, lineno=1)
                    assert isinstance(rec, AnnotationRecord)
                except ParseError:
                    pass


class TestWriteRead:
    def test_annotation_round_trips(self):
        cases = [
            AnnotationRecord(geometry=Rect(10, 20, 110, 60), transcription="hi"),
            AnnotationRecord(
                geometry=RotatedBox.make(50, 50, 40, 16, 0.3), difficult=True
            ),
            AnnotationRecord(
                geometry=Quad.from_points((0, 0), (10, 0), (10, 5), (0, 5)),
                transcription="word",
            ),
        ]
        r13 = parse_icdar13(format_icdar13_line(cases[0]))
        assert r13.geometry == cases[0].geometry

        r15 = parse_icdar15(format_icdar15_line(cases[2]))
        a = r15.to_rotated_box()
        b = cases[2].to_rotated_box()
        assert abs(a.cx - b.cx) < 1e-6 and abs(a.w - b.w) < 1e-6

        rm = parse_msra(format_msra_line(cases[1], index=4))
        a, b = rm.geometry, cases[1].geometry
        assert abs(a.cx - b.cx) < 1e-6
        assert abs(a.theta - b.theta) < 1e-6
        assert rm.difficult

    def test_detection_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        records = []
        for k in range(25):
            w = rng.uniform(5, 80)
            box = RotatedBox(
                rng.uniform(0, 600),
                rng.uniform(0, 600),
                w,
                rng.uniform(1, w),
                rng.uniform(-PI / 2, PI / 2 - 1e-9),
            )
            records.append((f"img_{k % 4}", Proposal(box=box, score=float(rng.random()))))
        p = tmp_path / "dets.txt"
        write_detection_file(p, record_of_pairs(records))
        back, errors = read_detection_file(p)
        assert errors == []
        assert len(back) == len(records)
        for (id_a, pa), (id_b, pb) in zip(records, pairs(back)):
            assert id_a == id_b
            assert abs(pa.box.cx - pb.box.cx) < 1e-6
            assert abs(pa.box.cy - pb.box.cy) < 1e-6
            assert abs(pa.box.w - pb.box.w) < 1e-6
            assert abs(pa.box.h - pb.box.h) < 1e-6
            assert abs(pa.box.theta - pb.box.theta) < 1e-6
            assert abs(pa.score - pb.score) < 1e-6

    def test_empty_detection_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        records, errors = read_detection_file(p)
        assert list(records) == [] and errors == []

    def test_bad_lines_collected_with_numbers(self, tmp_path):
        p = tmp_path / "dets.txt"
        p.write_text(
            "img_1 10 10 20 10 0.0 0.9\n"
            "img_1 10 10\n"
            "img_1 10 10 -20 10 0.0 0.9\n"
            "img_1 10 10 20 10 0.0 0.8\n"
        )
        records, errors = read_detection_file(p)
        assert len(records) == 2
        assert [e.lineno for e in errors] == [2, 3]
        assert isinstance(errors[1], GeometryError)

    def test_grouping(self, tmp_path):
        p = tmp_path / "dets.txt"
        p.write_text(
            "b 10 10 20 10 0.0 0.9\n"
            "a 10 10 20 10 0.0 0.9\n"
            "b 40 40 20 10 0.0 0.7\n"
        )
        records, _ = read_detection_file(p)
        groups = group_detections_by_image(records)
        assert list(groups) == ["b", "a"]
        assert len(groups["b"]) == 2
        # each group is a selection of the record, in file order, with the record's objects
        assert [p is q for p, q in zip(groups["b"], [records[0], records[2]])] == [True, True]
        assert groups["a"].image_ids.tolist() == ["a"]
        assert group_detections_by_image(record([])) == {}


def loop_read_detection_file(path):
    """Reference: the line-at-a-time reader with a float() call and box constructors per line."""
    records, errors = [], []
    with open(path, encoding="utf-8-sig", errors="replace", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.lstrip("\ufeff").strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 7:
                errors.append(ParseError(f"expected 7 fields, found {len(parts)}", lineno))
                continue
            vals = []
            for k, tok in enumerate(parts[1:]):
                try:
                    v = float(tok)
                except ValueError:
                    errors.append(ParseError(f"field {k + 2}: {tok!r} is not a number", lineno))
                    break
                if not math.isfinite(v):
                    errors.append(ParseError(f"field {k + 2}: non-finite value {tok!r}", lineno))
                    break
                vals.append(v)
            if len(vals) < 6:
                continue
            cx, cy, w, h, theta, score = vals
            try:
                prop = Proposal(box=RotatedBox.make(cx, cy, w, h, theta), score=score)
            except ValueError as e:
                errors.append(GeometryError(str(e), lineno))
                continue
            records.append((parts[0], prop))
    return records, errors


def loop_write_detection_file(path, records):
    """Reference: one f-string per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, prop in records:
            b = prop.box
            fh.write(
                f"{image_id} {b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f} "
                f"{b.theta:.6f} {prop.score:.6f}\n"
            )


def assert_reads_like_loop(path):
    got, want = read_detection_file(path), loop_read_detection_file(path)
    assert pairs(got[0]) == want[0]
    assert [(type(e), str(e), e.lineno) for e in got[1]] == [(type(e), str(e), e.lineno) for e in want[1]]
    return got


GOOD = "img_1 10 10 20 10 0.0 0.9"


class TestDetectionReaderMatchesLineLoop:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n\n\n",
            GOOD + "\r\n" + GOOD.replace("0.9", "0.8") + "\r\n",
            "\ufeff" + GOOD + "\n",
            "\ufeff\ufeff  " + GOOD + "\n\n   \n\t\n" + GOOD,
            GOOD + "\r" + GOOD + "\r\r" + GOOD,  # bare CR ends a line too
            # form feed, U+2028 and NEL are whitespace inside a line, not line breaks
            GOOD + " \x0c\n" + "img_2\u20281 2 3 4 0.5 0.5\n" + "img_3 1 2 3 4 0.5\x850.5\n",
            "a nan 1 2 3 0 0.5\nb 1 inf 2 3 0 0.5\nc 1 2 -inf 3 0 0.5\nd 1 2 3 4 0 NaN\n",
            "a 1_0 2_0 3_0 4 0 0.5\nb 1__0 2 3 4 0 0.5\nc 1 2 3 4 0 .5e0\nd 0x1 2 3 4 0 0.5\n",
            "a 1 2 3 4 0\nb 1 2 3 4 0 0.5 extra\n" + GOOD + "\nc\n",
            GOOD + "\na 1 2 0 4 0 0.5\nb 1 2 3 -4 0 0.5\nc 1 2 -0.0 -0.0 0 0.5\n" + GOOD + "\n",
            "a 1 2 3 4 1e300 0.5\nb 1e308 -1e308 1e-320 5e-324 -7.5 1e-300\nc 1 2 3 4 nan nan\n",
            "a 1 2 3 4 0 0.5\nb 1 2 3 4 0 0.5\na 1 2 4 3 1.5707963267948966 0.5\n",
        ],
    )
    def test_cases(self, tmp_path, text):
        p = tmp_path / "dets.txt"
        p.write_bytes(text.encode("utf-8"))
        assert_reads_like_loop(p)

    def test_bad_lines_among_many_good(self, tmp_path):
        rng = np.random.default_rng(11)
        lines = [
            f"img{k % 5} {x:.6f} {y:.6f} {w:.6f} {h:.6f} {t:.6f} {s:.6f}"
            for k, (x, y, w, h, t, s) in enumerate(rng.uniform(-3.0, 300.0, (500, 6)).tolist())
        ]
        for k in rng.choice(500, 40, replace=False).tolist():
            lines[k] = rng.choice(["", "x 1 2 3", "x 1 2 3 0 0 0.5", "x 1 2 nan 4 0 1", "x a 2 3 4 0 1"])
        p = tmp_path / "dets.txt"
        p.write_text("\r\n".join(lines))
        records, errors = assert_reads_like_loop(p)
        assert len(errors) > 0 and len(records) > 400

    def test_invalid_utf8_replaced(self, tmp_path):
        p = tmp_path / "dets.txt"
        p.write_bytes(b"\xff\xfe 1 2 3 4 0 0.5\nimg 1 2 3 4 0 0.5\xff\n" + GOOD.encode())
        assert_reads_like_loop(p)

    @given(
        st.lists(
            st.lists(
                st.sampled_from(
                    ["img", "a", "0", "1", "-1", "2.5", "1e3", "0.0", "-0.0", "nan", "inf", "1_0", "x"]
                    + ["1.5707963267948966"]
                ),
                max_size=9,
            ).map(" ".join),
            max_size=12,
        ),
        st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_token_soup(self, tmp_path_factory, lines, newline):
        p = tmp_path_factory.mktemp("soup") / "dets.txt"
        p.write_bytes(newline.join(lines).encode("utf-8"))
        assert_reads_like_loop(p)


class TestDetectionWriterMatchesFString:
    def test_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        records = []
        for k in range(300):
            w = float(rng.uniform(0.5, 1e4))
            cx, cy, h, theta = rng.uniform(-1e5, 1e5), rng.normal(0, 1), rng.uniform(1e-7, w), rng.uniform(-9, 9)
            box = RotatedBox.make(float(cx), float(cy), w, float(h), float(theta))
            records.append((f"img_{k % 7}", Proposal(box=box, score=float(rng.random()))))
        records.append(("edge", Proposal(box=RotatedBox(-0.0, 1e300, 1e300, 5e-324, -PI / 2), score=-0.0)))
        records.append(("half", Proposal(box=RotatedBox(0.0000005, 2.5e-7, 1.0000005, 0.0000015, 0.0), score=1.5)))
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        write_detection_file(got, record_of_pairs(records))
        loop_write_detection_file(want, records)
        assert got.read_bytes() == want.read_bytes()

    def test_empty(self, tmp_path):
        p = tmp_path / "dets.txt"
        write_detection_file(p, record([]))
        assert p.read_bytes() == b""

    @pytest.mark.parametrize("bad_id", ["img 1", "img\t1", "img\u20281"])
    def test_whitespace_id_writes_nothing(self, tmp_path, bad_id):
        good = Proposal(box=RotatedBox(10, 10, 20, 10, 0.0), score=0.9)
        p = tmp_path / "dets.txt"
        with pytest.raises(ValueError, match="must not contain whitespace"):
            write_detection_file(p, record_of_pairs([("ok", good), (bad_id, good)]))
        assert not p.exists()
        p.write_text("kept\n")
        with pytest.raises(ValueError) as e:
            write_detection_file(p, record_of_pairs([("ok", good), (bad_id, good), ("b 2", good)]))
        assert str(e.value) == f"image id {bad_id!r} must not contain whitespace"
        assert p.read_text() == "kept\n"


    def test_empty_id_writes_nothing(self, tmp_path):
        # an empty id would start its line with a space, which the reader splits away
        good = Proposal(box=RotatedBox(10, 10, 20, 10, 0.0), score=0.9)
        p = tmp_path / "dets.txt"
        with pytest.raises(ValueError, match="image id must not be empty"):
            write_detection_file(p, record_of_pairs([("ok", good), ("", good)]))
        assert not p.exists()
        p.write_text("kept\n")
        with pytest.raises(ValueError, match="image id must not be empty"):
            write_detection_file(p, record_of_pairs([("ok", good), ("", good)]))
        assert p.read_text() == "kept\n"


class TestDetectionFileOverwrittenInPlace:
    GOOD = Proposal(box=RotatedBox(10, 10, 20, 10, 0.0), score=0.9)

    def test_longer_file_trimmed_keeping_inode_and_mode(self, tmp_path):
        p, fresh = tmp_path / "dets.txt", tmp_path / "fresh.txt"
        write_detection_file(p, record_of_pairs([(f"img_{k}", self.GOOD) for k in range(20)]))
        os.chmod(p, 0o640)
        before = os.stat(p)
        write_detection_file(p, record_of_pairs([("b", self.GOOD)]))
        write_detection_file(fresh, record_of_pairs([("b", self.GOOD)]))
        after = os.stat(p)
        assert p.read_bytes() == fresh.read_bytes() == b"b 10.000000 10.000000 20.000000 10.000000 0.000000 0.900000\n"
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        write_detection_file(p, record([]))
        assert p.read_bytes() == b""

    def test_symlink_written_through(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("an older and much longer detection file\n" * 4)
        link.symlink_to(target)
        write_detection_file(link, record_of_pairs([("b", self.GOOD)]))
        assert link.is_symlink()
        assert target.read_bytes() == b"b 10.000000 10.000000 20.000000 10.000000 0.000000 0.900000\n"


class TestToGroundTruth:
    def test_flags(self):
        records = [
            AnnotationRecord(geometry=Rect(0, 0, 10, 10)),
            AnnotationRecord(geometry=Rect(0, 0, 10, 10), dont_care=True),
            AnnotationRecord(geometry=Rect(0, 0, 10, 10), difficult=True),
        ]
        gts = to_ground_truth(records)
        assert [g.dont_care for g in gts] == [False, True, True]
        gts2 = to_ground_truth(records, difficult_as_dont_care=False)
        assert [g.dont_care for g in gts2] == [False, True, False]
