"""Readers and writers for ground-truth annotation styles and detection files.

Three annotation line formats are supported:

* quad style (ICDAR2015): ``x1,y1,x2,y2,x3,y3,x4,y4[,transcription]``,
  transcription "###" marking an unreadable don't-care region;
* rotated-box style (MSRA-TD500): ``index difficulty x y w h theta`` with
  (x, y) the top-left of the unrotated rectangle and theta in radians,
  rotating about the rectangle center;
* horizontal style (ICDAR2013): ``xmin, ymin, xmax, ymax[, transcription]``
  with comma or whitespace separators.

A difficult or don't-care record is written as difficulty 1 in the MSRA
style and as transcription "###" in the ICDAR styles.

Detection files are one line per box: ``image_id cx cy w h theta score``
(space separated, six decimals). All readers accept LF or CRLF endings,
skip blank lines and tolerate a UTF-8 byte-order mark. Detections are
read into and written from one :class:`~rboxkit.geom.Detections` record.
The reader parses a whole file at once and sends only the lines that fail
its array checks through the per-line parser, which reports each one. The
writer checks every id and encodes its UTF-8 text before it overwrites its file in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (
    Detections,
    GroundTruthItem,
    Proposal,
    Quad,
    RotatedBox,
    _canonical_rows,
    _valid_rows,
    box_corners,
    quad_to_rotated_box,
    rotated_box_to_quad,
)
from .targets import _write_file

GT_FORMATS = ("icdar13", "icdar15", "msra")

DONT_CARE_SENTINEL = "###"

# %-formatting writes the same text as the format spec .6f
_DETECTION_LINE = "%s %.6f %.6f %.6f %.6f %.6f %.6f\n"


class ParseError(ValueError):
    """A malformed input line; carries the 1-based line number when known."""

    def __init__(self, message: str, lineno: int = 0):
        super().__init__(f"line {lineno}: {message}" if lineno else message)
        self.lineno = lineno


class GeometryError(ParseError):
    """A syntactically fine line describing impossible geometry."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, xmin < xmax and ymin < ymax."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.xmin, self.ymin, self.xmax, self.ymax))):
            raise ValueError("rectangle coordinates must be finite")
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ValueError(
                f"empty rectangle ({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )

    def to_rotated_box(self) -> RotatedBox:
        return RotatedBox.make(
            (self.xmin + self.xmax) / 2.0,
            (self.ymin + self.ymax) / 2.0,
            self.xmax - self.xmin,
            self.ymax - self.ymin,
            0.0,
        )


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotated region: exactly one geometry flavour plus the flags."""

    geometry: Quad | RotatedBox | Rect
    transcription: str | None = None
    dont_care: bool = False
    difficult: bool = False

    def to_rotated_box(self) -> RotatedBox:
        """Uniform rotated-box view; lossy for non-rectangular quads."""
        if isinstance(self.geometry, RotatedBox):
            return self.geometry
        if isinstance(self.geometry, Rect):
            return self.geometry.to_rotated_box()
        return quad_to_rotated_box(self.geometry)


def _clean(line: str) -> str:
    return line.lstrip("﻿").strip()


def _float_field(tok: str, pos: int, lineno: int) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"field {pos}: {tok!r} is not a number", lineno) from None
    if not math.isfinite(v):
        raise ParseError(f"field {pos}: non-finite value {tok!r}", lineno)
    return v


def parse_icdar15(line: str, lineno: int = 0) -> AnnotationRecord:
    """Quad annotation line; the ninth comma field onward is the transcription."""
    text = _clean(line)
    parts = text.split(",", 8)
    if len(parts) < 8:
        raise ParseError(
            f"field {len(parts) + 1}: expected 8 coordinates, found {len(parts)} fields", lineno
        )
    coords = [_float_field(tok.strip(), k + 1, lineno) for k, tok in enumerate(parts[:8])]
    transcription = parts[8].strip() if len(parts) > 8 else None
    try:
        quad = Quad.from_points(*zip(coords[0::2], coords[1::2]))
    except ValueError as e:
        raise GeometryError(str(e), lineno) from None
    return AnnotationRecord(
        geometry=quad,
        transcription=transcription,
        dont_care=transcription == DONT_CARE_SENTINEL,
    )


def parse_msra(line: str, lineno: int = 0) -> AnnotationRecord:
    """Rotated-box annotation line: index difficulty x y w h theta."""
    text = _clean(line)
    parts = text.split()
    if len(parts) != 7:
        raise ParseError(f"expected 7 whitespace-separated fields, found {len(parts)}", lineno)
    vals = [_float_field(tok, k + 1, lineno) for k, tok in enumerate(parts)]
    _, difficulty, x, y, w, h, theta = vals
    if w <= 0 or h <= 0:
        raise GeometryError(f"non-positive box size {w} x {h}", lineno)
    box = RotatedBox.make(x + w / 2.0, y + h / 2.0, w, h, theta)
    return AnnotationRecord(geometry=box, difficult=difficulty != 0)


def parse_icdar13(line: str, lineno: int = 0) -> AnnotationRecord:
    """Horizontal annotation line, comma or whitespace separated."""
    text = _clean(line)
    if "," in text:
        parts = [p.strip() for p in text.split(",", 4)]
    else:
        parts = text.split(None, 4)
    if len(parts) < 4:
        raise ParseError(f"expected 4 coordinates, found {len(parts)} fields", lineno)
    coords = [_float_field(parts[k], k + 1, lineno) for k in range(4)]
    transcription = parts[4].strip() if len(parts) > 4 else None
    try:
        rect = Rect(*coords)
    except ValueError as e:
        raise GeometryError(str(e), lineno) from None
    return AnnotationRecord(
        geometry=rect,
        transcription=transcription,
        dont_care=transcription == DONT_CARE_SENTINEL,
    )


_PARSERS = {"icdar13": parse_icdar13, "icdar15": parse_icdar15, "msra": parse_msra}


def format_icdar15_line(rec: AnnotationRecord) -> str:
    if isinstance(rec.geometry, Quad):
        quad = rec.geometry
    else:
        quad = rotated_box_to_quad(rec.to_rotated_box())
    coords = ",".join(f"{v:.2f}" for p in quad.vertices for v in (p.x, p.y))
    text = DONT_CARE_SENTINEL if (rec.dont_care or rec.difficult) else (rec.transcription or "")
    return f"{coords},{text}" if text else coords


def format_msra_line(rec: AnnotationRecord, index: int = 0) -> str:
    b = rec.to_rotated_box()
    difficulty = 1 if (rec.difficult or rec.dont_care) else 0
    x = b.cx - b.w / 2.0
    y = b.cy - b.h / 2.0
    return f"{index} {difficulty} {x:.6f} {y:.6f} {b.w:.6f} {b.h:.6f} {b.theta:.6f}"


def _icdar13_rect(rec: AnnotationRecord) -> Rect:
    """The rectangle the horizontal style writes: a Rect as it is, any other shape's rotated-box bounds."""
    if isinstance(rec.geometry, Rect):
        return rec.geometry
    pts = box_corners(rec.to_rotated_box())
    return Rect(pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max())


def format_icdar13_line(rec: AnnotationRecord) -> str:
    r = _icdar13_rect(rec)
    base = f"{r.xmin:.2f}, {r.ymin:.2f}, {r.xmax:.2f}, {r.ymax:.2f}"
    text = DONT_CARE_SENTINEL if (rec.dont_care or rec.difficult) else (rec.transcription or "")
    return f"{base}, {text}" if text else base


def read_annotation_file(path, fmt: str) -> tuple[list[AnnotationRecord], list[ParseError]]:
    """Parse a whole file in one of :data:`GT_FORMATS`; malformed lines are collected, not fatal."""
    if fmt not in _PARSERS:
        raise ValueError(f"unknown ground-truth format {fmt!r}, expected one of {GT_FORMATS}")
    parse = _PARSERS[fmt]
    records: list[AnnotationRecord] = []
    errors: list[ParseError] = []
    with open(path, encoding="utf-8-sig", errors="replace", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _clean(raw)
            if not line:
                continue
            try:
                records.append(parse(line, lineno))
            except ParseError as e:
                errors.append(e)
    return records, errors


def to_ground_truth(records, difficult_as_dont_care: bool = True) -> list[GroundTruthItem]:
    """Ground-truth items for the evaluator, rotating every geometry flavour."""
    out = []
    for rec in records:
        dc = rec.dont_care or (difficult_as_dont_care and rec.difficult)
        out.append(GroundTruthItem(box=rec.to_rotated_box(), dont_care=dc))
    return out


def write_detection_file(path, records: Detections) -> None:
    """One ``image_id cx cy w h theta score`` line per row of a detection record.

    Each distinct image id is checked before the file is opened, so an
    empty id or one with whitespace, which would not read back, leaves no
    file behind and an existing one as it was.
    """
    image_ids = records.image_ids.tolist()
    for image_id in dict.fromkeys(image_ids):
        if not image_id:
            raise ValueError("image id must not be empty")
        if any(ch.isspace() for ch in image_id):
            raise ValueError(f"image id {image_id!r} must not contain whitespace")
    rows = zip(image_ids, *records.boxes.T.tolist(), records.scores.tolist())
    _write_file(path, ["".join(map(_DETECTION_LINE.__mod__, rows)).encode()])


def read_detection_file(path) -> tuple[Detections, list[ParseError]]:
    """Inverse of :func:`write_detection_file`; failures are collected per line.

    The whole file is split into lines and fields at once, every number is
    converted with ``float`` and the rows are checked with array masks. Only
    the lines that fail those checks go through :func:`_parse_detection_line`,
    which gives each its error and line number. The good lines form one
    record, in file order.
    """
    with open(path, encoding="utf-8-sig", errors="replace", newline=None) as fh:
        lines = fh.read().split("\n")
    fields = [line.lstrip("\ufeff").split() for line in lines]
    counts = np.fromiter(map(len, fields), dtype=np.intp, count=len(fields))
    full = np.flatnonzero(counts == 7)
    numbers = [tok for k in full.tolist() for tok in fields[k][1:]]
    try:
        values = list(map(float, numbers))
    except ValueError:
        values = list(map(_float_or_nan, numbers))
    values = np.array(values, dtype=np.float64).reshape(-1, 6)
    rows = _canonical_rows(values[:, :5])
    ok = _valid_rows(rows, values[:, 5])
    failed = np.concatenate([np.flatnonzero((counts != 0) & (counts != 7)), full[~ok]])
    errors: list[ParseError] = []
    # the masks are the per-line checks, so each of these lines raises
    for k in np.sort(failed).tolist():
        try:
            _parse_detection_line(lines[k], k + 1)
        except ParseError as e:
            errors.append(e)
    image_ids = [fields[k][0] for k in full[ok].tolist()]
    return Detections(image_ids, rows[ok], values[ok, 5]), errors


def _float_or_nan(tok: str) -> float:
    try:
        return float(tok)
    except ValueError:
        return math.nan


def _parse_detection_line(line: str, lineno: int) -> None:
    """Raise the :class:`ParseError` that locates a detection line's fault, if it has one."""
    parts = _clean(line).split()
    if len(parts) != 7:
        raise ParseError(f"expected 7 fields, found {len(parts)}", lineno)
    cx, cy, w, h, theta, score = [_float_field(tok, k + 2, lineno) for k, tok in enumerate(parts[1:])]
    try:
        Proposal(box=RotatedBox.make(cx, cy, w, h, theta), score=score)
    except ValueError as e:
        raise GeometryError(str(e), lineno) from None


def group_detections_by_image(records: Detections) -> dict[str, Detections]:
    """Selections of a record by image id, ids in first-seen order, rows in record order."""
    image_ids = records.image_ids.tolist()
    codes = {image_id: k for k, image_id in enumerate(dict.fromkeys(image_ids))}
    code = np.fromiter(map(codes.__getitem__, image_ids), dtype=np.intp, count=len(image_ids))
    bounds = np.concatenate([[0], np.cumsum(np.bincount(code, minlength=len(codes)))]).tolist()
    order = np.argsort(code, kind="stable")
    return {image_id: records.take(order[lo:hi]) for image_id, lo, hi in zip(codes, bounds, bounds[1:])}
