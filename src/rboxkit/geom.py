"""Rotated-rectangle and quadrilateral primitives.

Conventions used throughout the package:

* Coordinates are pixels in a plain x/y plane; angles are radians.
* A ``RotatedBox`` stores its long side in ``w`` and its short side in
  ``h``; ``theta`` is the direction of the long axis, canonicalized to
  the half-open interval [-pi/2, pi/2).
* Corner order of a box is counter-clockwise in the mathematical sense
  (positive shoelace area), starting at the corner that sits at local
  coordinate (-w/2, -h/2) before rotation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2.0

_DEGENERATE_AREA = 1e-9


def canonicalize_angle(theta: float) -> float:
    """Map an angle to the equivalent value in [-pi/2, pi/2).

    The mapping subtracts an integer multiple of pi, so a direction and
    its opposite collapse to the same canonical angle.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    if -HALF_PI <= theta < HALF_PI:
        return theta
    t = math.fmod(theta + HALF_PI, math.pi)
    if t < 0.0:
        t += math.pi
    t -= HALF_PI
    # fmod is exact but the shift above can round onto the upper boundary
    if t >= HALF_PI:
        t -= math.pi
    return t


def angle_distance(a: float, b: float) -> float:
    """Distance between two angles under pi-periodic identification."""
    return abs(canonicalize_angle(a - b))


def angle_to_unit(theta_g: float) -> float:
    """Normalize an angle in [-pi/2, pi/2] linearly to [0, 1]."""
    if not math.isfinite(theta_g):
        raise ValueError(f"angle must be finite, got {theta_g!r}")
    if theta_g < -HALF_PI or theta_g > HALF_PI:
        raise ValueError(f"angle {theta_g!r} outside [-pi/2, pi/2]; canonicalize first")
    return theta_g / math.pi + 0.5


def unit_to_angle(t: float) -> float:
    """Inverse of :func:`angle_to_unit`: map [0, 1] back to [-pi/2, pi/2]."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"normalized orientation {t!r} outside [0, 1]")
    return math.pi * (t - 0.5)


@dataclass(frozen=True)
class Point2:
    """A 2-D point in pixel coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x!r}, {self.y!r})")


@dataclass(frozen=True)
class RotatedBox:
    """Center/size/angle rectangle with w >= h and canonical angle."""

    cx: float
    cy: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "theta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if not self.h > 0.0:
            raise ValueError(f"sides must be positive, got h={self.h!r}")
        if self.w < self.h:
            raise ValueError(f"w must be the long side (w >= h), got w={self.w!r} h={self.h!r}")
        if self.theta < -HALF_PI or self.theta >= HALF_PI:
            raise ValueError(f"theta {self.theta!r} outside [-pi/2, pi/2)")

    @classmethod
    def make(cls, cx: float, cy: float, w: float, h: float, theta: float) -> "RotatedBox":
        """Build a box from unnormalized values.

        Swaps the side roles when w < h (rotating the angle by pi/2 so the
        rectangle is unchanged as a point set) and canonicalizes the angle.
        """
        if w < h:
            w, h = h, w
            theta = theta + HALF_PI
        return cls(cx, cy, w, h, canonicalize_angle(theta))

    @property
    def area(self) -> float:
        return self.w * self.h


@dataclass(frozen=True)
class Proposal:
    """A decoded box with its confidence score."""

    box: RotatedBox
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score!r}")


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """:meth:`RotatedBox.make` over (N, 5) rows of (cx, cy, w, h, theta), bit for bit.

    ``np.fmod`` is exact like ``math.fmod``, and the other steps are single
    IEEE operations, so each row equals the fields ``make`` would store. A
    non-finite theta, which ``make`` rejects, comes out as NaN.
    """
    cx, cy, w, h, theta = np.asarray(rows, dtype=np.float64).T
    swap = w < h
    theta = np.where(swap, theta + HALF_PI, theta)
    with np.errstate(invalid="ignore"):
        t = np.fmod(theta + HALF_PI, math.pi)
    t = np.where(t < 0.0, t + math.pi, t) - HALF_PI
    t = np.where(t >= HALF_PI, t - math.pi, t)
    inside = (theta >= -HALF_PI) & (theta < HALF_PI)
    return np.column_stack([cx, cy, np.where(swap, h, w), np.where(swap, w, h), np.where(inside, theta, t)])


def _valid_rows(rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Mask of the rows that pass the :class:`RotatedBox` and :class:`Proposal` checks."""
    _, _, w, h, theta = rows.T
    return (
        np.isfinite(rows).all(axis=1)
        & np.isfinite(scores)
        & (h > 0.0)
        & (w >= h)
        & (theta >= -HALF_PI)
        & (theta < HALF_PI)
    )


def _proposals(rows: np.ndarray, scores: np.ndarray) -> list[Proposal]:
    """One :class:`Proposal` per row of an (N, 5) box array and its score.

    Each goes through both constructors, so the first row that fails a check
    raises their own ``ValueError``.
    """
    return [Proposal(RotatedBox(*row), score) for row, score in zip(rows.tolist(), scores.tolist())]


class Detections(Sequence):
    """Detections as one array record, one row each: image ids, boxes and scores.

    ``image_ids`` is an (N,) object array of str, ``boxes`` an (N, 5) float64
    array of canonical (cx, cy, w, h, theta) rows and ``scores`` an (N,)
    float64 array, all read-only. The constructor raises the error of the
    first row that fails the :class:`RotatedBox` or :class:`Proposal` checks.
    As a read-only sequence of :class:`Proposal`, a record builds its objects
    once, when first indexed or iterated; a selection (:meth:`take` or a
    slice) yields the same objects as the record it was taken from.
    """

    __slots__ = ("image_ids", "boxes", "scores", "_base", "_rows", "_items")

    def __init__(self, image_ids, boxes, scores):
        ids = np.asarray(image_ids, dtype=object).reshape(-1)
        rows = np.asarray(boxes, dtype=np.float64).reshape(-1, 5)
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        if not len(ids) == len(rows) == len(scores):
            raise ValueError(f"{len(ids)} image ids, {len(rows)} boxes and {len(scores)} scores")
        if not _valid_rows(rows, scores).all():
            _proposals(rows, scores)  # raises the first bad row's error
        self._set(ids, rows, scores, None, None)

    def _set(self, ids, rows, scores, base, picked) -> None:
        self.image_ids, self.boxes, self.scores = ids.view(), rows.view(), scores.view()
        for values in (self.image_ids, self.boxes, self.scores):
            values.flags.writeable = False
        self._base, self._rows, self._items = base, picked, None

    def take(self, rows) -> "Detections":
        """The selection of ``rows`` (indices into this record), in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        out = object.__new__(Detections)
        base = self if self._base is None else self._base
        picked = rows if self._rows is None else self._rows.take(rows)
        out._set(self.image_ids.take(rows), self.boxes.take(rows, axis=0), self.scores.take(rows), base, picked)
        return out

    def _objects(self) -> list[Proposal]:
        if self._items is None:
            if self._base is None:
                self._items = _proposals(self.boxes, self.scores)
            else:
                items = self._base._objects()
                self._items = [items[k] for k in self._rows.tolist()]
        return self._items

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(np.arange(len(self))[key])
        return self._objects()[key]

    def __iter__(self):
        return iter(self._objects())


def _image_codes(image_ids) -> np.ndarray:
    """``np.unique(ids, return_inverse=True)`` codes from the ids as objects (a str array strips trailing NULs)."""
    ids = np.asarray(image_ids, dtype=object).tolist()
    rank = {image_id: k for k, image_id in enumerate(sorted(set(ids)))}
    return np.fromiter(map(rank.__getitem__, ids), dtype=np.intp, count=len(ids))


@dataclass(frozen=True)
class GroundTruthItem:
    box: RotatedBox
    dont_care: bool = False


@dataclass(frozen=True)
class Quad:
    """Convex simple quadrilateral, vertices stored in order A, B, C, D."""

    vertices: tuple[Point2, Point2, Point2, Point2]

    def __post_init__(self):
        if len(self.vertices) != 4:
            raise ValueError(f"quad needs exactly 4 vertices, got {len(self.vertices)}")
        pts = [(p.x, p.y) for p in self.vertices]
        area2 = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            area2 += x0 * y1 - x1 * y0
        if abs(area2) / 2.0 <= _DEGENERATE_AREA:
            raise ValueError("degenerate quad: area is (near) zero")
        sign = 1.0 if area2 > 0 else -1.0
        for i in range(4):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % 4]
            cx, cy = pts[(i + 2) % 4]
            e1x, e1y = bx - ax, by - ay
            e2x, e2y = cx - bx, cy - by
            cross = e1x * e2y - e1y * e2x
            norm = math.hypot(e1x, e1y) * math.hypot(e2x, e2y)
            if norm > 0.0 and sign * cross / norm < -1e-9:
                raise ValueError("quad is not convex (or self-intersecting)")

    @classmethod
    def from_points(cls, *pts) -> "Quad":
        """Build from four (x, y) pairs or Point2 values."""
        verts = tuple(p if isinstance(p, Point2) else Point2(float(p[0]), float(p[1])) for p in pts)
        return cls(verts)  # type: ignore[arg-type]


@dataclass(frozen=True)
class AugmentTransform:
    """Rotation about the image center by ``theta0``, for an lw x lh image."""

    lw: float
    lh: float
    theta0: float

    def __post_init__(self):
        if not (self.lw > 0.0 and self.lh > 0.0):
            raise ValueError(f"image dimensions must be positive, got {self.lw!r} x {self.lh!r}")
        if not math.isfinite(self.theta0) or abs(self.theta0) > HALF_PI:
            raise ValueError(f"rotation angle {self.theta0!r} outside [-pi/2, pi/2]")


def _segment_angle(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Direction angle of segment a->b, canonicalized.

    atan2 on the direction vector handles vertical segments where a slope
    ratio would blow up.
    """
    return canonicalize_angle(math.atan2(b[1] - a[1], b[0] - a[0]))


def quad_to_rotated_box(q: Quad) -> RotatedBox:
    """Fit a rotated box to a quad.

    Center is the vertex mean, w/h are the longer/shorter of |AB| and |AD|,
    and the angle follows the longer of the two mid-segments EG / HF built
    from the edge midpoints (HF on ties).
    """
    a, b, c, d = [(p.x, p.y) for p in q.vertices]
    cx = (a[0] + b[0] + c[0] + d[0]) / 4.0
    cy = (a[1] + b[1] + c[1] + d[1]) / 4.0
    ab = math.hypot(b[0] - a[0], b[1] - a[1])
    ad = math.hypot(d[0] - a[0], d[1] - a[1])
    w, h = max(ab, ad), min(ab, ad)
    if h <= 0.0:
        raise ValueError("degenerate quad: zero-length side")
    e = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    f = ((b[0] + c[0]) / 2.0, (b[1] + c[1]) / 2.0)
    g = ((c[0] + d[0]) / 2.0, (c[1] + d[1]) / 2.0)
    hm = ((d[0] + a[0]) / 2.0, (d[1] + a[1]) / 2.0)
    len_eg = math.hypot(g[0] - e[0], g[1] - e[1])
    len_hf = math.hypot(f[0] - hm[0], f[1] - hm[1])
    if len_eg > len_hf:
        theta = _segment_angle(e, g)
    else:
        theta = _segment_angle(hm, f)
    return RotatedBox(cx, cy, w, h, theta)


# corner offsets in half-side units along the box's own axes, counter-clockwise from (-w/2, -h/2)
_CORNER_U = np.array([-1.0, 1.0, 1.0, -1.0])
_CORNER_V = np.array([-1.0, -1.0, 1.0, 1.0])


def _corners(rows) -> tuple[np.ndarray, np.ndarray]:
    """x and y, each (N, 4), of the corners of (N, 5) rows of (cx, cy, w, h, theta), as :func:`box_corners` orders them.

    Cosine and sine go through libm one value at a time, so no row's corners depend on the others.
    """
    cx, cy, w, h, theta = np.asarray(rows, dtype=np.float64).reshape(-1, 5).T
    c, s = (np.fromiter(map(f, theta.tolist()), np.float64, len(theta))[:, None] for f in (math.cos, math.sin))
    u, v = (w / 2.0)[:, None] * _CORNER_U, (h / 2.0)[:, None] * _CORNER_V
    return cx[:, None] + u * c - v * s, cy[:, None] + u * s + v * c


def box_corners(b: RotatedBox) -> np.ndarray:
    """4x2 array of corner coordinates, counter-clockwise from (-w/2, -h/2)."""
    x, y = _corners((b.cx, b.cy, b.w, b.h, b.theta))
    return np.column_stack([x[0], y[0]])


def rotated_box_to_quad(b: RotatedBox) -> Quad:
    """Corners of a box as a Quad; inverse of :func:`quad_to_rotated_box`."""
    pts = box_corners(b)
    return Quad.from_points(*[tuple(p) for p in pts])


def apply_rotation(t: AugmentTransform, p: Point2) -> Point2:
    """Rotate a point about the image center (lw/2, lh/2) by theta0.

    The rotation matrix has +sin in the first row, so positive theta0 turns
    the +x axis toward -y. Applied in stages (translate, rotate, translate
    back) so the center is an exact fixed point.
    """
    x = p.x - t.lw / 2.0
    y = p.y - t.lh / 2.0
    c, s = math.cos(t.theta0), math.sin(t.theta0)
    xr = x * c + y * s
    yr = -x * s + y * c
    return Point2(xr + t.lw / 2.0, yr + t.lh / 2.0)


def rotate_box(t: AugmentTransform, b: RotatedBox) -> RotatedBox:
    """Map a box through the image rotation.

    The center moves like any point; sides are unchanged. Under this
    rotation sense the long-axis direction (cos th, sin th) maps to
    (cos(th - theta0), sin(th - theta0)), so the angle composes as
    th - theta0 (verified against refitting the four rotated corners).
    """
    center = apply_rotation(t, Point2(b.cx, b.cy))
    return RotatedBox(center.x, center.y, b.w, b.h, canonicalize_angle(b.theta - t.theta0))
