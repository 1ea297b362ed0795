"""Anchor decoding from predicted maps, polygon NMS and anchor statistics.

Prediction maps mirror the target-map grids: a probability per cell plus
normalized orientation and the two log-size shape offsets. Decoding turns
every cell whose probability exceeds one threshold t_a into one row of a
detection record, all cells of a level at once; polygon NMS then thins
each image of a record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import Detections, _canonical_rows, _image_codes, _valid_rows, unit_to_angle
from .polyiou import greedy_nms
from .targets import (
    LOC_POSITIVE,
    LevelSpec,
    TargetMaps,
    _read_map,
    _write_map,
    shape_decode,
)

PREDICTION_MAGIC = b"PMAP"
_PREDICTION_DTYPES = ("<f4",) * 4
# anchor_statistics histograms: log2 aspect ratio over [0, 4], angle over [-pi/2, pi/2]
_ASPECT_BINS = 16
_ANGLE_BINS = 18


@dataclass
class PredictionMaps:
    """Per-level predicted grids, all shaped (grid_h, grid_w)."""

    level: LevelSpec
    location_prob: np.ndarray = field(repr=False)
    orientation: np.ndarray = field(repr=False)
    shape_dw: np.ndarray = field(repr=False)
    shape_dh: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (self.level.grid_h, self.level.grid_w)
        for name in ("location_prob", "orientation", "shape_dw", "shape_dh"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} grid shape {arr.shape} != level grid {shape}")
        for name in ("location_prob", "orientation"):
            arr = getattr(self, name)
            if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN propagates and fails both
                raise ValueError(f"{name} must lie in [0, 1]")


def ideal_predictions(target: TargetMaps) -> PredictionMaps:
    """Prediction maps that reproduce a target map exactly.

    Positive cells get probability 1, everything else 0 (so ignore cells
    stay inactive); undefined orientations default to the mid value.
    """
    prob = (target.location == LOC_POSITIVE).astype(np.float32)
    orientation = np.where(np.isfinite(target.orientation), target.orientation, 0.5)
    return PredictionMaps(
        level=target.level,
        location_prob=prob,
        orientation=orientation.astype(np.float32),
        shape_dw=target.shape_dw.astype(np.float32),
        shape_dh=target.shape_dh.astype(np.float32),
    )


def decode_anchors(maps: PredictionMaps, t_a: float = 0.05) -> Detections:
    """One detection row per cell whose probability strictly exceeds the activation threshold t_a.

    ``t_a`` must lie in [0, 1]. The box center is the cell center, the angle comes from the orientation
    map, the sides from the shape map. Rows are sorted by score descending
    with ties in (i, j) cell order, and their image ids are empty: a map
    does not know its image. All active cells are decoded at once; the
    first cell in (i, j) order that cannot be decoded raises the ``ValueError``
    of the scalar step it fails (``shape_decode``, ``unit_to_angle`` or the
    box and proposal checks).
    """
    if not 0.0 <= t_a <= 1.0:
        raise ValueError(f"t_a must lie in [0, 1], got {t_a}")
    lv = maps.level
    # the transpose lists the cells by i, then j
    i, j = np.divmod(np.flatnonzero((maps.location_prob > t_a).T), lv.grid_h)
    dw = maps.shape_dw[j, i].astype(np.float64)
    dh = maps.shape_dh[j, i].astype(np.float64)
    unit = maps.orientation[j, i].astype(np.float64)
    scores = maps.location_prob[j, i].astype(np.float64)
    ew, eh = _exp(dw), _exp(dh)
    finite = np.isfinite(dw) & np.isfinite(dh) & np.isfinite(ew) & np.isfinite(eh)
    undecodable = ~(finite & (unit >= 0.0) & (unit <= 1.0))
    with np.errstate(over="ignore"):  # an infinite side fails the box check below
        w, h = lv.base_size * ew, lv.base_size * eh
    centres = [(i + 0.5) * lv.stride, (j + 0.5) * lv.stride]
    rows = _canonical_rows(np.column_stack([*centres, w, h, math.pi * (unit - 0.5)]))
    if undecodable.any():
        # the first bad cell raises the error of the first step it fails: the
        # scalar codec here, the box and proposal checks in the record below
        k = int(np.argmax(undecodable | ~_valid_rows(rows, scores)))
        shape_decode(float(dw[k]), float(dh[k]), lv)
        unit_to_angle(float(unit[k]))
    cells = Detections(np.full(len(scores), "", dtype=object), rows, scores)
    return cells.take(np.argsort(-scores, kind="stable"))


def _exp(values: np.ndarray) -> np.ndarray:
    """libm ``exp`` of each value, inf where it overflows.

    ``np.exp`` may differ from libm in the last bit on SIMD builds, and the
    decoded sides must equal those of :func:`shape_decode`.
    """
    values = values.tolist()
    try:
        return np.array(list(map(math.exp, values)), dtype=np.float64)
    except OverflowError:
        return np.array(list(map(_exp_or_inf, values)), dtype=np.float64)


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def polygon_nms(proposals: Detections, iou_threshold: float = 0.3) -> Detections:
    """Greedy non-maximum suppression with rotated-polygon overlap, within each image of a record.

    Per image, repeatedly keeps the best-scoring remaining row and drops the
    image's other rows whose IoU against it strictly exceeds the threshold.
    Ties keep input order. The result is a selection of the input: each
    image's kept rows in score-descending order, images in sorted-id order.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"nms iou threshold must lie in (0, 1), got {iou_threshold}")
    images = _image_codes(proposals.image_ids)
    order = np.lexsort((-proposals.scores, images))
    kept = greedy_nms(proposals.boxes.take(order, axis=0), iou_threshold, images.take(order))
    return proposals.take(order[kept])


@dataclass(frozen=True)
class AnchorStats:
    """Active-anchor summary: count, fraction of cells, shape histograms."""

    count: int
    cells_total: int
    fraction: float
    aspect_log2_hist: tuple
    angle_hist: tuple


def anchor_statistics(proposals: Detections, cells_total: int) -> AnchorStats:
    """Histogram the decoded anchors' log2 aspect ratios and angles."""
    aspect_edges = np.linspace(0.0, 4.0, _ASPECT_BINS + 1)
    angle_edges = np.linspace(-math.pi / 2, math.pi / 2, _ANGLE_BINS + 1)
    _, _, w, h, angles = proposals.boxes.T
    # libm log2 one value at a time, as a scalar caller computes it
    ratios = np.array(list(map(math.log2, (w / h).tolist())), dtype=np.float64)
    a_counts, _ = np.histogram(ratios, bins=aspect_edges)
    t_counts, _ = np.histogram(angles, bins=angle_edges)
    fraction = len(proposals) / cells_total if cells_total > 0 else 0.0
    return AnchorStats(
        count=len(proposals),
        cells_total=cells_total,
        fraction=fraction,
        aspect_log2_hist=(a_counts, aspect_edges),
        angle_hist=(t_counts, angle_edges),
    )


def save_prediction_maps(maps: PredictionMaps, path) -> None:
    """Write the map-file header with magic "PMAP", then four float32 grids.

    Grids: probability, orientation, shape_dw, shape_dh.
    """
    grids = (maps.location_prob, maps.orientation, maps.shape_dw, maps.shape_dh)
    _write_map(path, PREDICTION_MAGIC, maps.level, grids, _PREDICTION_DTYPES)


def load_prediction_maps(path) -> PredictionMaps:
    """Read a file written by :func:`save_prediction_maps`, from its path or its ``_read_file`` buffer."""
    level, (prob, orientation, shape_dw, shape_dh) = _read_map(
        path, PREDICTION_MAGIC, _PREDICTION_DTYPES
    )
    return PredictionMaps(
        level=level,
        location_prob=prob,
        orientation=orientation,
        shape_dw=shape_dw,
        shape_dh=shape_dh,
    )
