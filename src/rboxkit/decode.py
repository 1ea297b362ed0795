"""Anchor decoding from predicted maps, polygon NMS and anchor statistics.

Prediction maps mirror the target-map grids: a probability per cell plus
normalized orientation and the two log-size shape offsets. Decoding turns
every sufficiently confident cell into one rotated-box proposal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import Proposal, RotatedBox, unit_to_angle
from .polyiou import iou
from .targets import (
    LOC_POSITIVE,
    LevelSpec,
    TargetMaps,
    _read_map,
    _write_map,
    cell_center,
    shape_decode,
)

PREDICTION_MAGIC = b"PMAP"
_PREDICTION_DTYPES = ("<f4",) * 4


@dataclass(frozen=True)
class DecodeParams:
    """Decoding knobs: the activation threshold t_a."""

    t_a: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.t_a <= 1.0:
            raise ValueError(f"t_a must lie in [0, 1], got {self.t_a}")


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
            if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
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


def decode_anchors(maps: PredictionMaps, params: DecodeParams = DecodeParams()) -> list[Proposal]:
    """One proposal per cell whose probability strictly exceeds t_a.

    The box center is the cell center, the angle comes from the orientation
    map, the sides from the shape map. Output is sorted by score descending
    with ties in (i, j) cell order.
    """
    lv = maps.level
    active = maps.location_prob > params.t_a
    proposals = []
    # transpose so ties come out ordered by i, then j
    for i, j in np.argwhere(active.T):
        p = cell_center(int(i), int(j), lv)
        w, h = shape_decode(float(maps.shape_dw[j, i]), float(maps.shape_dh[j, i]), lv)
        theta = unit_to_angle(float(maps.orientation[j, i]))
        box = RotatedBox.make(p.x, p.y, w, h, theta)
        proposals.append(Proposal(box=box, score=float(maps.location_prob[j, i])))
    proposals.sort(key=lambda pr: -pr.score)
    return proposals


def polygon_nms(proposals: list[Proposal], iou_threshold: float = 0.3) -> list[Proposal]:
    """Greedy non-maximum suppression with rotated-polygon overlap.

    Repeatedly keeps the best-scoring remaining proposal and drops the rest
    whose IoU against it strictly exceeds the threshold. Ties keep input
    order. The result is a subset of the input in score-descending order.
    """
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"nms iou threshold must lie in (0, 1), got {iou_threshold}")
    order = sorted(range(len(proposals)), key=lambda k: -proposals[k].score)
    kept: list[int] = []
    alive = [True] * len(proposals)
    for idx in order:
        if not alive[idx]:
            continue
        kept.append(idx)
        alive[idx] = False
        for jdx in order:
            if alive[jdx] and iou(proposals[idx].box, proposals[jdx].box) > iou_threshold:
                alive[jdx] = False
    return [proposals[k] for k in kept]


@dataclass(frozen=True)
class AnchorStats:
    """Active-anchor summary: count, fraction of cells, shape histograms."""

    count: int
    cells_total: int
    fraction: float
    aspect_log2_hist: tuple
    angle_hist: tuple


def anchor_statistics(
    proposals: list[Proposal],
    cells_total: int,
    aspect_bins: int = 16,
    angle_bins: int = 18,
) -> AnchorStats:
    """Histogram the decoded anchors' log2 aspect ratios and angles."""
    aspect_edges = np.linspace(0.0, 4.0, aspect_bins + 1)
    angle_edges = np.linspace(-math.pi / 2, math.pi / 2, angle_bins + 1)
    if proposals:
        ratios = np.array([math.log2(p.box.w / p.box.h) for p in proposals])
        angles = np.array([p.box.theta for p in proposals])
        a_counts, _ = np.histogram(ratios, bins=aspect_edges)
        t_counts, _ = np.histogram(angles, bins=angle_edges)
    else:
        a_counts = np.zeros(aspect_bins, dtype=np.int64)
        t_counts = np.zeros(angle_bins, dtype=np.int64)
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
    """Read a file written by :func:`save_prediction_maps`."""
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
