"""Training-target generation for anchor maps, plus the shape and box-delta codecs.

Grid conventions: a feature level with stride ``s`` has ``grid_w`` cells
along x and ``grid_h`` along y. Cell (i, j) covers the pixel whose center
is ((i + 1/2) s, (j + 1/2) s). Arrays are stored numpy-style with shape
(grid_h, grid_w) and indexed [j, i].

Location classes use byte values 0 = negative, 1 = positive, 255 = ignore,
matching the serialized layout (see :func:`save_target_maps`).
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geom import Point2, RotatedBox, angle_to_unit, canonicalize_angle

LOC_NEGATIVE = 0
LOC_POSITIVE = 1
LOC_IGNORE = 255

_HEADER = struct.Struct("<4sIIIf")
TARGET_MAGIC = b"TMAP"
_TARGET_DTYPES = (np.uint8, "<f4", "<f4", "<f4", np.uint8)


@dataclass(frozen=True)
class LevelSpec:
    """One feature-pyramid level: stride, shape-codec scale factor, grid size."""

    stride: int
    k: float = 5.0
    grid_w: int = 1
    grid_h: int = 1
    long_ratios_enabled: bool = False

    def __post_init__(self):
        # the map-file header stores stride as u32 and k as f32
        if not 1 <= self.stride <= 2**32 - 1:
            raise ValueError(f"stride must lie in [1, 2**32 - 1], got {self.stride}")
        with np.errstate(over="ignore"):
            k32 = np.float32(self.k)
        if not (np.isfinite(k32) and k32 > 0):
            raise ValueError(f"scale factor k must be positive and finite as a float32, got {self.k}")
        if self.grid_w < 1 or self.grid_h < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.grid_w}x{self.grid_h}")

    @property
    def base_size(self) -> float:
        return self.k * self.stride


@dataclass(frozen=True)
class ShrinkParams:
    """Scale pair for the positive core region inside a ground-truth box."""

    sigma1: float = 0.4
    sigma2: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.sigma1 <= 1.0 and 0.0 < self.sigma2 <= 1.0):
            raise ValueError(f"shrink scales must lie in (0, 1], got {self.sigma1}, {self.sigma2}")


@dataclass(frozen=True)
class ShapeCandidateSet:
    """Sampled (scale, ratio) grid used to approximate the best anchor shape."""

    scales: tuple = (8.0, 16.0, 32.0, 64.0)
    ratios: tuple = (1.0, 2.0, 4.0)
    long_ratios: tuple = (3.0, 5.0, 7.0)

    def __post_init__(self):
        for name in ("scales", "ratios", "long_ratios"):
            vals = getattr(self, name)
            if not all(math.isfinite(v) and v > 0 for v in vals):
                raise ValueError(f"{name} must all be positive and finite, got {vals}")


@dataclass
class TargetMaps:
    """Per-level training targets.

    ``orientation`` holds the normalized angle in [0, 1] where the cell is
    covered by at least one box (location != negative) and NaN elsewhere.
    ``shape_dw``/``shape_dh`` are meaningful only where ``shape_valid``.
    """

    level: LevelSpec
    location: np.ndarray = field(repr=False)
    orientation: np.ndarray = field(repr=False)
    shape_dw: np.ndarray = field(repr=False)
    shape_dh: np.ndarray = field(repr=False)
    shape_valid: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (self.level.grid_h, self.level.grid_w)
        for name in ("location", "orientation", "shape_dw", "shape_dh", "shape_valid"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} grid shape {arr.shape} != level grid {shape}")
        if np.any(self.shape_valid & (self.location != LOC_POSITIVE)):
            raise ValueError("shape targets defined on a non-positive cell")
        covered = self.location != LOC_NEGATIVE
        if not np.all(np.isfinite(self.orientation[covered])):
            raise ValueError("orientation undefined on a covered cell")

    @classmethod
    def empty(cls, level: LevelSpec) -> "TargetMaps":
        shape = (level.grid_h, level.grid_w)
        return cls(
            level=level,
            location=np.zeros(shape, dtype=np.uint8),
            orientation=np.full(shape, np.nan, dtype=np.float32),
            shape_dw=np.zeros(shape, dtype=np.float32),
            shape_dh=np.zeros(shape, dtype=np.float32),
            shape_valid=np.zeros(shape, dtype=bool),
        )

    def counts(self) -> tuple[int, int, int]:
        """(positive, ignore, negative) cell counts."""
        pos = int(np.count_nonzero(self.location == LOC_POSITIVE))
        ign = int(np.count_nonzero(self.location == LOC_IGNORE))
        return pos, ign, self.location.size - pos - ign


def shape_decode(dw: float, dh: float, level: LevelSpec) -> tuple[float, float]:
    """(w, h) = (k s e^dw, k s e^dh)."""
    if not (math.isfinite(dw) and math.isfinite(dh)):
        raise ValueError(f"shape offsets must be finite, got ({dw!r}, {dh!r})")
    try:
        return level.base_size * math.exp(dw), level.base_size * math.exp(dh)
    except OverflowError:
        raise ValueError(f"shape offsets ({dw!r}, {dh!r}) overflow the box size") from None


def shape_encode(w: float, h: float, level: LevelSpec) -> tuple[float, float]:
    """Inverse of :func:`shape_decode`: (ln(w / ks), ln(h / ks))."""
    rw, rh = w / level.base_size, h / level.base_size
    if not (0 < rw < math.inf and 0 < rh < math.inf):
        raise ValueError(f"sizes must be positive and finite relative to k s, got ({w!r}, {h!r})")
    return math.log(rw), math.log(rh)


def cell_center(i: int, j: int, level: LevelSpec) -> Point2:
    """Image coordinate of cell (i, j): ((i + 1/2) s, (j + 1/2) s)."""
    if not (0 <= i < level.grid_w and 0 <= j < level.grid_h):
        raise ValueError(f"cell ({i}, {j}) outside grid {level.grid_w}x{level.grid_h}")
    return Point2((i + 0.5) * level.stride, (j + 0.5) * level.stride)


def assign_level(gt: RotatedBox, levels: list[LevelSpec]) -> LevelSpec:
    """Pick the level whose base size best matches the box's geometric size.

    Minimizes |ln(sqrt(w h) / (k s))|; ties (within rounding) go to the
    smaller stride, so the geometric midpoint between two levels resolves
    deterministically.
    """
    if not levels:
        raise ValueError("empty level list")
    size = math.sqrt(gt.w * gt.h)
    scores = [abs(math.log(size / lv.base_size)) for lv in levels]
    best = min(scores)
    tied = [lv for lv, sc in zip(levels, scores) if sc <= best + 1e-9]
    return min(tied, key=lambda lv: lv.stride)


def enumerate_candidates(level: LevelSpec, candidates: ShapeCandidateSet) -> list[tuple[float, float]]:
    """All sampled (w, h) pairs for a level.

    Each scale a and ratio r yields (a s sqrt(r), a s / sqrt(r)), keeping
    the area at (a s)^2. Long ratios are appended when the level has them
    enabled.
    """
    ratios = tuple(candidates.ratios)
    if level.long_ratios_enabled:
        ratios = ratios + tuple(candidates.long_ratios)
    out = []
    for a in candidates.scales:
        base = a * level.stride
        for r in ratios:
            sr = math.sqrt(r)
            out.append((base * sr, base / sr))
    return out


def make_levels(
    image_w: int,
    image_h: int,
    strides=(4, 8, 16, 32),
    k: float = 5.0,
    long_ratio_strides=(4, 8),
) -> list[LevelSpec]:
    """Level specs covering an image, one grid cell per stride step."""
    for s in strides:
        if s < 1:
            raise ValueError(f"stride must be >= 1, got {s}")
    return [
        LevelSpec(
            stride=s,
            k=k,
            grid_w=max(1, math.ceil(image_w / s)),
            grid_h=max(1, math.ceil(image_h / s)),
            long_ratios_enabled=s in long_ratio_strides,
        )
        for s in strides
    ]


def _cells_in_box_frame(level: LevelSpec, gt: RotatedBox):
    """Cell index window around the box plus each center's (u, v) in the box frame."""
    reach = math.hypot(gt.w, gt.h) / 2.0
    s = level.stride
    i0 = max(0, int((gt.cx - reach) / s - 1))
    i1 = min(level.grid_w - 1, int((gt.cx + reach) / s + 1))
    j0 = max(0, int((gt.cy - reach) / s - 1))
    j1 = min(level.grid_h - 1, int((gt.cy + reach) / s + 1))
    if i0 > i1 or j0 > j1:
        return None
    xs = (np.arange(i0, i1 + 1) + 0.5) * s
    ys = (np.arange(j0, j1 + 1) + 0.5) * s
    gx, gy = np.meshgrid(xs, ys)
    c, sn = math.cos(gt.theta), math.sin(gt.theta)
    dx = gx - gt.cx
    dy = gy - gt.cy
    u = dx * c + dy * sn
    v = dy * c - dx * sn
    return i0, j0, u, v


def _aligned_iou(u, v, w, h, wg, hg):
    """IoU of an anchor (w, h) at offset (u, v) against a co-oriented box (wg, hg).

    Both boxes share the ground truth's angle, so the overlap reduces to the
    axis-aligned case in the box frame. Vectorizes over candidate arrays.
    """
    iw = np.minimum(u + w / 2.0, wg / 2.0) - np.maximum(u - w / 2.0, -wg / 2.0)
    ih = np.minimum(v + h / 2.0, hg / 2.0) - np.maximum(v - h / 2.0, -hg / 2.0)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    return inter / (w * h + wg * hg - inter)


def generate_targets(
    gts: list[RotatedBox],
    levels: list[LevelSpec],
    shrink: ShrinkParams = ShrinkParams(),
    candidates: ShapeCandidateSet = ShapeCandidateSet(),
) -> list[TargetMaps]:
    """Build location / orientation / shape target maps for every level.

    Per ground-truth box, on its assigned level only:

    * cells whose centers fall strictly inside the shrink core
      (sigma1 w x sigma2 h, concentric and co-oriented) are positive;
    * cells inside the full box but outside the core are ignore;
    * everything else stays negative. Across overlapping boxes positive
      beats ignore beats negative.

    Orientation targets are the mean normalized angle of every box covering
    the cell; the mean is taken in normalized space, so cells covered by
    orientations straddling the +-pi/2 wrap get a diagnostic warning (their
    linear average is not the circular one). Shape targets store the encoded
    candidate (w, h) with the highest same-angle IoU against the owning box
    (the first such candidate on ties), scoring each box's positive cells
    against the level's candidates in one broadcast. When two boxes claim a
    positive cell the higher IoU wins, earlier input order on ties.

    Boxes with a side under one pixel are skipped with a warning.
    """
    out = [TargetMaps.empty(lv) for lv in levels]
    any_pos = [np.zeros((lv.grid_h, lv.grid_w), dtype=bool) for lv in levels]
    ori_sum = [np.zeros((lv.grid_h, lv.grid_w), dtype=np.float64) for lv in levels]
    ori_cnt = [np.zeros((lv.grid_h, lv.grid_w), dtype=np.int32) for lv in levels]
    ori_min = [np.full((lv.grid_h, lv.grid_w), np.inf, dtype=np.float64) for lv in levels]
    ori_max = [np.full((lv.grid_h, lv.grid_w), -np.inf, dtype=np.float64) for lv in levels]
    best_iou = [np.full((lv.grid_h, lv.grid_w), -1.0, dtype=np.float64) for lv in levels]
    cands = [np.array(enumerate_candidates(lv, candidates)) for lv in levels]
    encoded = [np.array([shape_encode(w, h, lv) for w, h in c]) for lv, c in zip(levels, cands)]

    for n, gt in enumerate(gts):
        if gt.w < 1.0 or gt.h < 1.0:
            warnings.warn(f"ground truth #{n} smaller than 1px ({gt.w:.3f}x{gt.h:.3f}), skipped")
            continue
        lv_idx = levels.index(assign_level(gt, levels))
        lv = levels[lv_idx]
        window = _cells_in_box_frame(lv, gt)
        if window is None:
            continue
        i0, j0, u, v = window

        inside_full = (np.abs(u) < gt.w / 2.0) & (np.abs(v) < gt.h / 2.0)
        inside_core = (np.abs(u) < shrink.sigma1 * gt.w / 2.0) & (
            np.abs(v) < shrink.sigma2 * gt.h / 2.0
        )
        theta_t = angle_to_unit(gt.theta)

        jj, ii = np.nonzero(inside_full)
        if len(jj):
            ori_sum[lv_idx][jj + j0, ii + i0] += theta_t
            ori_cnt[lv_idx][jj + j0, ii + i0] += 1
            np.minimum.at(ori_min[lv_idx], (jj + j0, ii + i0), theta_t)
            np.maximum.at(ori_max[lv_idx], (jj + j0, ii + i0), theta_t)

        jj, ii = np.nonzero(inside_core)
        if not len(jj):
            continue
        any_pos[lv_idx][jj + j0, ii + i0] = True

        # rows: this box's positive cells; columns: the level's candidates
        cw, ch = cands[lv_idx][:, 0], cands[lv_idx][:, 1]
        ious = _aligned_iou(u[jj, ii, None], v[jj, ii, None], cw, ch, gt.w, gt.h)
        k, best = np.argmax(ious, axis=1), np.max(ious, axis=1)
        gj, gi = jj + j0, ii + i0
        won = best > best_iou[lv_idx][gj, gi]
        gj, gi, k = gj[won], gi[won], k[won]
        best_iou[lv_idx][gj, gi] = best[won]
        out[lv_idx].shape_dw[gj, gi], out[lv_idx].shape_dh[gj, gi] = encoded[lv_idx][k].T

    wrap_cells = 0
    for t, pos, osum, ocnt, omin, omax in zip(out, any_pos, ori_sum, ori_cnt, ori_min, ori_max):
        covered = ocnt > 0
        t.location[covered] = LOC_IGNORE
        t.location[pos] = LOC_POSITIVE
        t.orientation[covered] = (osum[covered] / ocnt[covered]).astype(np.float32)
        t.shape_valid[:] = pos
        wrap_cells += int(np.count_nonzero((ocnt >= 2) & (omax - omin > 0.5)))
    if wrap_cells:
        warnings.warn(
            f"{wrap_cells} cells are covered by orientations straddling the +-pi/2 wrap; "
            "their averaged orientation targets are unreliable"
        )
    return out


def box_delta_encode(gt: RotatedBox, anchor: RotatedBox) -> tuple[float, float, float, float, float]:
    """Offsets (tx, ty, tw, th, tth) of a box relative to an anchor.

    Centers are normalized by the anchor sides, sizes are log ratios, and
    the angle offset is canonicalized then divided by pi so all five terms
    share a comparable scale.
    """
    tx = (gt.cx - anchor.cx) / anchor.w
    ty = (gt.cy - anchor.cy) / anchor.h
    tw = math.log(gt.w / anchor.w)
    th = math.log(gt.h / anchor.h)
    tth = canonicalize_angle(gt.theta - anchor.theta) / math.pi
    return tx, ty, tw, th, tth


def box_delta_decode(deltas, anchor: RotatedBox) -> RotatedBox:
    """Exact inverse of :func:`box_delta_encode`."""
    tx, ty, tw, th, tth = deltas
    return RotatedBox.make(
        anchor.cx + tx * anchor.w,
        anchor.cy + ty * anchor.h,
        anchor.w * math.exp(tw),
        anchor.h * math.exp(th),
        canonicalize_angle(anchor.theta + tth * math.pi),
    )


def _write_map(path, magic: bytes, level: LevelSpec, grids, dtypes) -> None:
    """Map-file layout shared by ``.tmap`` and ``.pmap``.

    Little-endian header (4-byte magic, u32 stride, u32 grid_w, u32 grid_h,
    f32 k), then each grid row-major in its dtype.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, level.stride, level.grid_w, level.grid_h, level.k))
        for arr, dtype in zip(grids, dtypes):
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _read_map(path, magic: bytes, dtypes) -> tuple[LevelSpec, list[np.ndarray]]:
    """Inverse of :func:`_write_map`: the level and one writable array per dtype."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ValueError("map file truncated: missing header")
    tag, stride, gw, gh, k = _HEADER.unpack_from(data)
    if tag != magic:
        raise ValueError(f"bad magic {tag!r}, expected {magic!r}")
    level = LevelSpec(stride=int(stride), k=float(k), grid_w=int(gw), grid_h=int(gh))
    n = level.grid_w * level.grid_h
    need = _HEADER.size + n * sum(np.dtype(d).itemsize for d in dtypes)
    if len(data) != need:
        raise ValueError(f"map file has {len(data)} bytes, expected {need}")
    grids = []
    off = _HEADER.size
    for d in dtypes:
        grid = np.frombuffer(data, dtype=d, count=n, offset=off)
        grids.append(grid.reshape(level.grid_h, level.grid_w).copy())
        off += grid.nbytes
    return level, grids


def save_target_maps(maps: TargetMaps, path) -> None:
    """Write the map-file header with magic "TMAP", then five grids.

    Grids: location bytes (0/1/255), orientation f32 (NaN where undefined),
    shape_dw f32, shape_dh f32, shape_valid bytes (0/1).
    """
    grids = (maps.location, maps.orientation, maps.shape_dw, maps.shape_dh, maps.shape_valid)
    _write_map(path, TARGET_MAGIC, maps.level, grids, _TARGET_DTYPES)


def load_target_maps(path) -> TargetMaps:
    """Read a file written by :func:`save_target_maps`."""
    level, (location, orientation, shape_dw, shape_dh, valid) = _read_map(
        path, TARGET_MAGIC, _TARGET_DTYPES
    )
    return TargetMaps(
        level=level,
        location=location,
        orientation=orientation,
        shape_dw=shape_dw,
        shape_dh=shape_dh,
        shape_valid=valid != 0,
    )
