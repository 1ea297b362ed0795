"""Training-target generation for anchor maps, plus the shape codec.

Grid conventions: a feature level with stride ``s`` has ``grid_w`` cells
along x and ``grid_h`` along y. Cell (i, j) covers the pixel whose center
is ((i + 1/2) s, (j + 1/2) s). Arrays are stored numpy-style with shape
(grid_h, grid_w) and indexed [j, i].

Location classes use byte values 0 = negative, 1 = positive, 255 = ignore,
matching the serialized layout (see :func:`save_target_maps`).
"""

from __future__ import annotations

import functools
import math
import os
import stat
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geom import Point2, RotatedBox, angle_to_unit

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
        # the map-file header stores stride, grid_w and grid_h as u32 and k as f32
        if not 1 <= self.stride <= 2**32 - 1:
            raise ValueError(f"stride must lie in [1, 2**32 - 1], got {self.stride}")
        with np.errstate(over="ignore"):
            k32 = np.float32(self.k)
        if not (np.isfinite(k32) and k32 > 0):
            raise ValueError(f"scale factor k must be positive and finite as a float32, got {self.k}")
        if not (1 <= self.grid_w <= 2**32 - 1 and 1 <= self.grid_h <= 2**32 - 1):
            raise ValueError(f"grid sides must lie in [1, 2**32 - 1], got {self.grid_w}x{self.grid_h}")

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
    """Sampled (scale, ratio) grid used to approximate the best anchor shape; hashable, as fields are kept as tuples."""

    scales: tuple = (8.0, 16.0, 32.0, 64.0)
    ratios: tuple = (1.0, 2.0, 4.0)
    long_ratios: tuple = (3.0, 5.0, 7.0)

    def __post_init__(self):
        for name in ("scales", "ratios", "long_ratios"):
            vals = tuple(getattr(self, name))
            object.__setattr__(self, name, vals)
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
        covered = np.flatnonzero(self.location != LOC_NEGATIVE)
        loc = self.location.ravel().take(covered)
        positive = loc == LOC_POSITIVE
        if not (positive | (loc == LOC_IGNORE)).all():
            raise ValueError("location bytes must be 0, 1 or 255")
        if np.count_nonzero(self.shape_valid.ravel().take(covered) & positive) != np.count_nonzero(self.shape_valid):
            raise ValueError("shape targets defined on a non-positive cell")
        if not np.isfinite(self.orientation.ravel().take(covered)).all():
            raise ValueError("orientation undefined on a covered cell")

    @classmethod
    def empty(cls, level: LevelSpec) -> "TargetMaps":
        """All-negative maps. They hold every invariant, so nothing is checked."""
        shape = (level.grid_h, level.grid_w)
        maps = cls.__new__(cls)
        vars(maps).update(
            level=level,
            location=np.zeros(shape, dtype=np.uint8),
            orientation=np.full(shape, np.nan, dtype=np.float32),
            shape_dw=np.zeros(shape, dtype=np.float32),
            shape_dh=np.zeros(shape, dtype=np.float32),
            shape_valid=np.zeros(shape, dtype=bool),
        )
        return maps

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


@functools.lru_cache(maxsize=64)
def _candidate_table(level: LevelSpec, candidates: ShapeCandidateSet) -> tuple[np.ndarray, np.ndarray]:
    """A level's candidate (w, h) pairs and their shape codes, read-only and built once per pair of specs."""
    cand = np.array(enumerate_candidates(level, candidates))
    enc = np.array([shape_encode(w, h, level) for w, h in cand.tolist()])
    cand.flags.writeable = enc.flags.writeable = False
    return cand, enc


def make_levels(
    image_w: int,
    image_h: int,
    strides=(4, 8, 16, 32),
    k: float = 5.0,
    long_ratio_strides=(4, 8),
) -> list[LevelSpec]:
    """Level specs covering an image, one grid cell per stride step."""
    if image_w < 1 or image_h < 1:
        raise ValueError(f"image size must be at least 1x1, got {image_w}x{image_h}")
    for n, s in enumerate(strides):
        if s < 1:
            raise ValueError(f"stride must be >= 1, got {s}")
        if s in strides[:n]:
            raise ValueError(f"stride {s} given more than once")
    return [
        LevelSpec(
            stride=s,
            k=k,
            grid_w=math.ceil(image_w / s),
            grid_h=math.ceil(image_h / s),
            long_ratios_enabled=s in long_ratio_strides,
        )
        for s in strides
    ]


def _aligned_iou(u, v, w, h, wg, hg):
    """IoU of an anchor (w, h) at offset (u, v) against a co-oriented box (wg, hg).

    Both boxes share the ground truth's angle, so the overlap reduces to the
    axis-aligned case in the box frame. Vectorizes over candidate arrays.
    """
    iw = np.minimum(u + w / 2.0, wg / 2.0) - np.maximum(u - w / 2.0, -wg / 2.0)
    ih = np.minimum(v + h / 2.0, hg / 2.0) - np.maximum(v - h / 2.0, -hg / 2.0)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    return inter / (w * h + wg * hg - inter)


def _level_cells(level: LevelSpec, rows: np.ndarray, shrink: ShrinkParams, cand: np.ndarray):
    """The cells that all of a level's boxes cover, in box order and row-major per window.

    ``rows`` has one (cx, cy, w, h, theta) row per box. A box's window is its
    centre +- half its diagonal, widened by one cell and clipped to the grid;
    a window that misses the grid is empty. Returns the flat indices
    (j * grid_w + i) of the cells inside each full box with the box's unit
    angle, and of the cells inside its shrink core with the best candidate
    IoU and that candidate's index.
    """
    cx, cy, w, h, theta = rows.T
    c, sn, unit = (np.fromiter(map(f, theta.tolist()), np.float64) for f in (math.cos, math.sin, angle_to_unit))
    reach = np.hypot(w, h) / 2.0
    # clipped to the grid before the cast, which truncates toward zero as int() does
    i0 = np.clip((cx - reach) / level.stride - 1, 0, level.grid_w).astype(np.int64)
    i1 = np.clip((cx + reach) / level.stride + 1, -1, level.grid_w - 1).astype(np.int64)
    j0 = np.clip((cy - reach) / level.stride - 1, 0, level.grid_h).astype(np.int64)
    j1 = np.clip((cy + reach) / level.stride + 1, -1, level.grid_h - 1).astype(np.int64)
    ni, nj = np.maximum(i1 - i0 + 1, 0), np.maximum(j1 - j0 + 1, 0)
    size = ni * nj
    box = np.repeat(np.arange(len(rows)), size)
    # each cell's position within its box's window, row-major
    row, col = np.divmod(np.arange(box.size) - np.repeat(np.cumsum(size) - size, size), ni.take(box))
    i, j = col + i0.take(box), row + j0.take(box)
    dx = (i + 0.5) * level.stride - cx.take(box)
    dy = (j + 0.5) * level.stride - cy.take(box)
    cb, sb = c.take(box), sn.take(box)
    u = dx * cb + dy * sb
    v = dy * cb - dx * sb
    au, av = np.abs(u), np.abs(v)
    full = (au < (w / 2.0).take(box)) & (av < (h / 2.0).take(box))
    core = (au < (shrink.sigma1 * w / 2.0).take(box)) & (av < (shrink.sigma2 * h / 2.0).take(box))
    flat = j * level.grid_w + i
    core_box = box[core]
    # rows: positive cells; columns: the level's candidates
    ious = _aligned_iou(
        u[core][:, None], v[core][:, None], *cand.T, w.take(core_box)[:, None], h.take(core_box)[:, None]
    )
    return flat[full], unit.take(box[full]), flat[core], ious.max(1), ious.argmax(1)


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
    (the first such candidate on ties). When two boxes claim a positive cell
    the higher IoU wins, earlier input order on ties. Only the level is
    picked per box: each level's windows, frames and unit angles come from
    its boxes' (cx, cy, w, h, theta) rows at once, only covered cells are
    visited, and positive cells are scored against all candidates in one
    broadcast. Boxes with a side under one pixel are skipped with a warning.
    """
    out = [TargetMaps.empty(lv) for lv in levels]
    tables = [_candidate_table(lv, candidates) for lv in levels]
    # per level, one (cx, cy, w, h, theta) row per box in input order
    rows = [[] for _ in levels]
    for n, gt in enumerate(gts):
        if gt.w < 1.0 or gt.h < 1.0:
            warnings.warn(f"ground truth #{n} smaller than 1px ({gt.w:.3f}x{gt.h:.3f}), skipped")
            continue
        rows[levels.index(assign_level(gt, levels))].append((gt.cx, gt.cy, gt.w, gt.h, gt.theta))

    wrap_cells = 0
    for t, lv, level_rows, (cand, enc) in zip(out, levels, rows, tables):
        if not level_rows:
            continue
        cells, theta, pos, best, k = _level_cells(lv, np.array(level_rows), shrink, cand)
        uniq, inv = np.unique(cells, return_inverse=True)
        # bincount adds in input order, so each sum is taken box by box
        mean = np.bincount(inv, weights=theta) / np.bincount(inv)
        lo, hi = np.full(len(uniq), np.inf), np.full(len(uniq), -np.inf)
        np.minimum.at(lo, inv, theta)
        np.maximum.at(hi, inv, theta)
        wrap_cells += int(np.count_nonzero(hi - lo > 0.5))
        np.put(t.location, uniq, LOC_IGNORE)
        np.put(t.orientation, uniq, mean.astype(np.float32))
        # stable: per cell the highest IoU first, the earlier box among equals
        order = np.lexsort((-best, pos))
        pos, first = np.unique(pos[order], return_index=True)
        k = k[order[first]]
        np.put(t.location, pos, LOC_POSITIVE)
        np.put(t.shape_valid, pos, True)
        np.put(t.shape_dw, pos, enc[k, 0])
        np.put(t.shape_dh, pos, enc[k, 1])
    if wrap_cells:
        warnings.warn(
            f"{wrap_cells} cells are covered by orientations straddling the +-pi/2 wrap; "
            "their averaged orientation targets are unreliable"
        )
    return out


def _write_map(path, magic: bytes, level: LevelSpec, grids, dtypes) -> None:
    """Map-file layout shared by ``.tmap`` and ``.pmap``.

    Little-endian header (4-byte magic, u32 stride, u32 grid_w, u32 grid_h,
    f32 k), then each grid row-major in its dtype. A grid already in its dtype is
    written from its own buffer, a bool grid as its bytes; all are built before the file opens.
    """
    grids = [np.ascontiguousarray(a.view(np.uint8) if a.dtype == bool else a, dtype=d) for a, d in zip(grids, dtypes)]
    _write_file(path, [_HEADER.pack(magic, level.stride, level.grid_w, level.grid_h, level.k), *grids])


def _write_file(path, chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path`` in order, overwriting an existing file in place.

    No ``O_TRUNC``: ext4 starts writeback at close of a file truncated to length 0 (``auto_da_alloc``).
    A longer regular file is trimmed where the bytes written end, even after a failed write: never old after new.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        old = os.fstat(fh.fileno())
        try:
            fh.writelines(chunks)
            fh.flush()
        finally:
            if stat.S_ISREG(old.st_mode) and old.st_size > fh.raw.tell():
                os.ftruncate(fh.fileno(), fh.raw.tell())


def _read_file(path) -> np.ndarray:
    """A file's bytes, read once into one writable uint8 array."""
    with open(path, "rb") as fh:
        data = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        return data[: fh.readinto(data)]


def _read_map(source, magic: bytes, dtypes) -> tuple[LevelSpec, list[np.ndarray]]:
    """Inverse of :func:`_write_map`: the level and one writable array per dtype.

    ``source`` is a path, or the file as :func:`_read_file` returns it. The
    arrays are views into that one buffer; a float grid after a grid of odd
    size is not 4-byte aligned, and numpy reads it as it is.
    """
    data = source if isinstance(source, np.ndarray) else _read_file(source)
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
        grids.append(grid.reshape(level.grid_h, level.grid_w))
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
    """Read a file written by :func:`save_target_maps`, from its path or its :func:`_read_file` buffer."""
    level, (location, orientation, shape_dw, shape_dh, valid) = _read_map(
        path, TARGET_MAGIC, _TARGET_DTYPES
    )
    if valid.max(initial=0) > 1:
        raise ValueError("shape_valid bytes must be 0 or 1")
    return TargetMaps(
        level=level,
        location=location,
        orientation=orientation,
        shape_dw=shape_dw,
        shape_dh=shape_dh,
        shape_valid=valid.view(bool),
    )
