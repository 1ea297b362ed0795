"""Seeded input generation for the benchmark workloads.

Everything here is plain numpy and writes the file formats documented in
the README (ICDAR15 quad lines, detection lines, ``.pmap`` grids). It never
imports ``rboxkit``, so a change to one layer cannot change the inputs of a
workload that exercises another.

Page sizes (text boxes per image) are a fixed mix of sparse and dense
pages, the same for every seed (see ``page_sizes``); the seed moves
everything else.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

IMAGE_W, IMAGE_H = 1333, 800
STRIDES = (4, 8, 16, 32)
K = 5.0
T_A = 0.05
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAP_HEADER = struct.Struct("<4sIIIf")


def grid_shape(stride: int) -> tuple[int, int]:
    """(grid_h, grid_w) of one level at the benchmark image size."""
    return math.ceil(IMAGE_H / stride), math.ceil(IMAGE_W / stride)


def page_sizes(tiers, per_shard: int) -> np.ndarray:
    """(n_shards, per_shard) page sizes (text boxes per image), one row per shard in pool order.

    ``tiers`` lists (shards, boxes per page) from sparse to dense, each tier
    about twice as dense and at most half as frequent as the one before: a
    discrete heavy tail. The sizes and the order are the same for every
    seed; the seed moves all the rest. Tiers keep the median shard and the
    tail shards on plateaus of equal-sized shards, so those statistics do
    not jump between seeds. Shard s takes the group ranked like
    (s * golden) mod 1, a low-discrepancy order: every prefix of the pool
    holds close to the same mix, and shard 0 (the warm-up) is the sparsest.
    """
    sizes = np.concatenate([np.full(n * per_shard, boxes) for n, boxes in tiers]).reshape(-1, per_shard)
    ranks = np.argsort(np.argsort((GOLDEN * np.arange(len(sizes))) % 1.0))
    return sizes[ranks]


def half_extents(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half width and half height of each box's axis-aligned bounding box."""
    c, s = np.abs(np.cos(boxes[:, 4])), np.abs(np.sin(boxes[:, 4]))
    hw, hh = boxes[:, 2] / 2.0, boxes[:, 3] / 2.0
    return hw * c + hh * s, hw * s + hh * c


def aabb_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) mask of pairs whose axis-aligned bounding boxes meet."""
    ax, ay = half_extents(a)
    bx, by = half_extents(b)
    dx = np.abs(a[:, None, 0] - b[None, :, 0])
    dy = np.abs(a[:, None, 1] - b[None, :, 1])
    return (dx <= ax[:, None] + bx[None, :]) & (dy <= ay[:, None] + by[None, :])


def pair_masks(a: np.ndarray, b: np.ndarray, same: bool):
    """(bbox-overlap mask, valid-pair mask); with ``same`` only pairs i < j within a count."""
    overlap = aabb_overlap(a, b)
    valid = np.triu(np.ones_like(overlap), k=1) if same else np.ones_like(overlap)
    return overlap & valid, valid


def pair_counts(a: np.ndarray, b: np.ndarray, same: bool, block: int = 256) -> tuple[int, int]:
    """(candidate pairs, pairs whose bounding boxes overlap), in row blocks to bound memory."""
    pairs = len(a) * (len(a) - 1) // 2 if same else len(a) * len(b)
    overlap = 0
    for r in range(0, len(a), block):
        m = aabb_overlap(a[r : r + block], b)
        overlap += int((np.triu(m, k=r + 1) if same else m).sum())
    return pairs, overlap


def text_boxes(rng, n: int) -> np.ndarray:
    """(n, 5) boxes cx, cy, w, h, theta fully inside the image.

    The long side runs log-uniformly from 16 to 300 px and the aspect ratio
    from 1.5 to 8. Most lines are near horizontal, a third at any angle.
    """
    out = np.empty((n, 5))
    for k in range(n):
        while True:
            w = math.exp(rng.uniform(math.log(16.0), math.log(300.0)))
            h = max(2.0, w / math.exp(rng.uniform(math.log(1.5), math.log(8.0))))
            if rng.random() < 1.0 / 3.0:
                theta = rng.uniform(-math.pi / 2, math.pi / 2)
            else:
                theta = float(np.clip(rng.normal(0.0, 0.15), -1.5, 1.5))
            ex = abs(w / 2 * math.cos(theta)) + abs(h / 2 * math.sin(theta))
            ey = abs(w / 2 * math.sin(theta)) + abs(h / 2 * math.cos(theta))
            if 2 * ex + 4 < IMAGE_W and 2 * ey + 4 < IMAGE_H:
                break
        out[k] = (rng.uniform(ex + 2, IMAGE_W - ex - 2), rng.uniform(ey + 2, IMAGE_H - ey - 2), w, h, theta)
    return out


def jitter(rng, boxes: np.ndarray, pos: float, size: float, angle: float) -> np.ndarray:
    """Copies of boxes moved by pos * h, scaled by exp(N(0, size)), turned by N(0, angle)."""
    out = boxes.copy()
    n = len(boxes)
    out[:, 0] += rng.normal(0.0, pos, n) * boxes[:, 3]
    out[:, 1] += rng.normal(0.0, pos, n) * boxes[:, 3]
    out[:, 2] *= np.exp(rng.normal(0.0, size, n))
    out[:, 3] *= np.exp(rng.normal(0.0, size, n))
    out[:, 4] += rng.normal(0.0, angle, n)
    return out


def canonical(boxes: np.ndarray) -> np.ndarray:
    """Long side first and angle in [-pi/2, pi/2), as detection files hold them."""
    out = boxes.copy()
    swap = out[:, 2] < out[:, 3]
    out[swap, 2], out[swap, 3] = boxes[swap, 3], boxes[swap, 2]
    out[swap, 4] += math.pi / 2
    out[:, 4] = (out[:, 4] + math.pi / 2) % math.pi - math.pi / 2
    return out


def corners(boxes: np.ndarray) -> np.ndarray:
    """(n, 4, 2) corners, counter-clockwise from local (-w/2, -h/2)."""
    c, s = np.cos(boxes[:, 4]), np.sin(boxes[:, 4])
    local = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=np.float64) / 2.0
    lx = local[None, :, 0] * boxes[:, None, 2]
    ly = local[None, :, 1] * boxes[:, None, 3]
    x = boxes[:, None, 0] + lx * c[:, None] - ly * s[:, None]
    y = boxes[:, None, 1] + lx * s[:, None] + ly * c[:, None]
    return np.stack([x, y], axis=-1)


def write_icdar15(path: Path, boxes: np.ndarray, dont_care: np.ndarray) -> None:
    """Quad lines ``x1,y1,...,x4,y4,text`` with ``###`` on don't-care regions."""
    lines = []
    for k, quad in enumerate(corners(boxes)):
        coords = ",".join(f"{v:.2f}" for v in quad.ravel())
        lines.append(f"{coords},{'###' if dont_care[k] else f'word{k}'}")
    path.write_text("\n".join(lines) + "\n")


def detection_lines(image_id: str, boxes: np.ndarray, scores: np.ndarray) -> list[str]:
    """``image_id cx cy w h theta score`` lines, six decimals."""
    return [
        f"{image_id} {b[0]:.6f} {b[1]:.6f} {b[2]:.6f} {b[3]:.6f} {b[4]:.6f} {s:.6f}"
        for b, s in zip(canonical(boxes), scores)
    ]


def write_pmap(path: Path, stride: int, grids) -> None:
    """Little-endian ``.pmap``: header then probability, orientation, dw, dh as f32."""
    gh, gw = grids[0].shape
    with open(path, "wb") as fh:
        fh.write(_MAP_HEADER.pack(b"PMAP", stride, gw, gh, K))
        for g in grids:
            fh.write(np.ascontiguousarray(g, dtype="<f4").tobytes())


def read_tmap(path: Path) -> dict:
    """Parse a ``.tmap`` file independently of the package (for output checks)."""
    data = path.read_bytes()
    tag, stride, gw, gh, k = _MAP_HEADER.unpack_from(data)
    n = gw * gh
    if tag != b"TMAP" or len(data) != _MAP_HEADER.size + 14 * n:
        raise ValueError(f"{path.name}: bad header or size")
    off = _MAP_HEADER.size
    out = {"stride": stride, "shape": (gh, gw), "k": k}
    for name, dtype, size in (
        ("location", np.uint8, 1),
        ("orientation", "<f4", 4),
        ("shape_dw", "<f4", 4),
        ("shape_dh", "<f4", 4),
        ("shape_valid", np.uint8, 1),
    ):
        out[name] = np.frombuffer(data, dtype=dtype, count=n, offset=off).reshape(gh, gw)
        off += size * n
    return out


def assigned_stride(boxes: np.ndarray) -> np.ndarray:
    """The level whose base size k*s is nearest the box's geometric size (log scale)."""
    size = np.sqrt(boxes[:, 2] * boxes[:, 3])
    base = K * np.array(STRIDES, dtype=np.float64)
    return np.array(STRIDES)[np.argmin(np.abs(np.log(size[:, None] / base[None, :])), axis=1)]


def prediction_grids(rng, boxes: np.ndarray, fp_rate: float):
    """Per-stride (prob, orientation, dw, dh) grids plus the boxes of active cells.

    Background probability stays below t_a. Every text box lights the cells
    of its level whose centers fall inside it, with a peaked probability and
    jittered orientation and shape. A small share of cells are false
    positives of random shape. Probabilities never sit within 0.01 of t_a,
    so the active set is unambiguous in float32. The returned boxes are the
    ones the active cells encode, used for input properties and the IoU probe.
    """
    levels = assigned_stride(boxes)
    grids, active_boxes = {}, []
    for stride in STRIDES:
        gh, gw = grid_shape(stride)
        base = K * stride
        prob = rng.uniform(0.0, T_A - 0.01, (gh, gw))
        ori = rng.random((gh, gw))
        dw = rng.normal(0.0, 0.4, (gh, gw))
        dh = rng.normal(0.0, 0.4, (gh, gw))
        fp = rng.choice(gh * gw, round(fp_rate * gh * gw), replace=False)
        prob.flat[fp] = rng.uniform(T_A + 0.01, 0.5, len(fp))
        ys, xs = (np.arange(gh) + 0.5) * stride, (np.arange(gw) + 0.5) * stride
        for b in boxes[levels == stride]:
            cx, cy, w, h, theta = b
            reach = math.hypot(w, h) / 2.0
            i0, i1 = max(0, int((cx - reach) / stride)), min(gw, int((cx + reach) / stride) + 1)
            j0, j1 = max(0, int((cy - reach) / stride)), min(gh, int((cy + reach) / stride) + 1)
            gx, gy = np.meshgrid(xs[i0:i1] - cx, ys[j0:j1] - cy)
            c, s = math.cos(theta), math.sin(theta)
            u = (gx * c + gy * s) / (w / 2.0)
            v = (gy * c - gx * s) / (h / 2.0)
            inside = (np.abs(u) < 1.0) & (np.abs(v) < 1.0)
            n = int(inside.sum())
            if not n:
                continue
            peak = np.exp(-2.0 * (u[inside] ** 2 + v[inside] ** 2))
            win = (slice(j0, j1), slice(i0, i1))
            prob[win][inside] = T_A + 0.01 + 0.9 * peak * rng.uniform(0.8, 1.0, n)
            t = theta + rng.normal(0.0, 0.03, n)
            t = (t + math.pi / 2) % math.pi - math.pi / 2
            ori[win][inside] = np.clip(t / math.pi + 0.5, 0.0, 1.0)
            dw[win][inside] = np.log(w / base) + rng.normal(0.0, 0.08, n)
            dh[win][inside] = np.log(h / base) + rng.normal(0.0, 0.08, n)
        g = tuple(a.astype(np.float32) for a in (prob, ori, dw, dh))
        grids[stride] = g
        jj, ii = np.nonzero(g[0] > np.float32(T_A))
        active_boxes.append(
            np.stack(
                [
                    (ii + 0.5) * stride,
                    (jj + 0.5) * stride,
                    base * np.exp(g[2][jj, ii].astype(np.float64)),
                    base * np.exp(g[3][jj, ii].astype(np.float64)),
                    math.pi * (g[1][jj, ii].astype(np.float64) - 0.5),
                ],
                axis=1,
            )
        )
    return grids, np.concatenate(active_boxes)
