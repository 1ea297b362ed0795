"""Exact convex-polygon intersection, rotated-box IoU and related kernels.

Polygons are (n, 2) float arrays of vertices in counter-clockwise order
(positive shoelace area). Box-box intersections produce at most 8
vertices once near-duplicates are merged.

:func:`iou_matrix` is the one rotated-IoU kernel: it works on (N, 5) box
arrays, lists the pairs whose bounding boxes meet and computes only those
exactly; scalar :func:`iou` is its 1x1 case. :func:`greedy_nms` runs
greedy suppression on the same exact stage, over only the pairs that
greedy reads. :func:`clip_convex` (Sutherland-Hodgman) and
:func:`iou_oracle` (Monte Carlo) stay as the independent references it is
tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import RotatedBox, box_corners

# on-edge classification and vertex-merge tolerance, in pixels
_EPS = 1e-9
# candidate pairs per step of the exact stage; bounds its temporaries
_BLOCK = 1024
# inclusive slack of the exact stage's tests: on the edge parameters of a
# crossing, and (scaled by the box's area) on the inside tests
_REL_TOL = 1e-10
# largest |cx|, |cy|, w or h the exact stage takes: products of two such
# values in its edge cross products stay finite
_MAX_PARAM = 1e150


def polygon_area(vertices) -> float:
    """Non-negative shoelace area of a polygon; 0 for fewer than 3 vertices."""
    pts = np.asarray(vertices, dtype=np.float64)
    if pts.ndim != 2 or len(pts) < 3:
        return 0.0
    return abs(_signed_area2(pts)) / 2.0


def _signed_area2(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _merge_close(pts: list[tuple[float, float]]) -> np.ndarray:
    """Drop consecutive vertices closer than the merge tolerance."""
    out: list[tuple[float, float]] = []
    for p in pts:
        if out and abs(p[0] - out[-1][0]) <= _EPS and abs(p[1] - out[-1][1]) <= _EPS:
            continue
        out.append(p)
    if len(out) > 1 and abs(out[0][0] - out[-1][0]) <= _EPS and abs(out[0][1] - out[-1][1]) <= _EPS:
        out.pop()
    return np.array(out, dtype=np.float64) if out else np.empty((0, 2), dtype=np.float64)


def clip_convex(subject, clip) -> np.ndarray:
    """Intersection of two convex polygons (Sutherland-Hodgman).

    Returns the intersection vertices counter-clockwise, or an empty
    (0, 2) array when the polygons do not overlap in area.
    """
    out = [(float(x), float(y)) for x, y in np.asarray(subject, dtype=np.float64)]
    clip_pts = np.asarray(clip, dtype=np.float64)
    if len(out) < 3 or len(clip_pts) < 3:
        return np.empty((0, 2), dtype=np.float64)
    if _signed_area2(np.asarray(out)) < 0.0:
        out.reverse()
    if _signed_area2(clip_pts) < 0.0:
        clip_pts = clip_pts[::-1]

    n = len(clip_pts)
    for k in range(n):
        if not out:
            break
        ax, ay = clip_pts[k]
        bx, by = clip_pts[(k + 1) % n]
        ex, ey = bx - ax, by - ay
        inp = out
        out = []
        sx, sy = inp[-1]
        s_side = ex * (sy - ay) - ey * (sx - ax)
        for px, py in inp:
            p_side = ex * (py - ay) - ey * (px - ax)
            if p_side >= -_EPS:
                if s_side < -_EPS:
                    t = s_side / (s_side - p_side)
                    out.append((sx + t * (px - sx), sy + t * (py - sy)))
                out.append((px, py))
            elif s_side >= -_EPS:
                t = s_side / (s_side - p_side)
                out.append((sx + t * (px - sx), sy + t * (py - sy)))
            sx, sy, s_side = px, py, p_side

    result = _merge_close(out)
    if len(result) < 3 or polygon_area(result) <= 0.0:
        return np.empty((0, 2), dtype=np.float64)
    return result


def box_array(boxes) -> np.ndarray:
    """(N, 5) float64 rows of (cx, cy, w, h, theta), the input of :func:`iou_matrix`."""
    return np.array([(b.cx, b.cy, b.w, b.h, b.theta) for b in boxes], dtype=np.float64).reshape(-1, 5)


def iou_matrix(a, b) -> np.ndarray:
    """Exact IoU of every box in ``a`` against every box in ``b``.

    ``a`` and ``b`` are (N, 5) and (M, 5) arrays of (cx, cy, w, h, theta)
    rows; the result is an (N, M) float64 matrix. Only the pairs whose
    axis-aligned bounding boxes meet go through the exact stage, in blocks
    of ``_BLOCK``, so memory stays bounded by the pair list and one block;
    every other entry is 0. Each pair is ordered by its (cx, cy, w, h,
    theta) tuples before any arithmetic, so ``iou_matrix(b, a)`` is
    bit-for-bit the transpose of ``iou_matrix(a, b)``, and identical boxes
    read exactly 1.
    """
    a, b = _rows(a), _rows(b)
    # a's rows, then b's, which start at row len(a)
    table = _table(np.concatenate([a, b]))
    i, j = _aabb_pairs(table[: len(a)], table[len(a) :], upper=False)
    out = np.zeros((len(a), len(b)), dtype=np.float64)
    if len(i):
        out[i, j] = _exact(table, _tuple_rank(table[:, :5]), i, j + len(a))
    return out


def greedy_nms(boxes, iou_threshold: float) -> np.ndarray:
    """Rows kept by greedy non-maximum suppression over ``boxes``, in increasing order.

    ``boxes`` is an (N, 5) array in priority order: a row is kept unless a
    kept row before it has IoU strictly above ``iou_threshold`` with it.
    The pass runs in rounds over the pairs whose bounding boxes meet. Each
    round keeps every undecided row whose earlier partners are all decided
    (the first undecided row always is, and no two rows kept in one round
    are partners), then computes the exact IoU of each pair (newly kept
    row, undecided later partner) only, and suppresses the partners above
    the threshold. Every IoU it computes equals the one :func:`iou_matrix`
    gives, so the result is that of the sequential greedy pass over all pairs.
    """
    table = _table(_rows(boxes))
    rank = _tuple_rank(table[:, :5])
    # the pair list only ever holds pairs whose rows are both undecided
    i, j = _aabb_pairs(table, table, upper=True)
    undecided = np.ones(len(table), dtype=bool)
    kept = np.zeros(len(table), dtype=bool)
    while undecided.any():
        new = undecided.copy()
        new[j] = False
        kept |= new
        undecided &= ~new
        fresh = new[i]
        later = j[fresh]
        undecided[later[_exact(table, rank, i[fresh], later) > iou_threshold]] = False
        live = undecided[i] & undecided[j]
        i, j = i[live], j[live]
    return np.flatnonzero(kept)


def iou(a: RotatedBox, b: RotatedBox) -> float:
    """Exact intersection-over-union of two rotated boxes: the 1x1 case of :func:`iou_matrix`."""
    return float(iou_matrix(box_array((a,)), box_array((b,)))[0, 0])


# columns of the per-box table built by _table, after the five box parameters:
# bounding-box half extents (x, y), corner offsets from the centre (four x,
# then four y), the inside-test slack and the area
_EXT_X, _EXT_Y, _OFF_X, _OFF_Y, _TOL, _AREA = 5, 6, slice(7, 11), slice(11, 15), 15, 16
# corner offsets in half-side units, counter-clockwise from (-w/2, -h/2) as in box_corners
_SIGN_U = np.array([-1.0, 1.0, 1.0, -1.0])
_SIGN_V = np.array([-1.0, -1.0, 1.0, 1.0])
# edge k runs from corner k to corner k + 1
_NEXT4 = np.array([1, 2, 3, 0])
_SLOTS = np.arange(24)
_TINY = np.finfo(np.float64).tiny


def _rows(boxes) -> np.ndarray:
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(f"boxes must be an (N, 5) array, got shape {arr.shape}")
    return arr


def _table(arr: np.ndarray) -> np.ndarray:
    """Validated box rows extended by what every pair needs from one box (see ``_EXT_X`` and on).

    Cosine and sine go through libm, so no entry depends on its neighbours
    in the array. A box's half extent is its largest corner offset, which
    is the same float as hw |cos| + hh |sin|. The slack is in the units of
    the edge cross products: _REL_TOL * w * h allows a point _REL_TOL * h
    beyond a long edge and _REL_TOL * w beyond a short one.
    """
    if not np.isfinite(arr).all():
        raise ValueError("box parameters must be finite")
    t = np.empty((len(arr), 17), dtype=np.float64)
    t[:, :5] = arr
    with np.errstate(over="ignore"):
        t[:, _AREA] = arr[:, 2] * arr[:, 3]
    if not (t[:, _AREA] > 0.0).all():
        raise ValueError("zero-area box passed to iou")
    if not np.isfinite(t[:, _AREA]).all():
        raise ValueError("box area w * h overflows to infinity")
    if (np.abs(arr[:, :4]) > _MAX_PARAM).any():
        raise ValueError(f"box centre and sides must not exceed {_MAX_PARAM:g} in magnitude")
    t[:, _TOL] = _REL_TOL * t[:, _AREA]
    cs = np.array([(math.cos(v), math.sin(v)) for v in arr[:, 4].tolist()]).reshape(-1, 2, 1)
    c, s = cs[:, 0], cs[:, 1]
    lu, lv = _SIGN_U * (arr[:, 2:3] / 2.0), _SIGN_V * (arr[:, 3:4] / 2.0)
    t[:, _OFF_X] = lu * c - lv * s
    t[:, _OFF_Y] = lu * s + lv * c
    t[:, _EXT_X] = t[:, _OFF_X].max(axis=1)
    t[:, _EXT_Y] = t[:, _OFF_Y].max(axis=1)
    return t


def _tuple_rank(params: np.ndarray) -> np.ndarray:
    """Dense rank of each row in lexicographic order; equal rows share a rank."""
    order = np.lexsort(params.T[::-1])
    ranked = params[order]
    rank = np.empty(len(params), dtype=np.intp)
    rank[order] = np.concatenate([[0], np.cumsum((ranked[1:] != ranked[:-1]).any(axis=1))])
    return rank


def _exact(table: np.ndarray, rank: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Exact IoU of the table row pairs (i[k], j[k]), in blocks of ``_BLOCK``.

    ``rank`` is the :func:`_tuple_rank` of the table's box parameters.
    """
    vals = np.empty(len(i), dtype=np.float64)
    for k in range(0, len(i), _BLOCK):
        bi, bj = i[k : k + _BLOCK], j[k : k + _BLOCK]
        # the pair's first box is the one with the smaller tuple
        swap = rank[bj] < rank[bi]
        v = _pair_iou(table[np.where(swap, bj, bi)], table[np.where(swap, bi, bj)])
        v[rank[bi] == rank[bj]] = 1.0
        vals[k : k + _BLOCK] = v
    return vals


def _aabb_pairs(ta, tb, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs whose axis-aligned bounding boxes meet (with ``upper``, only i < j).

    Rows are tested a chunk at a time, which bounds the temporaries.
    """
    rows = max(1, _BLOCK * 16 // max(len(tb), 1))
    ii, jj = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for r in range(0, len(ta), rows):
        a = ta[r : r + rows]
        near = np.abs(a[:, 0, None] - tb[:, 0]) <= a[:, _EXT_X, None] + tb[:, _EXT_X]
        near &= np.abs(a[:, 1, None] - tb[:, 1]) <= a[:, _EXT_Y, None] + tb[:, _EXT_Y]
        if upper:
            near &= np.arange(len(tb)) > np.arange(r, r + len(a))[:, None]
        i, j = np.nonzero(near)
        ii.append(i + r)
        jj.append(j)
    return np.concatenate(ii), np.concatenate(jj)


def _pair_iou(f, g) -> np.ndarray:
    """IoU of the table rows (f[k], g[k]) for one block of candidate pairs."""
    k = len(f)
    # a frame at F's centre; G's corners are shifted by the centre offset
    fx, fy = f[:, _OFF_X], f[:, _OFF_Y]
    gx, gy = g[:, _OFF_X] + (g[:, 0:1] - f[:, 0:1]), g[:, _OFF_Y] + (g[:, 1:2] - f[:, 1:2])

    # [i, j] over F's edge i and G's edge j: F_i + t (F_i+1 - F_i) = G_j + u (G_j+1 - G_j).
    # The numerators are cross products that also place F_i against G's edge j
    # (inside: >= 0) and G_j against F's edge i (inside: <= 0).
    efx, efy = (fx[:, _NEXT4] - fx)[:, :, None], (fy[:, _NEXT4] - fy)[:, :, None]
    egx, egy = (gx[:, _NEXT4] - gx)[:, None, :], (gy[:, _NEXT4] - gy)[:, None, :]
    wx, wy = gx[:, None, :] - fx[:, :, None], gy[:, None, :] - fy[:, :, None]
    side_f = wx * egy - wy * egx
    side_g = wx * efy - wy * efx
    # each (K, 4, 4) temporary is dropped once used, which keeps a block near 1 MB
    del wx, wy
    inside_f = (side_f >= -g[:, _TOL, None, None]).all(axis=2)
    inside_g = (side_g <= f[:, _TOL, None, None]).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = efx * egy - efy * egx
        t = side_f / det
        u = side_g / det
        del det, side_f, side_g
        cross = (np.abs(t - 0.5) <= 0.5 + _REL_TOL) & (np.abs(u - 0.5) <= 0.5 + _REL_TOL)
        del u
        cx = fx[:, :, None] + t * efx
        cy = fy[:, :, None] + t * efy
        del t

    # up to 24 candidate vertices: corners inside the other box, then the crossings
    valid = np.concatenate([inside_f, inside_g, cross.reshape(k, 16)], axis=1)
    xs = np.where(valid, np.concatenate([fx, gx, cx.reshape(k, 16)], axis=1), 0.0)
    del cx
    ys = np.where(valid, np.concatenate([fy, gy, cy.reshape(k, 16)], axis=1), 0.0)
    del cy
    n = valid.sum(axis=1)[:, None]
    xs -= xs.sum(axis=1, keepdims=True) / np.maximum(n, 1)
    ys -= ys.sum(axis=1, keepdims=True) / np.maximum(n, 1)

    # order by a pseudo-angle around the mean, monotone in the true angle over [-2, 2];
    # invalid slots sort last and then repeat the first vertex, so they add no area
    key = np.copysign(1.0 - xs / np.maximum(np.abs(xs) + np.abs(ys), _TINY), ys)
    order = np.argsort(np.where(valid, key, 3.0), axis=1, kind="stable")
    del key
    order = np.where(_SLOTS < n, order, order[:, :1])
    rows = np.arange(k)[:, None]
    xs, ys = xs[rows, order], ys[rows, order]
    del order
    area2 = (xs[:, :-1] * ys[:, 1:] - xs[:, 1:] * ys[:, :-1]).sum(axis=1)
    area2 += xs[:, -1] * ys[:, 0] - xs[:, 0] * ys[:, -1]
    inter = np.maximum(area2 / 2.0, 0.0)
    return np.minimum(inter / (f[:, _AREA] + g[:, _AREA] - inter), 1.0)


def iou_oracle(a: RotatedBox, b: RotatedBox, samples: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo IoU estimate, the independent check for :func:`iou`.

    Uniform samples over the joint axis-aligned bounding box are classified
    against each box in its own frame. Deterministic for a fixed seed;
    returns 0.0 when no sample lands in either box. Sampling runs in
    float32 chunks, in buffers reused across chunks, to keep a million
    samples per pair cheap; coordinates are taken relative to the joint
    box's centre in float64 first, so the float32 cast keeps its precision
    far from the origin.
    """
    if samples < 10_000:
        raise ValueError(f"need at least 10000 samples, got {samples}")
    corners = np.vstack([box_corners(a), box_corners(b)])
    x0, y0 = corners.min(axis=0)
    x1, y1 = corners.max(axis=0)
    mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    rng = np.random.default_rng(seed)

    frames = (_frame32(a, mx, my), _frame32(b, mx, my))
    sx, sy = np.float32(x1 - x0), np.float32(y1 - y0)
    ox, oy = np.float32(x0 - mx), np.float32(y0 - my)
    chunk = min(131072, samples)
    px, py, *scratch = (np.empty(chunk, dtype=np.float32) for _ in range(6))
    inside = np.empty((3, chunk), dtype=bool)
    inter_n = 0
    union_n = 0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        x, y = px[:n], py[:n]
        rng.random(dtype=np.float32, out=x)
        x *= sx
        x += ox
        rng.random(dtype=np.float32, out=y)
        y *= sy
        y += oy
        for k, frame in enumerate(frames):
            _inside32(x, y, frame, [buf[:n] for buf in scratch], inside[k, :n], inside[2, :n])
        both = int(np.count_nonzero(inside[0, :n] & inside[1, :n]))
        inter_n += both
        union_n += int(np.count_nonzero(inside[:2, :n])) - both
        done += n
    if union_n == 0:
        return 0.0
    return inter_n / union_n


def _frame32(b: RotatedBox, mx: float, my: float) -> tuple:
    return (
        np.float32(b.cx - mx),
        np.float32(b.cy - my),
        np.float32(math.cos(b.theta)),
        np.float32(math.sin(b.theta)),
        np.float32(b.w / 2.0),
        np.float32(b.h / 2.0),
    )


def _inside32(px, py, frame: tuple, scratch, out, tmp) -> None:
    """Write into ``out`` whether each sample lies in the box; works in caller-owned buffers."""
    cx, cy, c, s, hw, hh = frame
    dx, dy, u, v = scratch
    np.subtract(px, cx, out=dx)
    np.subtract(py, cy, out=dy)
    # |dx c + dy s| <= hw and |dy c - dx s| <= hh
    np.multiply(dx, c, out=u)
    u += np.multiply(dy, s, out=v)
    np.less_equal(np.abs(u, out=u), hw, out=out)
    np.multiply(dy, c, out=u)
    u -= np.multiply(dx, s, out=v)
    out &= np.less_equal(np.abs(u, out=u), hh, out=tmp)


def convex_hull(points) -> np.ndarray:
    """Convex hull by monotone chain, counter-clockwise, collinear points dropped."""
    pts = sorted({(float(x), float(y)) for x, y in np.asarray(points, dtype=np.float64)})
    if len(pts) < 3:
        return np.array(pts, dtype=np.float64)

    def build(seq):
        chain: list[tuple[float, float]] = []
        for p in seq:
            while len(chain) >= 2:
                ox, oy = chain[-2]
                ax, ay = chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = build(pts)
    upper = build(reversed(pts))
    return np.array(lower[:-1] + upper[:-1], dtype=np.float64)


def min_area_rect(points) -> RotatedBox:
    """Minimum-area enclosing rotated rectangle of a point set.

    Rotating calipers over the convex hull: the optimal rectangle has one
    edge collinear with a hull edge, so trying every hull-edge direction
    is exhaustive.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or len(pts) < 3:
        raise ValueError("need at least 3 points")
    hull = convex_hull(pts)
    if len(hull) < 3:
        raise ValueError("points are collinear; no enclosing rectangle with positive area")

    best = None
    n = len(hull)
    for i in range(n):
        ex, ey = hull[(i + 1) % n] - hull[i]
        ang = math.atan2(ey, ex)
        c, s = math.cos(ang), math.sin(ang)
        u = hull[:, 0] * c + hull[:, 1] * s
        v = hull[:, 1] * c - hull[:, 0] * s
        u0, u1 = u.min(), u.max()
        v0, v1 = v.min(), v.max()
        area = (u1 - u0) * (v1 - v0)
        if best is None or area < best[0]:
            uc, vc = (u0 + u1) / 2.0, (v0 + v1) / 2.0
            cx = uc * c - vc * s
            cy = uc * s + vc * c
            best = (area, cx, cy, u1 - u0, v1 - v0, ang)
    _, cx, cy, w, h, ang = best
    return RotatedBox.make(float(cx), float(cy), float(w), float(h), float(ang))
