"""Exact convex-polygon intersection, rotated-box IoU and related kernels.

Polygons are (n, 2) float arrays of vertices in counter-clockwise order
(positive shoelace area). Box-box intersections produce at most 8
vertices once near-duplicates are merged.

:func:`iou_matrix` is the one rotated-IoU kernel: it works on (N, 5) box
arrays, lists the pairs whose bounding boxes meet and computes only those
exactly; scalar :func:`iou` is its 1x1 case. :func:`greedy_nms` runs
greedy suppression on the same exact stage: it lists its pairs with a
sort-and-sweep on x, drops the pairs whose IoU an upper bound from the two
boxes' parameters puts more than ``_MARGIN`` below the threshold, and
computes exactly only the other pairs that greedy reads.
:func:`clip_convex` (Sutherland-Hodgman) and
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
# candidate pairs per step of _sweep_pairs and of the IoU upper bound; bounds
# their one-dimensional temporaries
_STEP = 4 * _BLOCK
# inclusive slack of the exact stage's tests: on the edge parameters of a
# crossing, and (scaled by the box's area) on the inside tests
_REL_TOL = 1e-10
# largest |cx|, |cy|, w or h the exact stage takes: products of two such
# values in its edge cross products stay finite
_MAX_PARAM = 1e150
# IoU slack of greedy_nms's upper bound: a pair is dropped without the exact
# stage only when the bound lies below the threshold by more than this
_MARGIN = 1e-6


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
    i, j = _aabb_pairs(table[: len(a)], table[len(a) :])
    out = np.zeros((len(a), len(b)), dtype=np.float64)
    if len(i):
        out[i, j] = _exact(table, _tuple_rank(table[:, :5]), i, j + len(a))
    return out


def greedy_nms(boxes, iou_threshold: float) -> np.ndarray:
    """Rows kept by greedy non-maximum suppression over ``boxes``, in increasing order.

    ``boxes`` is an (N, 5) array in priority order: a row is kept unless a
    kept row before it has IoU strictly above ``iou_threshold`` with it.
    The pairs whose bounding boxes meet come from a sort-and-sweep on x
    (:func:`_sweep_pairs`). Each pair's IoU is then bounded from above from
    the two boxes' parameters alone (:func:`_iou_upper`); a pair whose bound
    lies more than ``_MARGIN`` below the threshold can never suppress and is
    dropped. The pass runs in rounds over the other pairs. Each round keeps
    every undecided row whose earlier partners are all decided (the first
    undecided row always is, and no two rows kept in one round are
    partners), computes the exact IoU of every pair (newly kept row,
    undecided later partner), and suppresses the partners above the
    threshold. Every IoU it computes equals the one :func:`iou_matrix`
    gives, and the bound holds to within far less than the margin, so the
    result is that of the sequential greedy pass over all pairs.
    """
    table = _table(_rows(boxes))
    rank = _tuple_rank(table[:, :5])
    i, j = _sweep_pairs(table)
    near = _iou_upper(table, i, j) >= iou_threshold - _MARGIN
    # the pair list only ever holds pairs whose rows are both undecided
    i, j = i[near], j[near]
    undecided = np.ones(len(table), dtype=bool)
    kept = np.zeros(len(table), dtype=bool)
    while undecided.any():
        new = undecided.copy()
        new[j] = False
        kept |= new
        undecided &= ~new
        fresh = new[i]
        if fresh.any():
            later = j[fresh]
            undecided[later[_exact(table, rank, i[fresh], later) > iou_threshold]] = False
        live = undecided[i] & undecided[j]
        i, j = i[live], j[live]
    return np.flatnonzero(kept)


def iou(a: RotatedBox, b: RotatedBox) -> float:
    """Exact intersection-over-union of two rotated boxes: the 1x1 case of :func:`iou_matrix`."""
    return float(iou_matrix(box_array((a,)), box_array((b,)))[0, 0])


# columns of the per-box table built by _table, after the five box parameters:
# cos and sin of theta and the area (the columns the IoU upper bound reads,
# up to _AREA), bounding-box half extents (x, y), corner offsets from the centre
# (four x, then four y) and the inside-test slack
_COS, _SIN, _AREA, _EXT_X, _EXT_Y, _OFF_X, _OFF_Y, _TOL = 5, 6, 7, 8, 9, slice(10, 14), slice(14, 18), 18
# corner offsets in half-side units, counter-clockwise from (-w/2, -h/2) as in box_corners
_SIGN_U = np.array([-1.0, 1.0, 1.0, -1.0])
_SIGN_V = np.array([-1.0, -1.0, 1.0, 1.0])
# edge k runs from corner k to corner k + 1
_NEXT4 = np.array([1, 2, 3, 0])
# table column of each edge's length: edges 0 and 2 run along w, 1 and 3 along h
_EDGE = np.array([2, 3, 2, 3])
# |sin| of the angle between two edges below which they count as parallel
_PARALLEL = 1e-9
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
    t = np.empty((len(arr), 19), dtype=np.float64)
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
    angles = arr[:, 4].tolist()
    c, s = (np.fromiter(map(f, angles), np.float64, len(angles))[:, None] for f in (math.cos, math.sin))
    t[:, _COS], t[:, _SIN] = c[:, 0], s[:, 0]
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
        v = _pair_iou(table.take(np.where(swap, bj, bi), axis=0), table.take(np.where(swap, bi, bj), axis=0))
        v[rank[bi] == rank[bj]] = 1.0
        vals[k : k + _BLOCK] = v
    return vals


def _aabb_pairs(ta, tb) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i into ``ta``, j into ``tb``) whose axis-aligned bounding boxes meet.

    Every (row, column) pair is tested, a chunk of rows at a time, which
    bounds the temporaries; at the sizes ``iou_matrix`` serves this beats a
    sweep.
    """
    rows = max(1, _BLOCK * 16 // max(len(tb), 1))
    ii, jj = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for r in range(0, len(ta), rows):
        a = ta[r : r + rows]
        near = np.abs(a[:, 0, None] - tb[:, 0]) <= a[:, _EXT_X, None] + tb[:, _EXT_X]
        near &= np.abs(a[:, 1, None] - tb[:, 1]) <= a[:, _EXT_Y, None] + tb[:, _EXT_Y]
        i, j = np.nonzero(near)
        ii.append(i + r)
        jj.append(j)
    return np.concatenate(ii), np.concatenate(jj)


def _sweep_pairs(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs i < j of one table whose bounding boxes meet, in no set order.

    These are the pairs :func:`_aabb_pairs` finds of the table against itself.

    Sort-and-sweep on x: a box's candidates are the boxes after it in x-min
    order whose x-min does not pass its x-max, found with ``searchsorted``.
    Both ends of each x-range are widened by a relative 1e-12, so rounding
    cannot hide a pair that the exact test below accepts. Candidates are
    expanded ``_STEP`` or so at a time (one box's run at the least), which
    bounds the temporaries, and each goes through the same test on both axes
    as :func:`_aabb_pairs`.
    """
    pad = 1e-12 * (np.abs(t[:, 0]) + t[:, _EXT_X])
    lo = t[:, 0] - t[:, _EXT_X] - pad
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], (t[:, 0] + t[:, _EXT_X] + pad)[order]
    # sorted position p's candidates are the positions p + 1 .. p + count[p]
    count = np.searchsorted(lo, hi, side="right") - np.arange(1, len(t) + 1)
    end = np.cumsum(count)
    first = end - count
    # rows x, y and the two half extents, in sweep order: row-wise ops on
    # (4, n) arrays run far faster than column ops on (n, 4) ones
    s = t[:, [0, 1, _EXT_X, _EXT_Y]].T.take(order, axis=1)
    ii, jj = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    p = 0
    while p < len(t):
        stop = max(p + 1, int(np.searchsorted(end, first[p] + _STEP, side="right")))
        c = count[p:stop]
        a = np.repeat(np.arange(p, stop), c)
        b = np.repeat(np.arange(p + 1, stop + 1) - (first[p:stop] - first[p]), c) + np.arange(len(a))
        sa, sb = s.take(a, axis=1), s.take(b, axis=1)
        near = np.abs(sa[:2] - sb[:2]) <= sa[2:] + sb[2:]
        near = near[0] & near[1]
        a, b = order[a[near]], order[b[near]]
        ii.append(np.minimum(a, b))
        jj.append(np.maximum(a, b))
        p = stop
    return np.concatenate(ii), np.concatenate(jj)


def _iou_upper(t: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Upper bound on the IoU of each table row pair (F, G) = (i[k], j[k]), ``_STEP`` pairs at a time.

    The intersection lies inside F and inside the rectangle that G projects
    onto F's two axes, so its area is at most their overlap; the same holds
    with F and G swapped, and the smaller overlap counts.
    """
    # gathering the few columns needed, transposed, keeps both the gathers and
    # the arithmetic on contiguous rows, several times faster than on (n, 19) rows
    cols = np.ascontiguousarray(t[:, : _AREA + 1].T)
    out = np.empty(len(i))
    for k in range(0, len(i), _STEP):
        f, g = cols.take(i[k : k + _STEP], axis=1), cols.take(j[k : k + _STEP], axis=1)
        dx, dy = g[0] - f[0], g[1] - f[1]
        cf, sf, cg, sg = f[_COS], f[_SIN], g[_COS], g[_SIN]
        # |cos| and |sin| of the angle between the boxes, and the distances
        # between the centres along F's axes and along G's
        c, s = np.abs(cf * cg + sf * sg), np.abs(cf * sg - sf * cg)
        fu, fv = np.abs(dx * cf + dy * sf), np.abs(dy * cf - dx * sf)
        gu, gv = np.abs(dx * cg + dy * sg), np.abs(dy * cg - dx * sg)
        fw, fh, gw, gh = f[2] / 2.0, f[3] / 2.0, g[2] / 2.0, g[3] / 2.0
        inter = np.minimum(
            _overlap(fw, fu, gw * c + gh * s) * _overlap(fh, fv, gw * s + gh * c),
            _overlap(gw, gu, fw * c + fh * s) * _overlap(gh, gv, fw * s + fh * c),
        )
        out[k : k + _STEP] = inter / (f[_AREA] + g[_AREA] - inter)
    return out


def _overlap(h1, d, h2):
    """Length shared by [-h1, h1] and [d - h2, d + h2], for d >= 0."""
    return np.maximum(np.minimum(2.0 * np.minimum(h1, h2), h1 + h2 - d), 0.0)


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
        del side_f, side_g
        cross = (np.abs(t - 0.5) <= 0.5 + _REL_TOL) & (np.abs(u - 0.5) <= 0.5 + _REL_TOL)
        # near-parallel edges give t and u from rounding noise: such a crossing is
        # spurious, and a true one there sits on a corner the inside tests keep
        cross &= np.abs(det) > _PARALLEL * f[:, _EDGE, None] * g[:, None, _EDGE]
        del det, u
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
