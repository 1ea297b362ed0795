"""Exact rotated-box IoU, greedy NMS on it, and a Monte-Carlo check.

Boxes are (N, 5) float64 arrays of (cx, cy, w, h, theta) rows;
:func:`box_array` builds one from :class:`RotatedBox` values.

:func:`iou_pairs` is the one rotated-IoU kernel: it lists the pairs of
one image whose bounding boxes meet, with a sort-and-sweep on x, and
computes only those exactly, in the first box's frame, by summing the
pieces of the intersection's boundary (Green's theorem) with no vertex list,
sort or tolerance. :func:`iou_matrix` is its one-image case, scattered into
a dense matrix, and scalar :func:`iou` its 1x1 case. :func:`greedy_nms` runs
greedy suppression over the same sweep and exact stage: it drops the pairs
whose IoU an upper bound from the two boxes' parameters puts more than
``_MARGIN`` below the threshold, and computes exactly only the other pairs
that greedy reads. :func:`iou_oracle` estimates one pair's IoU by
Monte-Carlo sampling, the independent check that ``rboxkit iou`` prints
next to the exact value.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import _CORNER_U, _CORNER_V, RotatedBox, box_corners

# candidate pairs per step of the exact stage; bounds its temporaries
_BLOCK = 1024
# candidate pairs per step of _sweep_pairs and of the IoU upper bound; bounds
# their one-dimensional temporaries
_STEP = 4 * _BLOCK
# largest |cx|, |cy|, w or h the exact stage takes: the other box's corners
# in the first box's frame then stay within 4e150, so the products of two
# coordinates in its boundary terms stay below 2e301 and finite
_MAX_PARAM = 1e150
# clamp on the exact stage's crossing parameters t: x_k + t e_x never reads inf * 0
_T_MAX = 1e300
# IoU slack of greedy_nms's upper bound: a pair is dropped without the exact
# stage only when the bound lies below the threshold by more than this
_MARGIN = 1e-6


def box_array(boxes) -> np.ndarray:
    """(N, 5) float64 rows of (cx, cy, w, h, theta), the input of :func:`iou_matrix`."""
    return np.array([(b.cx, b.cy, b.w, b.h, b.theta) for b in boxes], dtype=np.float64).reshape(-1, 5)


def iou_pairs(a, b, images_a=0, images_b=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact IoU of the pairs (a[i], b[j]) of one image whose axis-aligned bounding boxes meet, in no set order.

    ``a`` and ``b`` are (N, 5) and (M, 5) arrays of (cx, cy, w, h, theta)
    rows, ``images_a`` and ``images_b`` each row's image as an int code (one
    image when omitted); every pair not listed has IoU 0. One table over a's
    rows, then b's, feeds one sweep and one exact stage, whose memory stays
    bounded by the pair list and one block; the exact stage orders each pair
    by its rows (see :func:`_exact`), so swapping ``a`` and ``b`` gives the
    same values bit for bit, and identical boxes read exactly 1.
    """
    a, b = _rows(a), _rows(b)
    table = _table(np.concatenate([a, b]))
    images = np.concatenate([np.broadcast_to(images_a, len(a)), np.broadcast_to(images_b, len(b))])
    i, j = _sweep_pairs(table, images, len(a))
    return i, j - len(a), _exact(table, i, j)


def iou_matrix(a, b) -> np.ndarray:
    """Exact IoU of every box in ``a`` against every box in ``b``: :func:`iou_pairs` of one image, as a matrix."""
    i, j, v = iou_pairs(a, b)
    out = np.zeros((len(a), len(b)), dtype=np.float64)
    out[i, j] = v
    return out


def greedy_nms(boxes, iou_threshold: float, images=0) -> np.ndarray:
    """Rows kept by greedy non-maximum suppression over ``boxes``, in increasing order.

    ``boxes`` is an (N, 5) array in priority order and ``images`` each row's
    image as an int code (one image when omitted): a row is kept unless a
    kept row of its image before it has IoU strictly above ``iou_threshold``
    with it. The pairs of one image whose bounding boxes meet come from a
    sort-and-sweep on x (:func:`_sweep_pairs`), so all images share each
    round. Each pair's IoU is then bounded from above from the two boxes'
    parameters alone (:func:`_iou_upper`); a pair whose bound lies more than
    ``_MARGIN`` below the threshold can never suppress and is dropped. The
    pass runs in rounds over the other pairs. Each round keeps every
    undecided row whose earlier partners are all decided (the first
    undecided row always is, and no two rows kept in one round are
    partners), computes the exact IoU of every pair (newly kept row,
    undecided later partner), and suppresses the partners above the
    threshold. Every IoU it computes equals the one :func:`iou_matrix`
    gives, and the bound holds to within far less than the margin, so the
    result is that of the sequential greedy pass over all pairs.
    """
    table = _table(_rows(boxes))
    i, j = _sweep_pairs(table, images)
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
            undecided[later[_exact(table, i[fresh], later) > iou_threshold]] = False
        live = undecided[i] & undecided[j]
        i, j = i[live], j[live]
    return np.flatnonzero(kept)


def iou(a: RotatedBox, b: RotatedBox) -> float:
    """Exact intersection-over-union of two rotated boxes: the 1x1 case of :func:`iou_matrix`."""
    return float(iou_matrix(box_array((a,)), box_array((b,)))[0, 0])


# columns of the per-box table built by _table, after the five box parameters:
# cos and sin of theta and the area (the columns the IoU upper bound reads,
# up to _AREA) and the bounding-box half extents (x, y)
_COS, _SIN, _AREA, _EXT_X, _EXT_Y = 5, 6, 7, 8, 9
# edge k runs from corner k to corner k + 1
_NEXT4 = np.array([1, 2, 3, 0])


def _rows(boxes) -> np.ndarray:
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(f"boxes must be an (N, 5) array, got shape {arr.shape}")
    return arr


def _table(arr: np.ndarray) -> np.ndarray:
    """Validated box rows extended by what every pair needs from one box (see ``_COS`` and on).

    Cosine and sine go through libm, so no entry depends on its neighbours in the array.
    The half extents hw |cos| + hh |sin| and hw |sin| + hh |cos| are the largest corner offsets.
    """
    if not np.isfinite(arr).all():
        raise ValueError("box parameters must be finite")
    t = np.empty((len(arr), 10), dtype=np.float64)
    t[:, :5] = arr
    with np.errstate(over="ignore"):
        t[:, _AREA] = arr[:, 2] * arr[:, 3]
    if not (t[:, _AREA] > 0.0).all():
        raise ValueError("zero-area box passed to iou")
    if not np.isfinite(t[:, _AREA]).all():
        raise ValueError("box area w * h overflows to infinity")
    if (np.abs(arr[:, :4]) > _MAX_PARAM).any():
        raise ValueError(f"box centre and sides must not exceed {_MAX_PARAM:g} in magnitude")
    angles = arr[:, 4].tolist()
    t[:, _COS], t[:, _SIN] = (np.fromiter(map(f, angles), np.float64, len(angles)) for f in (math.cos, math.sin))
    c, s, hw, hh = np.abs(t[:, _COS]), np.abs(t[:, _SIN]), arr[:, 2] / 2.0, arr[:, 3] / 2.0
    t[:, _EXT_X], t[:, _EXT_Y] = hw * c + hh * s, hw * s + hh * c
    return t


def _exact(table: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Exact IoU of the table row pairs (i[k], j[k]), in blocks of ``_BLOCK``.

    A pair's first box is the one whose (cx, cy, w, h, theta) row is smaller
    at the first column where the two rows differ, so the result does not
    depend on the order of the pair; a pair of equal rows reads exactly 1.
    """
    vals = np.empty(len(i), dtype=np.float64)
    for k in range(0, len(i), _BLOCK):
        bi, bj = i[k : k + _BLOCK], j[k : k + _BLOCK]
        f, g = table.take(bi, axis=0), table.take(bj, axis=0)
        differ = f != g  # columns past the first five follow from them, so rows first differ in one of those
        first = np.arange(len(bi)), differ.argmax(axis=1)
        swap = g[first] < f[first]
        v = _pair_iou(table.take(np.where(swap, bj, bi), axis=0), table.take(np.where(swap, bi, bj), axis=0))
        v[~differ[first]] = 1.0
        vals[k : k + _BLOCK] = v
    return vals


def _sweep_pairs(t: np.ndarray, images=0, split=None) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs i < j of one table and one image whose bounding boxes meet, in no set order.

    ``images`` is each row's image as an int code (one image when omitted);
    with ``split``, only pairs i < split <= j. Boxes meet when, on each axis,
    the distance between the centres is at most the sum of the half extents.

    Sort-and-sweep on x: a box's candidates are the boxes after it in
    (image, x-min) order, of its image, whose x-min does not pass its x-max,
    found with ``searchsorted`` on the keys image + x 1j (numpy orders
    complex numbers by real part, then imaginary part, so no x is shifted).
    With ``split`` the sides are sorted apart; a row takes the other side's rows whose x-min lies in
    [its x-min, its x-max], or (its x-min, its x-max] for rows from ``split`` on: each pair once.
    Both ends of each x-range are widened by a relative 1e-12, so rounding
    cannot hide a pair that the exact test below accepts. Candidates are
    expanded ``_STEP`` or so at a time (one box's run at the least), which
    bounds the temporaries, and each goes through that test on both axes.
    """
    pad = 1e-12 * (np.abs(t[:, 0]) + t[:, _EXT_X])
    lo = images + 1j * (t[:, 0] - t[:, _EXT_X] - pad)
    n = len(t) if split is None else split
    order = np.concatenate([np.argsort(lo[:n], kind="stable"), n + np.argsort(lo[n:], kind="stable")])
    lo, hi = lo[order], (images + 1j * (t[:, 0] + t[:, _EXT_X] + pad))[order]
    # sorted position p's candidates are the positions start[p] .. start[p] + count[p] - 1
    if split is None:
        start, limit = np.arange(1, n + 1), np.searchsorted(lo, hi, side="right")
    else:
        la, lb, ha, hb = lo[:n], lo[n:], hi[:n], hi[n:]
        start = np.concatenate([n + np.searchsorted(lb, la, side="left"), np.searchsorted(la, lb, side="right")])
        limit = np.concatenate([n + np.searchsorted(lb, ha, side="right"), np.searchsorted(la, hb, side="right")])
    count = limit - start
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
        b = np.repeat(start[p:stop] - (first[p:stop] - first[p]), c) + np.arange(len(a))
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
    # the arithmetic on contiguous rows, several times faster than on (n, 10) rows
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
    """IoU of the table rows (f[k], g[k]) for one block of candidate pairs.

    In F's frame F is |x| <= hw, |y| <= hh. By Green's theorem twice the
    intersection area sums P x Q over its boundary: G's edge k inside F over
    parameters [t0, t1] adds (t1 - t0) (P_k x P_k+1), and a piece of F's side
    inside G adds its length times the side's distance from the centre. Exact
    quarter turns bring each side to the bottom, y = -depth, where edge k meets
    its line at t = (-depth - y_k) / e_y, x = x_k + t e_x: that one crossing
    clips both the edge to F and the side to G. Exact ties count G as shrunk by
    an infinitesimal: a side of F on G's boundary is outside G, and an edge of
    G on F's boundary is inside F only where it runs the way of F's side.
    """
    f, g = f.T, g.T  # one row per column, so every temporary runs along the pairs
    cf, sf, cg, sg = f[_COS], f[_SIN], g[_COS], g[_SIN]
    # G's centre, cos and sin relative to F, and its corners (as in box_corners) in the frames
    # of F's bottom, right, top and left sides: frame m has x in pts[m] and y in pts[m + 1]
    ox, oy = g[0] - f[0], g[1] - f[1]
    dx, dy, c, s = cf * ox + sf * oy, cf * oy - sf * ox, cf * cg + sf * sg, cf * sg - sf * cg
    u, v = _CORNER_U[:, None] * (g[2] / 2.0), _CORNER_V[:, None] * (g[3] / 2.0)
    xy = np.array([dx + (u * c - v * s), dy + (u * s + v * c)])
    pts = np.concatenate([xy, -xy, xy[:1]])
    nxt = pts.take(_NEXT4, axis=1)
    edges = nxt - pts
    px, py, ex, ey = pts[:4], pts[1:], edges[:4], edges[1:]
    # each side's distance from F's centre (hh, hw, hh, hw), then its half length
    half = f.take([3, 2, 3, 2, 3], axis=0) / 2.0
    depth, half = half[:4], half[1:]
    # [m, k] over F's side m and G's edge k; a flat edge (e_y == 0) gets a t the masks below never read
    num = -depth[:, None] - py
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.maximum(np.minimum(num / ey, _T_MAX), -_T_MAX)
        cross_x = px + t * ex
    up, down, flat = ey > 0, ey < 0, ey == 0
    # the side's line lies strictly inside G's half-plane of a flat edge
    side_in = ex * num > 0
    # G's edges clipped to F: a rising edge is inside for t >= the crossing, a falling one for
    # t <= it, a flat one whole or not at all (on the side's line, where it runs the side's way).
    # Frames m and m + 2 see an edge rise and fall in turn, so each max and min meets its fill.
    t0 = np.where(up, t, 0.0).max(axis=0)
    t1 = np.where(down, t, 1.0).min(axis=0)
    lengths = np.where((flat & (side_in == (ex > 0))).any(axis=0), 0.0, np.maximum(t1 - t0, 0.0))
    # F's sides clipped to G: a rising edge bounds the side's x from above, a falling one from below
    hi = np.minimum(np.where(up, cross_x, np.inf).min(axis=1), half)
    lo = np.maximum(np.where(down, cross_x, -np.inf).max(axis=1), -half)
    sides = np.where((flat & ~side_in).any(axis=1), 0.0, np.maximum(hi - lo, 0.0))
    inter = ((lengths * (xy[0] * nxt[1] - xy[1] * nxt[0])).sum(axis=0) + (depth * sides).sum(axis=0)) / 2.0
    return np.clip(inter / (f[_AREA] + g[_AREA] - inter), 0.0, 1.0)


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
