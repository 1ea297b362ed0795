"""Exact rotated-box IoU over rationals, the reference for the float kernel.

A box is (cx, cy, hw, hh, c, s): a rational centre, rational half sides
and (c, s) = (a/k, b/k) from a Pythagorean triple a^2 + b^2 = k^2, so its
corners are rational. Sutherland-Hodgman over :class:`fractions.Fraction`,
with exact predicates, gives the exact intersection polygon and so the
exact IoU. :func:`kernel_row` is the (cx, cy, w, h, theta) row the kernel
reads for a box, and :func:`tolerance` bounds how far the kernel's IoU of
those rows may lie from the exact one.

The clipping is plain arithmetic, so :func:`intersection` also runs on
float-valued boxes (float centre and half sides, libm cos and sin of the
angle): it is then the float reference that the kernel is checked against
on boxes at any angle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple


class ExactBox(NamedTuple):
    cx: Fraction
    cy: Fraction
    hw: Fraction
    hh: Fraction
    c: Fraction
    s: Fraction


# relative size of one float64 rounding
_UNIT = Fraction(1, 2**53)
# roundings of size _UNIT * L^2 allowed for the kernel's own arithmetic: it
# sums 8 boundary terms, each a product of two coordinates of size at most L
# that are a handful of roundings (about 16) from exact: 8 * (2 * 16) = 256
_ROUNDINGS = 256


def corners(b: ExactBox) -> list[tuple[Fraction, Fraction]]:
    """Corners counter-clockwise from (-hw, -hh), as ``box_corners`` orders them."""
    out = []
    for u, v in ((-b.hw, -b.hh), (b.hw, -b.hh), (b.hw, b.hh), (-b.hw, b.hh)):
        out.append((b.cx + u * b.c - v * b.s, b.cy + u * b.s + v * b.c))
    return out


def area(poly) -> Fraction:
    """Signed shoelace area of a polygon, positive counter-clockwise."""
    n = len(poly)
    twice = sum((poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1] for i in range(n)), Fraction(0))
    return twice / 2


def intersection(a: ExactBox, b: ExactBox) -> Fraction:
    """Exact area of the intersection of two boxes (Sutherland-Hodgman)."""
    poly = corners(a)
    clip = corners(b)
    for k in range(4):
        (ax, ay), (bx, by) = clip[k], clip[(k + 1) % 4]
        ex, ey = bx - ax, by - ay
        out = []
        for i, (px, py) in enumerate(poly):
            qx, qy = poly[(i + 1) % len(poly)]
            sp = ex * (py - ay) - ey * (px - ax)
            sq = ex * (qy - ay) - ey * (qx - ax)
            if sp >= 0:
                out.append((px, py))
            if (sp > 0 and sq < 0) or (sp < 0 and sq > 0):
                r = sp / (sp - sq)
                out.append((px + r * (qx - px), py + r * (qy - py)))
        poly = out
        if len(poly) < 3:
            return Fraction(0)
    return area(poly)


def iou(a: ExactBox, b: ExactBox) -> Fraction:
    inter = intersection(a, b)
    return inter / (4 * a.hw * a.hh + 4 * b.hw * b.hh - inter)


def kernel_row(b: ExactBox) -> tuple[float, float, float, float, float]:
    """The (cx, cy, w, h, theta) row the float kernel reads for the box."""
    return (float(b.cx), float(b.cy), float(2 * b.hw), float(2 * b.hh), math.atan2(float(b.s), float(b.c)))


def _shift(b: ExactBox) -> Fraction:
    """A bound on how far each corner of the box that the kernel's row
    describes, taken exactly, lies from the same corner of ``b``.

    It covers the rounding of the centre and sides to floats and the ulp
    gap between libm's cos and sin of atan2(s, c) and (c, s) themselves.
    """
    cx, cy, w, h, theta = kernel_row(b)
    c, s = Fraction(math.cos(theta)), Fraction(math.sin(theta))
    row = ExactBox(Fraction(cx), Fraction(cy), Fraction(w) / 2, Fraction(h) / 2, c, s)
    return max(abs(p[0] - q[0]) + abs(p[1] - q[1]) for p, q in zip(corners(row), corners(b)))


def tolerance(a: ExactBox, b: ExactBox) -> float:
    """Largest gap between the kernel's IoU of the two boxes' rows and their exact IoU.

    Moving each corner of a rectangle by at most e moves its boundary by at
    most e, which changes its area, and the intersection's and union's, by
    at most 2 e P + 4 e^2 (P the perimeter). If the intersection and the
    union each move by at most d, the IoU moves by at most
    2 d / (union - d). The kernel's own rounding adds ``_ROUNDINGS``
    roundings on terms of size L^2, where L bounds every coordinate in the
    frame of either box.
    """
    d = Fraction(0)
    for box in (a, b):
        e = _shift(box)
        d += 2 * e * 4 * (box.hw + box.hh) + 4 * e * e
    size = abs(a.cx - b.cx) + abs(a.cy - b.cy) + a.hw + a.hh + b.hw + b.hh
    d += _ROUNDINGS * _UNIT * size * size
    inter = intersection(a, b)
    union = 4 * a.hw * a.hh + 4 * b.hw * b.hh - inter
    return float(2 * d / (union - d))
