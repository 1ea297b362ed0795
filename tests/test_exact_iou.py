"""The float IoU kernel against exact rational IoU on boxes at Pythagorean angles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rboxkit import polyiou

from exact_iou import ExactBox, kernel_row, tolerance
from exact_iou import iou as exact_iou


@st.composite
def _rotation(draw):
    """(c, s) with c^2 + s^2 = 1 exactly: a Pythagorean triple with any signs and order."""
    m = draw(st.integers(2, 40))
    n = draw(st.integers(1, m - 1))
    a, b, k = m * m - n * n, 2 * m * n, m * m + n * n
    if draw(st.booleans()):
        a, b = b, a
    if draw(st.booleans()):
        a = -a
    if draw(st.booleans()):
        b = -b
    return Fraction(a, k), Fraction(b, k)


# sixteenths are exact in float64, so only the angle and along-axis moves round
_centre = st.integers(-40 * 16, 40 * 16).map(lambda n: Fraction(n, 16))


@st.composite
def _box(draw, cx=_centre, cy=_centre):
    hw = Fraction(draw(st.integers(16, 30 * 16)), 16)
    # aspect hw / hh from 1 to 1024, drawn often near its top
    hh = hw * Fraction(draw(st.one_of(st.integers(1, 16), st.integers(1, 1024))), 1024)
    c, s = draw(_rotation())
    return ExactBox(draw(cx), draw(cy), hw, hh, c, s)


def _moved(b: ExactBox, du, dv, **changes) -> ExactBox:
    """``b`` moved by du along its w axis and dv along its h axis."""
    return b._replace(cx=b.cx + du * b.c - dv * b.s, cy=b.cy + du * b.s + dv * b.c, **changes)


_fraction = st.integers(-1024, 1024).map(lambda n: Fraction(n, 1024))


@st.composite
def _random_pair(draw):
    a = draw(_box())
    return a, draw(_box(cx=_centre.map(lambda d: a.cx + d / 2), cy=_centre.map(lambda d: a.cy + d / 2)))


@st.composite
def _shared_edge_pair(draw):
    a = draw(_box())
    kind = draw(st.sampled_from(["identical", "outside", "inside"]))
    along_w = draw(st.booleans())
    sign = draw(st.sampled_from([-1, 1]))
    if kind == "identical":
        return a, a
    if kind == "outside":
        # a copy moved by a full side along its own axis shares that edge from outside
        return a, _moved(a, sign * 2 * a.hw, 0) if along_w else _moved(a, 0, sign * 2 * a.hh)
    # a shortened copy that keeps one of its ends, sharing that end's edge from inside
    k = Fraction(draw(st.integers(1, 1023)), 1024)
    if along_w:
        return a, _moved(a, sign * (1 - k) * a.hw, 0, hw=k * a.hw)
    return a, _moved(a, 0, sign * (1 - k) * a.hh, hh=k * a.hh)


@st.composite
def _own_axis_pair(draw):
    a = draw(_box())
    f = draw(_fraction) * 3 / 2
    return a, _moved(a, 2 * f * a.hw, 0) if draw(st.booleans()) else _moved(a, 0, 2 * f * a.hh)


@st.composite
def _nested_pair(draw):
    a = draw(_box())
    k = Fraction(draw(st.integers(1, 1024)), 1024)
    inner = a._replace(hw=k * a.hw, hh=k * a.hh)
    return a, _moved(inner, draw(_fraction) * (1 - k) * a.hw, draw(_fraction) * (1 - k) * a.hh)


@st.composite
def _corner_pair(draw):
    a, b = draw(_box()), draw(_box())
    # b in a's orientation, or turned a quarter, with one corner on one of a's
    if draw(st.booleans()):
        b = b._replace(c=a.c, s=a.s)
        bw, bh = b.hw, b.hh
    else:
        b = b._replace(c=-a.s, s=a.c)
        bw, bh = b.hh, b.hw
    su, sv = draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1]))
    du, dv = su * (a.hw + bw), sv * (a.hh + bh)
    return a, b._replace(cx=a.cx + du * a.c - dv * a.s, cy=a.cy + du * a.s + dv * a.c)


_FAMILIES = {
    "random": _random_pair(),
    "shared_edge_or_identical": _shared_edge_pair(),
    "own_axis": _own_axis_pair(),
    "nested": _nested_pair(),
    "touching_corners": _corner_pair(),
}


@st.composite
def _placed(draw, family):
    """A pair of ``family``, at the origin or both moved by up to 1e6 px."""
    a, b = draw(family)
    dx, dy = draw(st.sampled_from([0, 10**6, -(10**6)])), draw(st.integers(-(10**6), 10**6))
    return a._replace(cx=a.cx + dx, cy=a.cy + dy), b._replace(cx=b.cx + dx, cy=b.cy + dy)


@pytest.mark.parametrize("family", _FAMILIES.values(), ids=_FAMILIES.keys())
@given(data=st.data())
def test_kernel_matches_exact_iou(family, data):
    a, b = data.draw(_placed(family))
    rows = np.array([kernel_row(a), kernel_row(b)])
    exact = exact_iou(a, b)
    tol = tolerance(a, b)
    got = polyiou.iou_matrix(rows[:1], rows[1:])[0, 0]
    assert abs(got - float(exact)) <= tol
    assert polyiou.iou_matrix(rows[1:], rows[:1])[0, 0] == got
    # the bound greedy_nms drops pairs by never falls below the exact IoU
    upper = polyiou._iou_upper(polyiou._table(rows), np.array([0, 1]), np.array([1, 0]))
    assert (upper >= float(exact) - polyiou._MARGIN).all()


def test_tolerance_covers_only_rounding():
    # at theta 0 the rows are exact, and the bound is rounding-sized
    a = ExactBox(Fraction(0), Fraction(0), Fraction(2), Fraction(1), Fraction(1), Fraction(0))
    b = ExactBox(Fraction(1), Fraction(0), Fraction(2), Fraction(1), Fraction(1), Fraction(0))
    assert exact_iou(a, b) == Fraction(3, 5)
    assert tolerance(a, b) < 1e-12


@st.composite
def _cluster(draw):
    """2 to 8 boxes in priority order around one or two centres, some of them copies or own-axis moves."""
    centres = draw(st.lists(_box(), min_size=1, max_size=2))
    near = _centre.map(lambda d: d / 4)
    boxes = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(["near", "near", "copy", "own_axis"]) if boxes else st.just("near"))
        if kind == "near":
            c = draw(st.sampled_from(centres))
            boxes.append(draw(_box(cx=near.map(lambda d: c.cx + d), cy=near.map(lambda d: c.cy + d))))
        elif kind == "copy":
            boxes.append(draw(st.sampled_from(boxes)))
        else:
            b = draw(st.sampled_from(boxes))
            f = draw(_fraction)
            boxes.append(_moved(b, f * b.hw, 0) if draw(st.booleans()) else _moved(b, 0, f * b.hh))
    return boxes


@given(_cluster(), st.sampled_from([0.1, 0.3, 0.5, 0.7]))
def test_greedy_nms_keeps_the_exact_greedy_rows(boxes, threshold):
    n = len(boxes)
    thr = Fraction(threshold)
    exact = {}
    for i in range(n):
        for j in range(i + 1, n):
            exact[i, j] = exact_iou(boxes[i], boxes[j])
            # a pair this close to the threshold may fall either way in floats
            assume(abs(exact[i, j] - thr) > tolerance(boxes[i], boxes[j]))
    kept = []
    for j in range(n):
        if all(exact[i, j] <= thr for i in kept):
            kept.append(j)
    rows = np.array([kernel_row(b) for b in boxes])
    assert polyiou.greedy_nms(rows, threshold).tolist() == kept
