"""Multi-task loss functions with analytic gradients.

Each formula is one elementwise numpy function, with a separate gradient
function. :func:`map_losses` averages them over cell masks; each scalar
loss checks its inputs and evaluates them on 0-d values, and the tests
check its :class:`LossValue` gradient against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .targets import LOC_IGNORE, LOC_NEGATIVE, LOC_POSITIVE

PROB_EPS = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Branch weights plus the focal-loss parameters.

    ``loc``/``angle``/``shape`` weight the anchor-branch terms of the
    combined objective; ``focal_alpha``/``focal_gamma`` shape the location
    loss itself and are unrelated to the branch weights.
    """

    loc: float = 1.0
    angle: float = 1.0
    shape: float = 0.1
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    def __post_init__(self):
        for name in ("loc", "angle", "shape", "focal_gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < self.focal_alpha < 1.0:
            raise ValueError(f"focal_alpha must lie in (0, 1), got {self.focal_alpha}")


@dataclass(frozen=True)
class LossValue:
    """A loss and its gradient with respect to the stated inputs."""

    value: float
    gradient: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"loss value must be finite and non-negative, got {self.value!r}")
        if not np.all(np.isfinite(self.gradient)):
            raise ValueError("gradient must be finite")


def _focal(y, p, a, g):
    """Focal loss of probability p for the 0/1 label y."""
    return -(y * a * (1.0 - p) ** g * np.log(p) + (1.0 - y) * (1.0 - a) * p**g * np.log(1.0 - p))


def _focal_grad(y, p, a, g):
    """Derivative of :func:`_focal` with respect to p."""
    d_pos = a * (g * (1.0 - p) ** (g - 1.0) * np.log(p) - (1.0 - p) ** g / p)
    return y * d_pos - (1.0 - y) * (1.0 - a) * (g * p ** (g - 1.0) * np.log(1.0 - p) - p**g / (1.0 - p))


def _cosine(d):
    """Orientation loss 1 - cos(d) of an angle difference d."""
    return 1.0 - np.cos(d)


def _smooth_l1(x):
    return np.where(np.abs(x) < 1.0, 0.5 * x * x, np.abs(x) - 0.5)


def _smooth_l1_grad(x):
    return np.where(np.abs(x) < 1.0, x, np.sign(x))


def _bounded_ratio(a, b):
    """1 - min(a/b, b/a): 0 when the sides agree, below 1 for positive sides."""
    return 1.0 - np.minimum(a / b, b / a)


def _bounded_ratio_grad(a, b):
    """Derivative of :func:`_bounded_ratio` with respect to a."""
    return np.where(a <= b, -1.0 / b, b / (a * a))


def _check_prob(p: float, name: str) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {p!r}")


def focal_loss(y: int, y_prime: float, focal_alpha: float = 0.25, focal_gamma: float = 2.0) -> LossValue:
    """Focal loss for a binary label; gradient is with respect to y_prime.

    y = 1: -alpha (1 - p)^gamma log p
    y = 0: -(1 - alpha) p^gamma log(1 - p)
    """
    _check_prob(y_prime, "y_prime")
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    p, a, g = np.float64(y_prime), focal_alpha, focal_gamma
    return LossValue(float(_focal(y, p, a, g)), np.array([_focal_grad(y, p, a, g)]))


def conf_loss(y: int, p: float) -> LossValue:
    """Binary cross entropy, exactly twice the focal loss at alpha 1/2, gamma 0; gradient wrt p."""
    _check_prob(p, "p")
    half = focal_loss(y, p, focal_alpha=0.5, focal_gamma=0.0)
    return LossValue(2.0 * half.value, 2.0 * half.gradient)


def angle_loss(theta_hat: float, theta_g: float) -> LossValue:
    """Cosine orientation loss 1 - cos(th_hat - th_g), in [0, 2].

    Gradient is with respect to theta_hat. The raw form is 2 (not 0) at a
    difference of pi; canonicalize inputs first when a direction and its
    opposite should count as equal.
    """
    if not (math.isfinite(theta_hat) and math.isfinite(theta_g)):
        raise ValueError("angles must be finite")
    d = np.float64(theta_hat) - theta_g
    return LossValue(float(_cosine(d)), np.array([np.sin(d)]))


def smooth_l1(x: float) -> LossValue:
    """Smooth L1: 0.5 x^2 inside |x| < 1, |x| - 0.5 outside; gradient wrt x."""
    if not math.isfinite(x):
        raise ValueError(f"input must be finite, got {x!r}")
    x = np.float64(x)
    return LossValue(float(_smooth_l1(x)), np.array([_smooth_l1_grad(x)]))


def shape_loss(w: float, h: float, wg: float, hg: float) -> LossValue:
    """Bounded-IoU shape loss over the two side ratios.

    SmoothL1(1 - min(w/wg, wg/w)) + SmoothL1(1 - min(h/hg, hg/h)); symmetric
    in (w, wg) and in (h, hg). The gradient is expressed in the log-size
    parameterization (dL/d dw, dL/d dh) where w = base e^dw, so
    dL/d dw = dL/dw * w.
    """
    for name, v in (("w", w), ("h", h), ("wg", wg), ("hg", hg)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")
    sides, gt = np.array([w, h], dtype=np.float64), np.array([wg, hg], dtype=np.float64)
    x = _bounded_ratio(sides, gt)
    grad = _smooth_l1_grad(x) * _bounded_ratio_grad(sides, gt) * sides
    return LossValue(float(np.sum(_smooth_l1(x))), grad)


def total_loss(components, weights: LossWeights = LossWeights()) -> float:
    """Weighted sum of (conf, reg, loc, angle, shape) loss components."""
    l_conf, l_reg, l_loc, l_angle, l_shape = components
    if any(v < 0 for v in components):
        raise ValueError("loss components must be non-negative")
    return l_conf + l_reg + weights.loc * l_loc + weights.angle * l_angle + weights.shape * l_shape


@dataclass(frozen=True)
class MapLosses:
    """Reduced per-branch losses over prediction/target map pairs."""

    loc: float
    angle: float
    shape: float
    weighted: float


def _mean(per_cell) -> float:
    """Float64 pairwise mean over one mask's cells; an empty mask contributes 0."""
    return float(np.mean(per_cell)) if per_cell.size else 0.0


def map_losses(pred, target, weights: LossWeights = LossWeights()) -> MapLosses:
    """Mean anchor-branch losses between prediction maps and target maps.

    Location: focal loss over non-ignore cells (positive cells labeled 1).
    Orientation: cosine loss over covered cells, both maps converted from
    [0, 1] back to radians first. Shape: bounded-IoU loss over cells with
    a shape target, comparing the decoded (w, h) pairs. Empty masks
    contribute 0. Sums use float64 pairwise reduction, so results do not
    depend on evaluation order. ``weighted`` is their :func:`total_loss`.
    """
    if pred.location_prob.shape != target.location.shape:
        raise ValueError(
            f"grid mismatch: predictions {pred.location_prob.shape} vs targets {target.location.shape}"
        )

    loc_mask = target.location != LOC_IGNORE
    p = np.clip(pred.location_prob[loc_mask].astype(np.float64), PROB_EPS, 1.0 - PROB_EPS)
    pos = (target.location[loc_mask] == LOC_POSITIVE).astype(np.float64)
    l_loc = _mean(_focal(pos, p, weights.focal_alpha, weights.focal_gamma))

    ang_mask = target.location != LOC_NEGATIVE
    t_hat = np.clip(pred.orientation[ang_mask].astype(np.float64), 0.0, 1.0)
    t_gt = target.orientation[ang_mask].astype(np.float64)
    l_angle = _mean(_cosine(np.pi * (t_hat - t_gt)))  # affine map to radians cancels the shift

    shp_mask = target.shape_valid
    sides_p, sides_g = (
        target.level.base_size * np.exp(np.stack([dw[shp_mask], dh[shp_mask]]).astype(np.float64))
        for dw, dh in ((pred.shape_dw, pred.shape_dh), (target.shape_dw, target.shape_dh))
    )
    l_shape = _mean(np.sum(_smooth_l1(_bounded_ratio(sides_p, sides_g)), axis=0))

    weighted = total_loss((0.0, 0.0, l_loc, l_angle, l_shape), weights)
    return MapLosses(loc=l_loc, angle=l_angle, shape=l_shape, weighted=weighted)
