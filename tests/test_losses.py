import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rboxkit.decode import PredictionMaps, ideal_predictions
from rboxkit.geom import RotatedBox, canonicalize_angle
from rboxkit.losses import (
    PROB_EPS,
    LossWeights,
    angle_loss,
    conf_loss,
    focal_loss,
    map_losses,
    shape_loss,
    smooth_l1,
    total_loss,
)
from rboxkit.targets import LevelSpec, TargetMaps, generate_targets, make_levels

PI = math.pi


def fd_gradient(f, xs, step=1e-5):
    """Central finite differences of f at xs, one coordinate at a time."""
    xs = list(xs)
    out = []
    for k in range(len(xs)):
        hi = list(xs)
        lo = list(xs)
        hi[k] += step
        lo[k] -= step
        out.append((f(hi) - f(lo)) / (2 * step))
    return np.array(out)


def assert_gradients_match(analytic, numeric, rel=1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert np.all(np.abs(analytic - numeric) / denom <= rel), (analytic, numeric)


class TestFocalLoss:
    def test_perfect_prediction_vanishes(self):
        assert focal_loss(1, 1 - 1e-9).value == pytest.approx(0.0, abs=1e-8)

    def test_worked_value(self):
        lv = focal_loss(1, 0.5, focal_alpha=0.25, focal_gamma=2.0)
        assert lv.value == pytest.approx(0.25 * 0.25 * math.log(2))

    def test_gamma_zero_halves_cross_entropy(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.uniform(0.01, 0.99)
            y = int(rng.integers(0, 2))
            f = focal_loss(y, p, focal_alpha=0.5, focal_gamma=0.0)
            c = conf_loss(y, p)
            assert abs(f.value - 0.5 * c.value) < 1e-12
            assert abs(f.gradient[0] - 0.5 * c.gradient[0]) < 1e-10

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            focal_loss(1, 0.0)
        with pytest.raises(ValueError):
            focal_loss(1, 1.0)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.uniform(0.05, 0.95)
            y = int(rng.integers(0, 2))
            a = rng.uniform(0.1, 0.9)
            g = rng.uniform(0.0, 4.0)
            lv = focal_loss(y, p, a, g)
            num = fd_gradient(lambda xs: focal_loss(y, xs[0], a, g).value, [p])
            assert_gradients_match(lv.gradient, num)


class TestConfLoss:
    def test_perfect(self):
        assert conf_loss(1, 1 - 1e-12).value == pytest.approx(0.0, abs=1e-9)

    def test_half(self):
        assert conf_loss(1, 0.5).value == pytest.approx(math.log(2))
        assert conf_loss(0, 0.5).value == pytest.approx(math.log(2))

    def test_gradients(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(0.05, 0.95)
            y = int(rng.integers(0, 2))
            lv = conf_loss(y, p)
            num = fd_gradient(lambda xs: conf_loss(y, xs[0]).value, [p])
            assert_gradients_match(lv.gradient, num)


class TestAngleLoss:
    def test_zero_at_match(self):
        assert angle_loss(0.3, 0.3).value == 0.0

    def test_quarter_turn(self):
        assert angle_loss(PI / 2, 0.0).value == pytest.approx(1.0)

    def test_maximum_at_pi(self):
        assert angle_loss(PI, 0.0).value == pytest.approx(2.0)

    def test_pi_needs_canonicalization(self):
        # raw difference of pi scores 2; canonicalized, the same directions
        # coincide and score 0
        raw = angle_loss(PI / 2 + 0.2, -PI / 2 + 0.2)
        assert raw.value == pytest.approx(2.0)
        canon = angle_loss(canonicalize_angle(PI / 2 + 0.2), -PI / 2 + 0.2)
        assert canon.value == pytest.approx(0.0, abs=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            th = rng.uniform(-2, 2)
            tg = rng.uniform(-2, 2)
            if abs(th - tg) < 0.05:
                th += 0.1
            lv = angle_loss(th, tg)
            num = fd_gradient(lambda xs: angle_loss(xs[0], tg).value, [th])
            assert_gradients_match(lv.gradient, num)


class TestSmoothL1:
    def test_values(self):
        assert smooth_l1(0.0).value == 0.0
        assert smooth_l1(0.5).value == 0.125
        assert smooth_l1(2.0).value == 1.5

    def test_continuity_at_kink(self):
        eps = 1e-9
        assert abs(smooth_l1(1 - eps).value - smooth_l1(1 + eps).value) < 1e-8
        assert abs(smooth_l1(1 - eps).gradient[0] - smooth_l1(1 + eps).gradient[0]) < 1e-8

    def test_gradients_both_branches(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = rng.uniform(-3, 3)
            if abs(abs(x) - 1.0) < 0.01:
                x *= 1.1
            lv = smooth_l1(x)
            num = fd_gradient(lambda xs: smooth_l1(xs[0]).value, [x])
            assert_gradients_match(lv.gradient, num)


class TestShapeLoss:
    def test_exact_shape(self):
        assert shape_loss(20, 10, 20, 10).value == 0.0

    def test_double_width(self):
        assert shape_loss(20, 10, 10, 10).value == pytest.approx(0.125)

    def test_symmetry(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            w, h, wg, hg = rng.uniform(1, 100, size=4)
            assert shape_loss(w, h, wg, hg).value == pytest.approx(
                shape_loss(wg, h, w, hg).value, abs=1e-12
            )

    def test_ratio_argument_stays_quadratic(self):
        # 1 - min(r, 1/r) is within [0, 1) for positive sizes
        rng = np.random.default_rng(23)
        for _ in range(200):
            w, wg = rng.uniform(0.1, 500, size=2)
            x = 1 - min(w / wg, wg / w)
            assert 0 <= x < 1

    def test_gradients_in_log_space(self):
        # perturb dw, dh where w = base exp(dw); matches the stored gradient
        rng = np.random.default_rng(29)
        for _ in range(100):
            w, h, wg, hg = rng.uniform(2, 80, size=4)
            if abs(w - wg) < 0.1:
                w += 0.5
            if abs(h - hg) < 0.1:
                h += 0.5
            lv = shape_loss(w, h, wg, hg)
            num = fd_gradient(
                lambda xs: shape_loss(math.exp(xs[0]), math.exp(xs[1]), wg, hg).value,
                [math.log(w), math.log(h)],
            )
            assert_gradients_match(lv.gradient, num)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shape_loss(0, 1, 1, 1)


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss((0, 0, 0, 0, 0)) == 0.0

    def test_reference_weights(self):
        assert total_loss((1, 1, 1, 1, 1), LossWeights()) == pytest.approx(4.1)

    def test_shape_term_removable(self):
        w = LossWeights(shape=0.0)
        assert total_loss((0, 0, 0, 0, 13.0), w) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            total_loss((0, 0, -1, 0, 0))


class TestMapLosses:
    LEVELS = make_levels(64, 64, strides=(4,))

    def _scene(self):
        gts = [RotatedBox(30, 30, 24, 14, 0.2)]
        return generate_targets(gts, self.LEVELS)[0]

    def test_perfect_prediction_is_zero(self):
        target = self._scene()
        pred = ideal_predictions(target)
        out = map_losses(pred, target)
        assert out.angle == pytest.approx(0.0, abs=1e-9)
        assert out.shape == pytest.approx(0.0, abs=1e-9)
        # location stays near zero but not exactly: probabilities clamp at 1e-7
        assert out.loc < 1e-5

    def test_all_ignore_contributes_nothing(self):
        target = self._scene()
        target.location[:] = 255
        target.orientation[:] = 0.5
        pred = ideal_predictions(self._scene())
        assert map_losses(pred, target).loc == 0.0

    def test_single_cell_location_matches_scalar_loss(self):
        # everything ignore except one positive cell: the location mean
        # reduces over that cell alone
        target = self._scene()
        pred = ideal_predictions(target)
        j, i = np.argwhere(target.shape_valid)[0]
        target.location[:] = 255
        target.location[j, i] = 1
        target.orientation[:] = np.where(
            np.isfinite(target.orientation), target.orientation, 0.5
        )
        pred.location_prob[j, i] = 0.7
        out = map_losses(pred, target)
        w = LossWeights()
        assert out.loc == pytest.approx(
            focal_loss(1, 0.7, w.focal_alpha, w.focal_gamma).value, rel=1e-6
        )

    def test_single_cell_angle_and_shape_match_scalar_losses(self):
        # everything negative except one positive cell: the angle and shape
        # means reduce over that cell alone
        target = self._scene()
        pred = ideal_predictions(target)
        j, i = np.argwhere(target.shape_valid)[0]
        keep_t = target.orientation[j, i]
        target.location[:] = 0
        target.location[j, i] = 1
        target.orientation[:] = np.nan
        target.orientation[j, i] = keep_t
        target.shape_valid[:] = False
        target.shape_valid[j, i] = True
        pred.orientation[j, i] = np.float32(keep_t + 0.05)
        pred.shape_dw[j, i] += 0.3

        out = map_losses(pred, target)
        th_hat = math.pi * (float(pred.orientation[j, i]) - 0.5)
        th_gt = math.pi * (float(target.orientation[j, i]) - 0.5)
        assert out.angle == pytest.approx(angle_loss(th_hat, th_gt).value, rel=1e-4)
        base = target.level.base_size
        assert out.shape == pytest.approx(
            shape_loss(
                base * math.exp(float(pred.shape_dw[j, i])),
                base * math.exp(float(pred.shape_dh[j, i])),
                base * math.exp(float(target.shape_dw[j, i])),
                base * math.exp(float(target.shape_dh[j, i])),
            ).value,
            rel=1e-4,
        )
        assert out.weighted == pytest.approx(out.loc + out.angle + 0.1 * out.shape)

    def test_shape_mismatch_rejected(self):
        target = self._scene()
        other = make_levels(32, 32, strides=(4,))[0]
        pred = PredictionMaps(
            level=other,
            location_prob=np.zeros((other.grid_h, other.grid_w), dtype=np.float32),
            orientation=np.full((other.grid_h, other.grid_w), 0.5, dtype=np.float32),
            shape_dw=np.zeros((other.grid_h, other.grid_w), dtype=np.float32),
            shape_dh=np.zeros((other.grid_h, other.grid_w), dtype=np.float32),
        )
        with pytest.raises(ValueError):
            map_losses(pred, target)


@st.composite
def map_pairs(draw):
    """Random target/prediction grids with both labels, ignore cells and shape targets."""
    gh, gw = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    lv = LevelSpec(stride=draw(st.sampled_from([4, 8, 16])), grid_w=gw, grid_h=gh)
    unit = st.floats(0, 1, width=32)
    location = draw(arrays(np.uint8, (gh, gw), elements=st.sampled_from([0, 1, 255])))
    location.flat[:2] = (0, 1)
    covered = location != 0
    target = TargetMaps(
        level=lv,
        location=location,
        orientation=np.where(covered, draw(arrays(np.float32, (gh, gw), elements=unit)), np.nan).astype(
            np.float32
        ),
        shape_dw=draw(arrays(np.float32, (gh, gw), elements=st.floats(-2, 2, width=32))),
        shape_dh=draw(arrays(np.float32, (gh, gw), elements=st.floats(-2, 2, width=32))),
        shape_valid=(location == 1) & draw(arrays(bool, (gh, gw))),
    )
    pred = PredictionMaps(
        level=lv,
        location_prob=draw(arrays(np.float32, (gh, gw), elements=unit)),
        orientation=draw(arrays(np.float32, (gh, gw), elements=unit)),
        shape_dw=draw(arrays(np.float32, (gh, gw), elements=st.floats(-2, 2, width=32))),
        shape_dh=draw(arrays(np.float32, (gh, gw), elements=st.floats(-2, 2, width=32))),
    )
    weights = LossWeights(
        shape=draw(st.floats(0, 1)),
        focal_alpha=draw(st.floats(0.05, 0.95)),
        focal_gamma=draw(st.floats(0, 4)),
    )
    return pred, target, weights


class TestMapLossesProperties:
    @given(map_pairs())
    def test_means_of_scalar_losses(self, case):
        # each branch is the mean of its scalar loss over the branch's mask;
        # 1e-12 covers summation order and libm against numpy exp/log
        pred, target, w = case
        loc, ang, shp = [], [], []
        base = target.level.base_size
        for j, i in np.ndindex(target.location.shape):
            label = int(target.location[j, i])
            if label != 255:
                p = min(max(float(pred.location_prob[j, i]), PROB_EPS), 1.0 - PROB_EPS)
                loc.append(focal_loss(label, p, w.focal_alpha, w.focal_gamma).value)
            if label != 0:
                t_gt = float(target.orientation[j, i])
                ang.append(angle_loss(PI * float(pred.orientation[j, i]), PI * t_gt).value)
            if target.shape_valid[j, i]:
                sides = [base * math.exp(float(g[j, i])) for g in (pred.shape_dw, pred.shape_dh)]
                gt_sides = [base * math.exp(float(g[j, i])) for g in (target.shape_dw, target.shape_dh)]
                shp.append(shape_loss(*sides, *gt_sides).value)

        out = map_losses(pred, target, w)
        assert loc and ang
        assert out.loc == pytest.approx(np.mean(loc), rel=1e-12)
        assert out.angle == pytest.approx(np.mean(ang), rel=1e-12, abs=1e-15)
        assert out.shape == pytest.approx(np.mean(shp) if shp else 0.0, rel=1e-12)
        assert out.weighted == total_loss((0, 0, out.loc, out.angle, out.shape), w)
