import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rboxkit.decode import PredictionMaps, ideal_predictions
from rboxkit.geom import RotatedBox, canonicalize_angle
from rboxkit.losses import (
    _CHUNK,
    PROB_EPS,
    LossWeights,
    _bounded_ratio,
    _cosine,
    _focal,
    _mean,
    _smooth_l1,
    angle_loss,
    conf_loss,
    focal_loss,
    map_losses,
    shape_loss,
    smooth_l1,
    total_loss,
)
from rboxkit.targets import (
    LOC_IGNORE,
    LOC_NEGATIVE,
    LOC_POSITIVE,
    LevelSpec,
    TargetMaps,
    generate_targets,
    make_levels,
)

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


def two_branch_focal(y, p, a, g):
    """Reference: both focal branches on every cell, weighted by y and 1 - y."""
    return -(y * a * (1.0 - p) ** g * np.log(p) + (1.0 - y) * (1.0 - a) * p**g * np.log(1.0 - p))


def whole_grid_map_losses(pred, target, weights):
    """Reference: map_losses as one whole-grid pass with the two-branch focal formula."""

    def mean(x):
        return float(np.mean(x)) if x.size else 0.0

    loc_mask = target.location != LOC_IGNORE
    p = np.clip(pred.location_prob[loc_mask].astype(np.float64), PROB_EPS, 1.0 - PROB_EPS)
    pos = (target.location[loc_mask] == LOC_POSITIVE).astype(np.float64)
    l_loc = mean(two_branch_focal(pos, p, weights.focal_alpha, weights.focal_gamma))
    ang_mask = target.location != LOC_NEGATIVE
    t_hat = np.clip(pred.orientation[ang_mask].astype(np.float64), 0.0, 1.0)
    t_gt = target.orientation[ang_mask].astype(np.float64)
    l_angle = mean(1.0 - np.cos(np.pi * (t_hat - t_gt)))
    shp = target.shape_valid
    sides_p, sides_g = (
        target.level.base_size * np.exp(np.stack([dw[shp], dh[shp]]).astype(np.float64))
        for dw, dh in ((pred.shape_dw, pred.shape_dh), (target.shape_dw, target.shape_dh))
    )
    x = 1.0 - np.minimum(sides_p / sides_g, sides_g / sides_p)
    l_shape = mean(np.sum(np.where(np.abs(x) < 1.0, 0.5 * x * x, np.abs(x) - 0.5), axis=0))
    weighted = total_loss((0.0, 0.0, l_loc, l_angle, l_shape), weights)
    return l_loc, l_angle, l_shape, weighted


def gathered_map_losses(pred, target, weights):
    """Reference: map_losses as it gathered the scored cells with take, _CHUNK at a time,
    and masked whole grids for the angle and shape terms."""
    scored = np.flatnonzero(target.location != LOC_IGNORE)
    prob, label = pred.location_prob.ravel(), target.location.ravel()
    per_cell = np.empty(scored.size)
    for lo in range(0, scored.size, _CHUNK):
        cells = scored[lo : lo + _CHUNK]
        raw = prob.take(cells)
        if np.isnan(raw).any():
            raise ValueError("location_prob is NaN on a scored cell")
        p = np.clip(raw.astype(np.float64), PROB_EPS, 1.0 - PROB_EPS)
        y = label.take(cells) == LOC_POSITIVE
        per_cell[lo : lo + cells.size] = _focal(y, p, weights.focal_alpha, weights.focal_gamma)
    l_loc = _mean(per_cell)
    ang_mask = target.location != LOC_NEGATIVE
    t_hat = pred.orientation[ang_mask].astype(np.float64)
    if np.isnan(t_hat).any():
        raise ValueError("orientation is NaN on a covered cell")
    t_hat = np.clip(t_hat, 0.0, 1.0)
    t_gt = target.orientation[ang_mask].astype(np.float64)
    l_angle = _mean(_cosine(np.pi * (t_hat - t_gt)))
    shp_mask = target.shape_valid
    sides_p, sides_g = (
        target.level.base_size * np.exp(np.stack([dw[shp_mask], dh[shp_mask]]).astype(np.float64))
        for dw, dh in ((pred.shape_dw, pred.shape_dh), (target.shape_dw, target.shape_dh))
    )
    l_shape = _mean(np.sum(_smooth_l1(_bounded_ratio(sides_p, sides_g)), axis=0))
    return l_loc, l_angle, l_shape, total_loss((0.0, 0.0, l_loc, l_angle, l_shape), weights)


def scored_scene(n_scored, seed=0):
    """A 96x96 stride-4 target/prediction pair with n_scored random cells labeled 0 or 1
    and every other cell ignore; some probabilities sit at exactly 0 and 1."""
    rng = np.random.default_rng(seed)
    shape = (96, 96)
    location = np.full(shape, LOC_IGNORE, dtype=np.uint8)
    labels = rng.choice([LOC_NEGATIVE, LOC_POSITIVE], n_scored)
    location.flat[rng.permutation(location.size)[:n_scored]] = labels
    lv = LevelSpec(stride=4, grid_w=shape[1], grid_h=shape[0])
    target = TargetMaps(
        level=lv,
        location=location,
        orientation=np.where(location != LOC_NEGATIVE, rng.random(shape), np.nan).astype(np.float32),
        shape_dw=rng.normal(0.0, 0.5, shape).astype(np.float32),
        shape_dh=rng.normal(0.0, 0.5, shape).astype(np.float32),
        shape_valid=(location == LOC_POSITIVE) & (rng.random(shape) < 0.5),
    )
    prob = rng.random(shape).astype(np.float32)
    prob.flat[rng.integers(0, prob.size, 50)] = rng.choice([0.0, 1.0], 50)
    pred = PredictionMaps(
        level=lv,
        location_prob=prob,
        orientation=rng.random(shape).astype(np.float32),
        shape_dw=rng.normal(0.0, 0.5, shape).astype(np.float32),
        shape_dh=rng.normal(0.0, 0.5, shape).astype(np.float32),
    )
    return pred, target


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


CLIPPED_PROBS = st.one_of(st.sampled_from([PROB_EPS, 1.0 - PROB_EPS]), st.floats(PROB_EPS, 1.0 - PROB_EPS))


class TestFocalBranches:
    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.tuples(arrays(np.float64, n, elements=CLIPPED_PROBS), arrays(bool, n))
        ),
        st.floats(0.01, 0.99),
        st.one_of(st.just(2.0), st.floats(0.0, 4.0)),
    )
    def test_each_branch_equals_two_branch_formula(self, case, a, g):
        # bit for bit, with bool or 0/1 labels
        p, label = case
        want = two_branch_focal(label.astype(np.float64), p, a, g)
        assert _focal(label, p, a, g).tobytes() == want.tobytes()
        assert _focal(label.astype(np.int64), p, a, g).tobytes() == want.tobytes()

    @pytest.mark.parametrize("y", [0, 1])
    def test_scalar_loss_equals_map_cell(self, y):
        # numpy's scalar power rounds this p's p**2 apart from its array power
        p = 0.5169081302257749
        want = _focal(np.array([y == 1]), np.array([p]), 0.25, 2.0)[0]
        assert np.float64(focal_loss(y, p).value).tobytes() == want.tobytes()


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

    def test_non_finite_weights_rejected(self):
        # NaN passes a plain `< 0` check and would make map_losses return NaN
        for name in ("loc", "angle", "shape", "focal_gamma"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative, got {value}$"):
                    LossWeights(**{name: value})


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

    @pytest.mark.parametrize("name", ["location_prob", "orientation", "shape_dw", "shape_dh"])
    def test_each_grid_shape_checked(self, name):
        target = self._scene()
        ideal = ideal_predictions(target)
        grids = {n: getattr(ideal, n) for n in ("location_prob", "orientation", "shape_dw", "shape_dh")}
        grids[name] = grids[name][:-1]
        with pytest.raises(ValueError, match=f"grid mismatch: predictions {name}"):
            map_losses(SimpleNamespace(**grids), target)

    def test_nan_probability_on_scored_cell_rejected(self):
        # the NaN sits in the second block of scored cells
        pred, target = scored_scene(_CHUNK + 1)
        last = np.flatnonzero(target.location != LOC_IGNORE)[-1]
        pred.location_prob.flat[last] = np.nan
        with pytest.raises(ValueError, match="location_prob"):
            map_losses(pred, target)

    def test_nan_orientation_on_covered_cell_rejected(self):
        target = self._scene()
        pred = ideal_predictions(target)
        j, i = np.argwhere(target.location != LOC_NEGATIVE)[0]
        pred.orientation[j, i] = np.nan
        with pytest.raises(ValueError, match="orientation"):
            map_losses(pred, target)

    def test_nan_on_unscored_cells_ignored(self):
        # NaN where the location loss skips (ignore) and where the angle loss skips (negative)
        target = self._scene()
        pred = ideal_predictions(target)
        pred.location_prob[target.location == LOC_IGNORE] = np.nan
        pred.orientation[target.location == LOC_NEGATIVE] = np.nan
        out = map_losses(pred, target)
        assert all(math.isfinite(v) for v in (out.loc, out.angle, out.shape, out.weighted))

    @pytest.mark.parametrize(
        "n_scored", [0, 1, _CHUNK, _CHUNK + 1, 96 * 96], ids=["all-ignore", "one", "chunk", "chunk+1", "all"]
    )
    @pytest.mark.parametrize(
        "weights", [LossWeights(), LossWeights(shape=0.3, focal_alpha=0.6, focal_gamma=1.5)]
    )
    def test_equals_whole_grid_pass(self, n_scored, weights):
        pred, target = scored_scene(n_scored, seed=n_scored)
        out = map_losses(pred, target, weights)
        assert (out.loc, out.angle, out.shape, out.weighted) == whole_grid_map_losses(pred, target, weights)

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


@st.composite
def block_scenes(draw):
    """Random target/prediction maps of 1 to 3.5 location blocks: all ignore, no ignore, or a
    drawn share of ignore cells, placed at random or in runs that cross block edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gh, gw = draw(st.sampled_from([(1, 1), (3, 5), (64, 128), (96, 96), (100, 287)]))
    share = draw(st.sampled_from([0.0, 1.0, 0.02, 0.5]))
    location = np.where(rng.random((gh, gw)) < 0.1, LOC_POSITIVE, LOC_NEGATIVE).astype(np.uint8)
    if draw(st.booleans()):
        location[rng.random((gh, gw)) < share] = LOC_IGNORE
    else:
        runs = location.ravel()
        for start in rng.integers(0, runs.size, 4):
            runs[start : start + int(share * runs.size / 4) + 1] = LOC_IGNORE
        if share == 1.0:
            runs[:] = LOC_IGNORE
    covered = location != LOC_NEGATIVE
    lv = LevelSpec(stride=draw(st.sampled_from([4, 32])), grid_w=gw, grid_h=gh)
    target = TargetMaps(
        level=lv,
        location=location,
        orientation=np.where(covered, rng.random((gh, gw)), np.nan).astype(np.float32),
        shape_dw=rng.normal(0.0, 0.5, (gh, gw)).astype(np.float32),
        shape_dh=rng.normal(0.0, 0.5, (gh, gw)).astype(np.float32),
        shape_valid=(location == LOC_POSITIVE) & (rng.random((gh, gw)) < 0.7),
    )
    prob = rng.random((gh, gw)).astype(np.float32)
    prob.flat[rng.integers(0, prob.size, 5)] = rng.choice([0.0, 1.0], 5)
    pred = SimpleNamespace(
        location_prob=prob,
        orientation=rng.random((gh, gw)).astype(np.float32),
        shape_dw=rng.normal(0.0, 0.5, (gh, gw)).astype(np.float32),
        shape_dh=rng.normal(0.0, 0.5, (gh, gw)).astype(np.float32),
    )
    weights = LossWeights(
        shape=draw(st.floats(0, 1)), focal_alpha=draw(st.floats(0.05, 0.95)), focal_gamma=draw(st.floats(0, 4))
    )
    return pred, target, weights


class TestMapLossesBlocks:
    @given(block_scenes())
    def test_equals_the_gathering_implementation(self, case):
        pred, target, w = case
        out = map_losses(pred, target, w)
        assert (out.loc, out.angle, out.shape, out.weighted) == gathered_map_losses(pred, target, w)

    def test_all_ignore_and_all_scored_maps(self):
        for n_scored in (0, 96 * 96):
            pred, target = scored_scene(n_scored, seed=3)
            out = map_losses(pred, target)
            assert (out.loc, out.angle, out.shape, out.weighted) == gathered_map_losses(pred, target, LossWeights())
        assert map_losses(*scored_scene(0, seed=3)).loc == 0.0

    @pytest.mark.parametrize("where", ["first", "block-edge", "last"])
    def test_nan_on_a_scored_cell_raises(self, where):
        pred, target = scored_scene(3 * _CHUNK, seed=5)
        scored = np.flatnonzero(target.location != LOC_IGNORE)
        # the first scored cell of the second block, or the first scored cell of the grid, or its last
        cell = {"first": scored[0], "block-edge": scored[scored >= _CHUNK][0], "last": scored[-1]}[where]
        pred.location_prob.flat[cell] = np.nan
        with pytest.raises(ValueError, match="^location_prob is NaN on a scored cell$"):
            map_losses(pred, target)

    def test_nan_on_ignore_cells_does_not_raise(self):
        pred, target = scored_scene(3 * _CHUNK, seed=5)
        want = gathered_map_losses(pred, target, LossWeights())
        pred.location_prob[target.location == LOC_IGNORE] = np.nan
        out = map_losses(pred, target)
        assert (out.loc, out.angle, out.shape, out.weighted) == want
