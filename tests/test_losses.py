import math

import numpy as np
import pytest

from hiertax.coherence import expand_labels, propagate
from hiertax.fields import IGNORE, LabelField, ScoreField
from hiertax.gradcheck import (
    central_difference,
    gradcheck_loss,
    random_hierarchy,
    relative_error,
    tie_free_scores,
)
from hiertax.losses import (
    FocalConfig,
    bce_loss,
    cce_loss,
    field_loss,
    focal_loss,
    focal_tree_min_loss,
    tree_min_loss,
)


class TestCCE:
    def test_one_hot_is_zero(self, tiny):
        y = np.zeros(len(tiny.leaves))
        y[0] = 1.0
        assert cce_loss(tiny, y, tiny.leaves[0]).value == pytest.approx(0.0, abs=1e-10)

    def test_uniform_is_log_k(self, tiny):
        k = len(tiny.leaves)
        y = np.full(k, 1.0 / k)
        assert cce_loss(tiny, y, tiny.leaves[1]).value == pytest.approx(math.log(k))

    def test_rejects_non_leaf_and_bad_normalization(self, tiny):
        y = np.full(len(tiny.leaves), 1.0 / len(tiny.leaves))
        with pytest.raises(ValueError, match="not a leaf"):
            cce_loss(tiny, y, tiny.root)
        with pytest.raises(ValueError, match="sum to 1"):
            cce_loss(tiny, y * 2, tiny.leaves[0])

    def test_gradcheck(self):
        assert gradcheck_loss("cce", trials=25, seed=11) < 1e-4


class TestBCE:
    def test_perfect_is_zero(self, tiny):
        lab = expand_labels(tiny, 3)
        assert bce_loss(lab.astype(float), lab).value == pytest.approx(0.0, abs=1e-9)

    def test_half_scores(self, tiny):
        lab = expand_labels(tiny, 3)
        got = bce_loss(np.full(len(tiny), 0.5), lab).value
        assert got == pytest.approx(len(tiny) * math.log(2))

    def test_gradcheck(self):
        assert gradcheck_loss("bce", trials=25, seed=12) < 1e-4

    def test_finite_at_extremes(self, tiny):
        lab = expand_labels(tiny, 3)
        rep = bce_loss(1.0 - lab.astype(float), lab)  # maximally wrong 0/1 scores
        assert np.isfinite(rep.value) and np.all(np.isfinite(rep.grad))


class TestFocal:
    def test_gamma_zero_equals_bce(self, tiny):
        rng = np.random.default_rng(0)
        lab = expand_labels(tiny, 4)
        s = rng.uniform(0.05, 0.95, len(tiny))
        a = focal_loss(s, lab, FocalConfig(gamma=0.0)).value
        b = bce_loss(s, lab).value
        assert abs(a - b) < 1e-12

    def test_perfect_is_zero(self, tiny):
        lab = expand_labels(tiny, 3)
        assert focal_loss(lab.astype(float), lab).value == pytest.approx(0.0, abs=1e-9)

    def test_gradcheck(self):
        assert gradcheck_loss("focal", trials=25, seed=13) < 1e-4

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            FocalConfig(gamma=-1.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            FocalConfig(gamma=gamma)


class TestTreeMin:
    def test_coherent_perfect_is_zero(self, tiny):
        lab = expand_labels(tiny, 3)
        assert tree_min_loss(tiny, lab.astype(float), lab).value == pytest.approx(0.0, abs=1e-9)

    def test_equals_bce_of_propagated(self, tiny):
        lab = expand_labels(tiny, 3)
        s = np.array([0.9, 0.5, 0.4, 0.7, 0.6])
        p = propagate(tiny, s, lab)
        assert tree_min_loss(tiny, s, lab).value == pytest.approx(bce_loss(p, lab).value)

    def test_gradcheck(self):
        assert gradcheck_loss("tm", trials=25, seed=14) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_penalty(self, tiny, seed):
        rng = np.random.default_rng(seed)
        lab = expand_labels(tiny, 3)
        s = tie_free_scores(rng, len(tiny))
        base = tree_min_loss(tiny, s, lab).value
        for v in np.flatnonzero(lab):  # lowering a positive-chain score never helps
            bumped = s.copy()
            bumped[v] = max(bumped[v] - 0.1, 0.0)
            assert tree_min_loss(tiny, bumped, lab).value >= base - 1e-12
        for v in np.flatnonzero(lab == 0):  # raising a negative score never helps
            bumped = s.copy()
            bumped[v] = min(bumped[v] + 0.1, 1.0)
            assert tree_min_loss(tiny, bumped, lab).value >= base - 1e-12


class TestFocalTreeMin:
    @pytest.mark.parametrize("seed", range(10))
    def test_gamma_zero_equals_tree_min(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hierarchy(rng, int(rng.integers(2, 30)))
        lab = expand_labels(h, int(rng.choice(h.leaves)))
        s = rng.uniform(0, 1, len(h))
        a = focal_tree_min_loss(h, s, lab, FocalConfig(gamma=0.0)).value
        b = tree_min_loss(h, s, lab).value
        assert abs(a - b) < 1e-12

    def test_perfect_is_zero(self, tiny):
        lab = expand_labels(tiny, 3)
        assert focal_tree_min_loss(tiny, lab.astype(float), lab).value == pytest.approx(
            0.0, abs=1e-9
        )

    def test_gradcheck(self):
        assert gradcheck_loss("ftm", trials=25, seed=15) < 1e-4

    def test_term_scaling_factor_in_unit_interval(self, tiny):
        # each focal term equals the tree-min term scaled by a factor in [0,1]
        rng = np.random.default_rng(2)
        lab = expand_labels(tiny, 3)
        s = rng.uniform(0.05, 0.95, len(tiny))
        p = propagate(tiny, s, lab)
        gamma = 2.0
        for v in range(len(tiny)):
            tm_term = -lab[v] * math.log(p[v]) - (1 - lab[v]) * math.log(1 - p[v])
            factor = (1 - p[v]) ** gamma if lab[v] else p[v] ** gamma
            ftm_term = factor * tm_term
            assert 0.0 <= factor <= 1.0
            assert ftm_term <= tm_term + 1e-12

    def test_modulator_gradient_flag(self, tiny):
        rng = np.random.default_rng(4)
        lab = expand_labels(tiny, 3)
        s = tie_free_scores(rng, len(tiny))
        through = focal_tree_min_loss(tiny, s, lab, FocalConfig(gamma=2.0)).grad
        held = focal_tree_min_loss(
            tiny, s, lab, FocalConfig(gamma=2.0, grad_through_modulator=False)
        ).grad
        assert not np.allclose(through, held)
        # only the through-variant matches finite differences
        numeric = central_difference(
            lambda s: focal_tree_min_loss(tiny, s, lab, FocalConfig(gamma=2.0)).value, s
        )
        assert relative_error(through, numeric) < 1e-4


class TestFieldLoss:
    def test_all_ignored_is_zero(self, tiny):
        scores = ScoreField(np.full((2, 2, len(tiny)), 0.5))
        gt = LabelField(np.full((2, 2), IGNORE, dtype=np.uint32))
        value, grad = field_loss(tiny, scores, gt, "ftm")
        assert value == 0.0
        assert not grad.any()

    @pytest.mark.parametrize("which", ["bce", "focal", "tm", "ftm"])
    def test_single_pixel_equals_pointwise(self, tiny, which):
        rng = np.random.default_rng(8)
        s = rng.uniform(0, 1, len(tiny))
        lab = expand_labels(tiny, 4)
        scores = ScoreField(s.reshape(1, 1, -1))
        gt = LabelField(np.array([[4]], dtype=np.uint32))
        value, grad = field_loss(tiny, scores, gt, which)
        point = {
            "bce": lambda: bce_loss(s, lab),
            "focal": lambda: focal_loss(s, lab),
            "tm": lambda: tree_min_loss(tiny, s, lab),
            "ftm": lambda: focal_tree_min_loss(tiny, s, lab),
        }[which]()
        assert value == pytest.approx(point.value)
        assert np.allclose(grad.reshape(-1), point.grad)

    def test_mean_reduction_and_determinism(self, tiny):
        rng = np.random.default_rng(9)
        scores = ScoreField(rng.uniform(0, 1, size=(4, 5, len(tiny))))
        gt = LabelField(rng.choice(tiny.leaves, size=(4, 5)).astype(np.uint32))
        v1, g1 = field_loss(tiny, scores, gt, "ftm")
        v2, g2 = field_loss(tiny, scores, gt, "ftm")
        assert v1 == v2 and np.array_equal(g1, g2)
        # mean over pixels of the per-pixel values
        total = 0.0
        for i in range(4):
            for j in range(5):
                lab = expand_labels(tiny, int(gt.leaf[i, j]))
                total += focal_tree_min_loss(tiny, scores.scores[i, j], lab).value
        assert v1 == pytest.approx(total / 20)

    def test_unknown_kind(self, tiny):
        scores = ScoreField(np.full((1, 1, len(tiny)), 0.5))
        gt = LabelField(np.array([[3]], dtype=np.uint32))
        with pytest.raises(ValueError, match="unknown field loss"):
            field_loss(tiny, scores, gt, "nope")
