import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiertax.coherence import expand_labels, propagate, row_blocks
from hiertax.fields import IGNORE, LabelField, ScoreField
from hiertax.gradcheck import (
    central_difference,
    gradcheck_loss,
    random_hierarchy,
    relative_error,
    tie_free_scores,
)
from hiertax.losses import (
    EPSILON,
    FocalConfig,
    _bce_terms,
    _clip,
    _focal_terms,
    bce_loss,
    cce_loss,
    cce_rows,
    field_loss,
    focal_loss,
    focal_tree_min_loss,
    tree_min_loss,
)

from conftest import assert_same_bits


class TestCCE:
    def test_one_hot_is_zero(self, tiny):
        logits = np.zeros((2, len(tiny)))
        logits[0, 3] = logits[1, 4] = 50.0
        value, grad = cce_loss(tiny, logits, [3, 4])
        assert value == pytest.approx(0.0, abs=1e-10)
        assert np.abs(grad).max() < 1e-10

    def test_uniform_is_log_k(self, tiny):
        k = len(tiny.leaves)
        value, grad = cce_loss(tiny, np.full((3, len(tiny)), 0.7), [3, 4, 2])
        assert value == pytest.approx(math.log(k))
        # softmax minus the one-hot target, over the mean's 3 rows
        assert grad[0, 3] == pytest.approx((1.0 / k - 1.0) / 3)
        assert grad[0, 2] == pytest.approx(1.0 / k / 3)

    def test_internal_logits_ignored(self, tiny):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, len(tiny)))
        value, grad = cce_loss(tiny, logits, [3, 2, 4, 3])
        internal = [v for v in range(len(tiny)) if v not in tiny.leaves]
        logits[:, internal] += 100.0
        assert cce_loss(tiny, logits, [3, 2, 4, 3])[0] == value
        assert not grad[:, internal].any()
        assert grad.sum(axis=1) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_non_leaf(self, tiny):
        for bad in (0, 1, 5, IGNORE, -1):
            with pytest.raises(ValueError, match=f"label id {bad} is not a leaf"):
                cce_loss(tiny, np.zeros((2, len(tiny))), np.array([3, bad], dtype=np.int64))

    def test_rejects_shape_mismatch(self, tiny):
        with pytest.raises(ValueError, match="logits"):
            cce_loss(tiny, np.zeros((3, len(tiny))), [3, 4])
        with pytest.raises(ValueError, match="logits"):
            cce_loss(tiny, np.zeros((2, len(tiny.leaves))), [3, 4])

    def test_gradcheck(self):
        assert gradcheck_loss("cce", trials=25, seed=11) < 1e-4


def reference_cce_loss(
    h, logits: np.ndarray, leaf_ids: np.ndarray, out: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """``cce_loss`` as it was before its body became the ``cce_rows`` block
    kernel, kept verbatim as that kernel's oracle."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = h.leaf_positions(leaf_ids)
    if logits.ndim != 2 or logits.shape[1] != len(h) or targets.shape != logits.shape[:1]:
        raise ValueError(
            f"expected (N, {len(h)}) logits and N leaf ids, got {logits.shape} and {targets.shape}"
        )
    leaves = np.array(h.leaves, dtype=np.int64)
    # One (N, leaves) array, updated in place: the same bits as a new array
    # for each step of the softmax.
    y = logits[:, leaves]
    y -= y.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    value = float(-np.log(np.clip(y[np.arange(n), targets], EPSILON, None)).mean())
    y[np.arange(n), targets] -= 1.0
    y /= n
    if out is None:
        out = np.zeros_like(logits)
    else:
        out.fill(0.0)
    out[:, leaves] = y
    return value, out


@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 60),
    n=st.integers(1, 2500),
    steps=st.integers(1, 6),
)
def test_cce_kernel_over_row_blocks_matches_the_reference(seed, n_nodes, n, steps):
    """``cce_loss``, and ``cce_rows`` block by block with the run's n (as
    ``train`` would run a larger batch), give the reference's value and
    gradient bit for bit. Logits on a grid of 2 * steps + 1 values tie
    within rows; a tree of one leaf gives every row the value 0."""
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng, n_nodes)
    logits = rng.integers(-steps, steps + 1, size=(n, len(h))) * 1.75
    leaf_ids = rng.choice(np.array(h.leaves), size=n)
    want_value, want_grad = reference_cce_loss(h, logits, leaf_ids)

    value, grad = cce_loss(h, logits, leaf_ids)
    assert_same_bits(np.float64(value), np.float64(want_value))
    assert_same_bits(grad, want_grad)

    targets = h.leaf_positions(leaf_ids)
    values, grad = np.empty(n), np.full(logits.shape, np.nan)
    for rows in row_blocks(h, n):
        values[rows] = cce_rows(h, logits[rows], targets[rows], n, grad[rows])
    # train's mean gives +0.0 where the reference gives -0.0, when every
    # row's value is 0; its loss curve adds a term of at least +0.0 to it.
    assert_same_bits(np.float64(values.mean() + 0.0), np.float64(want_value + 0.0))
    assert_same_bits(grad, want_grad)


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
        """The modulating factor is differentiated: the gradient matches
        finite differences."""
        rng = np.random.default_rng(4)
        lab = expand_labels(tiny, 3)
        s = tie_free_scores(rng, len(tiny))
        through = focal_tree_min_loss(tiny, s, lab, FocalConfig(gamma=2.0)).grad
        numeric = central_difference(
            lambda s: focal_tree_min_loss(tiny, s, lab, FocalConfig(gamma=2.0)).value, s
        )
        assert relative_error(through, numeric) < 1e-4


@pytest.mark.parametrize("labels", [
    [2, 2, 0, 2, 0],  # twice a1's expansion
    [1, 1, 0, -1, 0],
    [1, 1, 0.5, 1, 0],
    [1, 1, 0, 1, np.nan],
])
def test_losses_reject_labels_other_than_0_and_1(tiny, labels):
    s = np.array([0.9, 0.5, 0.4, 0.7, 0.6])
    labels = np.array(labels)
    for loss in (bce_loss, focal_loss):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            loss(s, labels)
    for loss in (tree_min_loss, focal_tree_min_loss):
        with pytest.raises(ValueError, match="expansion of a single leaf"):
            loss(tiny, s, labels)


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


def reference_bce_terms(p: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two-branch BCE terms: both branches for every cell, masked by the labels."""
    pc = _clip(p)
    pos = labels.astype(np.float64)
    values = -pos * np.log(pc) - (1.0 - pos) * np.log(1.0 - pc)
    dvdp = -pos / pc + (1.0 - pos) / (1.0 - pc)
    return values, dvdp


def reference_focal_terms(
    p: np.ndarray, labels: np.ndarray, cfg: FocalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The two-branch focal terms.

    Positive term: -(1-p)^g log p; negative term: -p^g log(1-p).
    """
    g = cfg.gamma
    pc = _clip(p)
    pos = labels.astype(np.float64)
    logp = np.log(pc)
    log1p = np.log(1.0 - pc)
    values = -pos * (1.0 - pc) ** g * logp - (1.0 - pos) * pc**g * log1p
    d_pos = -((1.0 - pc) ** g) / pc
    d_neg = pc**g / (1.0 - pc)
    if g > 0:
        d_pos = d_pos + g * (1.0 - pc) ** (g - 1.0) * logp
        d_neg = d_neg - g * pc ** (g - 1.0) * log1p
    dvdp = pos * d_pos + (1.0 - pos) * d_neg
    return values, dvdp


# Scores at and around the clip bounds, and exact 0, 1/2 and 1.
SATURATED = np.array([0.0, EPSILON / 2, EPSILON, 2 * EPSILON, 0.5,
                      1 - 2 * EPSILON, 1 - EPSILON, 1 - EPSILON / 2, 1.0])


def _term_blocks(n_blocks: int = 300):
    """Score blocks, uniform, exact 0/1, quantised or saturated, each with
    random 0/1 labels as bool or int8."""
    rng = np.random.default_rng(0)
    for b in range(n_blocks):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 16)))
        kind = b % 4
        if kind == 0:
            p = rng.random(shape)
        elif kind == 1:
            p = rng.integers(0, 2, shape).astype(np.float64)
        elif kind == 2:
            p = rng.integers(0, 9, shape) / 8
        else:
            p = rng.choice(SATURATED, shape)
        labels = rng.integers(0, 2, shape).astype(bool if b % 2 else np.int8)
        yield p, labels


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 3.7])
def test_one_branch_terms_match_two_branch_reference(gamma):
    """The kernels evaluate one branch per cell; values and gradients keep
    every bit of the two-branch form, signs of zeros included."""
    cfg = FocalConfig(gamma)
    for p, labels in _term_blocks():
        for have, want in zip(_focal_terms(p, labels, cfg), reference_focal_terms(p, labels, cfg)):
            assert_same_bits(have, want)
        if gamma == 0.0:
            for have, want in zip(_bce_terms(p, labels), reference_bce_terms(p, labels)):
                assert_same_bits(have, want)
