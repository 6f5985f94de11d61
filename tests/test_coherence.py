import re

import numpy as np
import pytest

from hiertax.coherence import (
    check_negative_constraint,
    check_positive_constraint,
    coherence_violation_rate,
    expand_labels,
    propagate,
    propagate_batch,
    propagate_batch_winners,
    propagate_field,
    propagate_grad,
    propagate_winners,
)
from hiertax.evaluation import decode_batch
from hiertax.fields import IGNORE, LabelField, ScoreField
from hiertax.gradcheck import central_difference, random_hierarchy, relative_error, tie_free_scores
from hiertax.losses import batch_loss
from hiertax.taxonomy import build_hierarchy


def test_expand_labels(tiny):
    lab = expand_labels(tiny, 3)
    assert lab.tolist() == [1, 1, 0, 1, 0]
    assert lab.sum() == len(tiny.ancestors(3))
    single = build_hierarchy(["r"], [-1])
    assert expand_labels(single, 0).tolist() == [1]
    with pytest.raises(ValueError, match="not a leaf"):
        expand_labels(tiny, 1)


def test_check_positive_constraint_example():
    h = build_hierarchy(["root", "A", "B", "a1"], [-1, 0, 0, 1])
    s = np.array([0.2, 0.3, 0.1, 0.9])
    viol = check_positive_constraint(h, s, threshold=0.5)
    assert set(viol) == {(3, 1), (3, 0)}
    assert check_positive_constraint(h, np.full(4, 0.7)) == []
    assert check_negative_constraint(h, np.full(4, 0.3)) == []


def test_check_negative_constraint_example():
    h = build_hierarchy(["root", "A", "B", "a1"], [-1, 0, 0, 1])
    s = np.array([0.9, 0.2, 0.6, 0.7])  # A negative but child a1 scores higher
    viol = check_negative_constraint(h, s, threshold=0.5)
    assert (1, 3) in viol


def test_check_length_mismatch(tiny):
    with pytest.raises(ValueError, match="length"):
        check_positive_constraint(tiny, np.zeros(3))


def test_propagate_worked_example(tiny):
    lab = expand_labels(tiny, 3)
    s = np.array([0.9, 0.5, 0.4, 0.7, 0.6])
    p = propagate(tiny, s, lab)
    assert np.allclose(p, [0.9, 0.5, 0.4, 0.5, 0.6])


def test_propagate_negative_subtree_max():
    # B has a child b1 scoring higher; p_B takes the subtree max
    h = build_hierarchy(["root", "A", "B", "a1", "a2", "b1"], [-1, 0, 0, 1, 1, 2])
    lab = expand_labels(h, 3)
    s = np.array([0.9, 0.5, 0.2, 0.7, 0.6, 0.8])
    p = propagate(h, s, lab)
    assert p[2] == 0.8


def test_propagate_identity_on_coherent(tiny):
    lab = expand_labels(tiny, 3)
    s = np.array([0.9, 0.8, 0.3, 0.7, 0.2])  # already coherent for leaf a1
    assert np.array_equal(propagate(tiny, s, lab), s)


def test_propagate_invalid_labels(tiny):
    with pytest.raises(ValueError, match="expansion"):
        propagate(tiny, np.full(5, 0.5), np.array([1, 0, 0, 1, 0]))
    with pytest.raises(ValueError, match="length"):
        propagate(tiny, np.full(4, 0.5), expand_labels(tiny, 3))
    with pytest.raises(ValueError, match="length"):
        propagate_grad(tiny, np.full(5, 0.5), expand_labels(tiny, 3), np.ones(1))


@pytest.mark.parametrize("seed", range(20))
def test_propagate_satisfies_restricted_constraints(seed):
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng, int(rng.integers(2, 60)))
    leaf = int(rng.choice(h.leaves))
    lab = expand_labels(h, leaf)
    s = rng.uniform(0, 1, len(h))
    p = propagate(h, s, lab)
    pos_viol = [(v, u) for v, u in check_positive_constraint(h, p, 0.0) if lab[v]]
    neg_viol = [(v, u) for v, u in check_negative_constraint(h, p, 1.0) if not lab[v]]
    assert pos_viol == []
    assert neg_viol == []
    # propagating again leaves the positive chain fixed
    p2 = propagate(h, p, lab)
    assert np.array_equal(p2[lab == 1], p[lab == 1])
    # output never leaves the envelope of s
    assert p.min() >= s.min() and p.max() <= s.max()


def test_propagate_grad_matches_finite_differences(tiny):
    rng = np.random.default_rng(7)
    lab = expand_labels(tiny, 3)
    s = tie_free_scores(rng, len(tiny))
    upstream = rng.normal(size=len(tiny))

    def f(s):
        return float(propagate(tiny, s, lab) @ upstream)

    analytic = propagate_grad(tiny, s, lab, upstream)
    numeric = central_difference(f, s, 1e-5)
    assert relative_error(analytic, numeric) < 1e-4


def test_propagate_grad_tie_goes_to_smallest_id(tiny):
    lab = expand_labels(tiny, 3)
    s = np.array([0.5, 0.5, 0.2, 0.5, 0.1])  # three-way tie on the positive chain
    winners = propagate_winners(tiny, s, lab)
    assert winners[3] == 0 and winners[1] == 0 and winners[0] == 0
    grad = propagate_grad(tiny, s, lab, np.ones(5))
    assert grad[0] == 3.0  # all positive-chain mass routed to the root


def test_propagate_grad_monotone_chain_routes_one_source(tiny):
    lab = expand_labels(tiny, 3)
    s = np.array([0.9, 0.6, 0.3, 0.4, 0.2])  # strictly decreasing chain, distinct subtrees
    winners = propagate_winners(tiny, s, lab)
    assert winners.tolist() == [0, 1, 2, 3, 4]  # every output sourced from itself
    upstream = np.arange(1.0, 6.0)
    grad = propagate_grad(tiny, s, lab, upstream)
    assert np.array_equal(grad, upstream)


def test_propagate_batch_matches_scalar(tiny):
    rng = np.random.default_rng(3)
    leaves = rng.choice(tiny.leaves, size=16)
    s = rng.uniform(0, 1, size=(16, len(tiny)))
    batch = propagate_batch(tiny, s, leaves.astype(np.int64))
    for i in range(16):
        expected = propagate(tiny, s[i], expand_labels(tiny, int(leaves[i])))
        assert np.array_equal(batch[i], expected)


def test_block_kernels_return_row_major_blocks(tiny):
    """``batch_loss`` sums each row of a C-contiguous block, as it always has."""
    rng = np.random.default_rng(4)
    s = rng.uniform(0, 1, size=(6, len(tiny)))
    leaf_ids = rng.choice(tiny.leaves, size=6)
    for out in (propagate_batch(tiny, s, leaf_ids), *propagate_batch_winners(tiny, s, leaf_ids)):
        assert out.flags.c_contiguous


def test_propagate_field_ignores_sentinel(tiny):
    rng = np.random.default_rng(5)
    scores = ScoreField(rng.uniform(0, 1, size=(2, 2, len(tiny))))
    leaf = np.array([[3, IGNORE], [4, 3]], dtype=np.uint32)
    out = propagate_field(tiny, scores, LabelField(leaf))
    assert np.array_equal(out.scores[0, 1], scores.scores[0, 1])  # untouched
    expected = propagate(tiny, scores.scores[1, 0], expand_labels(tiny, 4))
    assert np.array_equal(out.scores[1, 0], expected)


@pytest.mark.parametrize("bad_id", [1, 0, -1, 5, 7])
def test_batch_kernels_reject_non_leaf_ids(tiny, bad_id):
    """Internal ids, the root, negative ids (which would wrap) and ids past
    the last node are rejected by every batch path, naming the id."""
    s = np.array([[0.2, 0.6, 0.4, 0.9, 0.1], [0.5, 0.5, 0.5, 0.5, 0.5]])
    leaf_ids = np.array([3, bad_id])
    calls = [
        lambda: propagate_batch(tiny, s, leaf_ids),
        lambda: propagate_batch_winners(tiny, s, leaf_ids),
    ]
    for which in ("bce", "focal", "tm", "ftm"):
        calls.append(lambda which=which: batch_loss(tiny, s, leaf_ids, which))
    for call in calls:
        with pytest.raises(ValueError, match=f"label id {bad_id} is not a leaf"):
            call()


@pytest.mark.parametrize("leaf_ids", [[3], [3, 4, 2, 3, 4], [[3], [4], [2], [3]]])
def test_batch_kernels_reject_one_id_per_row_mismatch(tiny, leaf_ids):
    """(4, |V|) scores need 4 leaf ids: one id is not broadcast over every
    row, N + 1 ids are not cut to N block by block, and (N, 1) is not (N,)."""
    s = np.random.default_rng(6).uniform(0, 1, size=(4, len(tiny)))
    leaf_ids = np.array(leaf_ids)
    calls = [
        lambda: propagate_batch(tiny, s, leaf_ids),
        lambda: propagate_batch_winners(tiny, s, leaf_ids),
    ]
    for which in ("bce", "focal", "tm", "ftm"):
        calls.append(lambda which=which: batch_loss(tiny, s, leaf_ids, which))
    message = f"expected 4 leaf ids, one per score row, got shape {re.escape(str(leaf_ids.shape))}"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("extra", [-1, 1])
def test_batch_kernels_reject_scores_of_another_width(tiny, extra):
    """(N, |V| - 1) and (N, |V| + 1) scores are rejected by name, not by a
    numpy indexing or broadcast error."""
    s = np.random.default_rng(7).uniform(0, 1, size=(4, len(tiny) + extra))
    leaf_ids = np.array([3, 4, 2, 3])
    calls = [
        lambda: propagate_batch(tiny, s, leaf_ids),
        lambda: propagate_batch_winners(tiny, s, leaf_ids),
        lambda: decode_batch(tiny, s),
        lambda: coherence_violation_rate(tiny, s),
    ]
    for which in ("bce", "focal", "tm", "ftm"):
        calls.append(lambda which=which: batch_loss(tiny, s, leaf_ids, which))
    message = re.escape(f"expected scores of shape (N, 5), got {s.shape}")
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("labels", [
    [1, 1, 0, 0, 0],  # the chain of A, which is not a leaf
    [2, 2, 0, 2, 0],  # twice a1's expansion
    [1, 1, 0, -1, 0],
    [1, 1, 0.5, 1, 0],
    [1, 1, 0, 1, np.nan],
])
def test_scalar_path_rejects_labels_other_than_an_expansion(tiny, labels):
    s = np.array([0.9, 0.5, 0.4, 0.7, 0.6])
    labels = np.array(labels)
    for call in (
        lambda: propagate_winners(tiny, s, labels),
        lambda: propagate(tiny, s, labels),
        lambda: propagate_grad(tiny, s, labels, np.ones(5)),
    ):
        with pytest.raises(ValueError, match="expansion of a single leaf"):
            call()


def test_violation_rate_flags_each_rising_edge(tiny):
    """A row counts when a child at any depth scores strictly above its
    parent; ties and falling edges do not count."""
    s = np.array([
        [0.5, 0.5, 0.5, 0.5, 0.5],  # all tied
        [0.2, 0.3, 0.1, 0.1, 0.1],  # A above the root (depth 1)
        [0.9, 0.5, 0.5, 0.6, 0.1],  # a1 above A (depth 2)
        [0.9, 0.8, 0.7, 0.1, 0.2],  # falling on every edge
    ])
    assert [coherence_violation_rate(tiny, row[None]) for row in s] == [0.0, 1.0, 1.0, 0.0]
    assert coherence_violation_rate(tiny, s) == 0.5
    assert coherence_violation_rate(tiny, np.empty((0, len(tiny)))) == 0.0


@pytest.mark.parametrize("bad, match", [
    (np.array([[0.1, 0.2, 0.3, 0.4, 0.5], [0.1, 0.2, np.nan, 0.4, 0.5]]), "NaN"),
    (np.zeros((2, 4)), "shape"),
    (np.zeros((2, 6)), "shape"),
    (np.zeros(5), "shape"),
])
def test_violation_rate_rejects_nan_and_wrong_width(tiny, bad, match):
    with pytest.raises(ValueError, match=match):
        coherence_violation_rate(tiny, bad)
