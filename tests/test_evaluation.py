import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hiertax.coherence import check_negative_constraint, check_positive_constraint, expand_labels
from hiertax.evaluation import (
    LevelScore,
    decode_batch,
    decode_field,
    decode_path,
    evaluate_all_levels,
    evaluate_prediction_levels,
)
from hiertax.fields import IGNORE, LabelField, ScoreField
from hiertax.gradcheck import random_hierarchy
from hiertax.taxonomy import ClassHierarchy, build_hierarchy


def enumerate_best_leaf(h: ClassHierarchy, s: np.ndarray) -> int:
    """Exhaustive path-enumeration oracle with the same tie-break."""
    best_total, best_leaf = -np.inf, None
    for path in h.root_to_leaf_paths():
        total = 0.0
        for v in path:  # leaf-to-root accumulation, same association as the decoder
            total += s[v]
        if total > best_total or (total == best_total and path[0] < best_leaf):
            best_total, best_leaf = total, path[0]
    return best_leaf


def reference_merge_to_level(h: ClassHierarchy, labels: LabelField, level: int) -> LabelField:
    """Relabel each pixel to its ancestor at the given hierarchy level."""
    labels.check_hierarchy(h)
    mapping = h.level_targets[level - 1]
    flat = labels.leaf.reshape(-1)
    out = flat.copy()
    valid = flat != IGNORE
    out[valid] = mapping[flat[valid].astype(np.int64)].astype(np.uint32)
    return LabelField(leaf=out.reshape(labels.leaf.shape))


def reference_level_class_set(h: ClassHierarchy, level: int) -> list[int]:
    """Distinct merge targets reachable from the leaves at a level."""
    mapping = h.level_targets[level - 1]
    return sorted({int(mapping[leaf]) for leaf in h.leaves})


def reference_miou(pred: LabelField, gt: LabelField, class_set, level: int = 1) -> LevelScore:
    """Per-class IoU and the mean over classes present on either side.

    Pixels with an ignored ground truth are excluded entirely; classes
    with an empty union are dropped from the mean.
    """
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise ValueError("prediction and ground truth dimensions differ")
    pv = pred.leaf.reshape(-1)
    gv = gt.leaf.reshape(-1)
    valid = gv != IGNORE
    pv, gv = pv[valid], gv[valid]
    iou: dict[int, float] = {}
    for c in class_set:
        in_pred = pv == c
        in_gt = gv == c
        union = int(np.count_nonzero(in_pred | in_gt))
        if union == 0:
            continue
        inter = int(np.count_nonzero(in_pred & in_gt))
        iou[int(c)] = inter / union
    if not iou:
        raise ValueError("no class from the set occurs in prediction or ground truth")
    return LevelScore(level=level, iou=iou, miou=float(np.mean(list(iou.values()))))


def reference_levels(h: ClassHierarchy, pred: LabelField, gt: LabelField) -> list[LevelScore]:
    """Merge both fields to each level, then count IoU per class."""
    out = []
    for level in range(1, h.height + 2):
        merged_pred = reference_merge_to_level(h, pred, level)
        merged_gt = reference_merge_to_level(h, gt, level)
        out.append(reference_miou(
            merged_pred, merged_gt, reference_level_class_set(h, level), level=level
        ))
    return out


def _outcome(fn, *args):
    """Comparable result of an evaluation: its scores, or the error it raised."""
    try:
        return [(ls.level, [(type(c), c, v) for c, v in ls.iou.items()], repr(ls.miou))
                for ls in fn(*args)]
    except ValueError as e:
        return ("raised", str(e))


class TestDecode:
    def test_worked_example(self, tiny):
        s = np.array([0.9, 0.5, 0.8, 0.7, 0.2])
        assert decode_path(tiny, s) == 3  # sums: a1 2.1, a2 1.6, B 1.7

    def test_single_path_tree(self):
        h = build_hierarchy(["r", "a", "b"], [-1, 0, 1])
        for s in (np.zeros(3), np.ones(3), np.array([0.1, 0.9, 0.3])):
            assert decode_path(h, s) == 2

    def test_uniform_ties_to_smallest_leaf(self, three_level):
        assert decode_path(three_level, np.full(len(three_level), 0.5)) == min(three_level.leaves)

    def test_length_mismatch(self, tiny):
        with pytest.raises(ValueError, match="length"):
            decode_path(tiny, np.zeros(3))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hierarchy(rng, int(rng.integers(2, 101)))
        s = rng.uniform(0, 1, len(h))
        assert decode_path(h, s) == enumerate_best_leaf(h, s)
        # dyadic-grid scores keep sums exact while forcing genuine ties
        sq = rng.integers(0, 17, len(h)) / 16.0
        assert decode_path(h, sq) == enumerate_best_leaf(h, sq)

    def test_decoded_path_is_hierarchy_consistent(self, three_level):
        rng = np.random.default_rng(42)
        s = rng.uniform(0, 1, len(three_level))
        leaf = decode_path(three_level, s)
        lab = expand_labels(three_level, leaf).astype(float)
        for thr in (0.0, 0.5, 0.99):
            assert check_positive_constraint(three_level, lab, thr) == []
            assert check_negative_constraint(three_level, lab, thr) == []

    def test_field_matches_per_pixel(self, three_level):
        rng = np.random.default_rng(1)
        scores = ScoreField(rng.uniform(0, 1, size=(8, 8, len(three_level))))
        pred = decode_field(three_level, scores)
        for i in range(8):
            for j in range(8):
                assert pred.leaf[i, j] == enumerate_best_leaf(three_level, scores.scores[i, j])

    def test_one_by_one_field(self, tiny):
        s = np.array([0.9, 0.5, 0.8, 0.7, 0.2])
        pred = decode_field(tiny, ScoreField(s.reshape(1, 1, -1)))
        assert pred.leaf[0, 0] == decode_path(tiny, s)

    @pytest.mark.parametrize("row", [
        [np.nan, 0.1, 0.2, 0.3, 0.4],
        [0.5, np.nan, 0.9, 0.9, 0.9],
        [0.1, 0.9, 0.1, np.nan, 0.2],
    ])
    def test_nan_score_rejected(self, tiny, row):
        """Every depth of ``tiny`` has even sibling runs; the second tree's
        leaf depth has runs of 3 and 1, so ``reduceat`` reduces it."""
        uneven = build_hierarchy(["r", "A", "B", "a1", "a2", "a3", "b1"], [-1, 0, 0, 1, 1, 1, 2])
        assert [step[-1] for step in tiny.bottom_up] == [2, 2]
        assert [step[-1] for step in uneven.bottom_up] == [0, 2]
        for h, s in ((tiny, row), (uneven, row + [0.5, 0.6])):
            batch = np.tile(np.array(s), (3, 1))
            batch[0] = 0.5
            with pytest.raises(ValueError, match="scores must not be NaN"):
                decode_batch(h, batch)
        with pytest.raises(ValueError, match="scores must not be NaN"):
            decode_path(uneven, np.array([0.5, 0.2, 0.1, 0.3, 0.3, np.nan, 0.9]))

    def test_constant_shift_invariance_equal_depth(self, three_level):
        rng = np.random.default_rng(2)
        s = rng.uniform(0, 0.5, len(three_level))
        assert decode_path(three_level, s) == decode_path(three_level, s + 0.3)


def _walk_merge(h: ClassHierarchy, leaf: np.ndarray, level: int) -> np.ndarray:
    """Per pixel, the last node of its leaf's ancestor chain at or below the level."""
    out = leaf.copy()
    for idx, v in np.ndenumerate(leaf):
        out[idx] = [u for u in h.ancestor_chain(int(v)) if h.level[u] <= level][-1]
    return out


class TestMergeToLevel:
    def test_level_one_is_identity(self, three_level):
        labels = LabelField(np.array([[5, 7], [12, IGNORE]], dtype=np.uint32))
        first = evaluate_prediction_levels(three_level, labels, labels)[0]
        assert first.level == 1 and first.iou == {5: 1.0, 7: 1.0, 12: 1.0}

    def test_top_level_is_root(self, three_level):
        pred = LabelField(np.array([[5, 7]], dtype=np.uint32))
        gt = LabelField(np.array([[8, 12]], dtype=np.uint32))
        top = evaluate_prediction_levels(three_level, pred, gt)[-1]
        assert top.level == three_level.height + 1
        assert top.iou == {three_level.root: 1.0} and top.miou == 1.0

    def test_ancestor_walk_oracle(self, three_level):
        rng = np.random.default_rng(3)
        pred = LabelField(rng.choice(three_level.leaves, size=(6, 6)).astype(np.uint32))
        gt = LabelField(rng.choice(three_level.leaves, size=(6, 6)).astype(np.uint32))
        for ls in evaluate_prediction_levels(three_level, pred, gt):
            mp = _walk_merge(three_level, pred.leaf, ls.level)
            mg = _walk_merge(three_level, gt.leaf, ls.level)
            assert np.array_equal(mp, reference_merge_to_level(three_level, pred, ls.level).leaf)
            want = {}
            for c in sorted(set(mp.ravel().tolist()) | set(mg.ravel().tolist())):
                union = int(((mp == c) | (mg == c)).sum())
                want[c] = int(((mp == c) & (mg == c)).sum()) / union
            assert ls.iou == want


class TestMiou:
    def test_perfect_prediction(self, three_level):
        labels = LabelField(np.random.default_rng(4).choice(
            three_level.leaves, size=(8, 8)).astype(np.uint32))
        assert all(ls.miou == 1.0 for ls in evaluate_prediction_levels(three_level, labels, labels))

    def test_disjoint_single_classes(self, three_level):
        a = LabelField(np.full((4, 4), three_level.leaves[0], dtype=np.uint32))
        b = LabelField(np.full((4, 4), three_level.leaves[1], dtype=np.uint32))
        assert evaluate_prediction_levels(three_level, a, b)[0].miou == 0.0

    def test_counting_oracle_two_class(self, tiny):
        rng = np.random.default_rng(5)
        pred = LabelField(rng.choice([3, 4], size=(16, 16)).astype(np.uint32))
        gt = LabelField(rng.choice([3, 4], size=(16, 16)).astype(np.uint32))
        score = evaluate_prediction_levels(tiny, pred, gt)[0]
        assert list(score.iou) == [3, 4]
        for c in (3, 4):
            inter = int(((pred.leaf == c) & (gt.leaf == c)).sum())
            union = int(((pred.leaf == c) | (gt.leaf == c)).sum())
            assert score.iou[c] == inter / union
        assert score.miou == np.mean([score.iou[3], score.iou[4]])

    def test_dim_mismatch(self, tiny):
        with pytest.raises(ValueError, match="dimensions"):
            evaluate_prediction_levels(
                tiny,
                LabelField(np.full((2, 2), 3, dtype=np.uint32)),
                LabelField(np.full((3, 2), 3, dtype=np.uint32)),
            )

    def test_empty_class_set(self, tiny):
        pred = LabelField(np.full((2, 2), 3, dtype=np.uint32))
        gt = LabelField(np.full((2, 2), IGNORE, dtype=np.uint32))
        with pytest.raises(ValueError, match="no class"):
            evaluate_prediction_levels(tiny, pred, gt)

    def test_ignored_pixels_excluded(self, tiny):
        pred = LabelField(np.array([[3, 4]], dtype=np.uint32))
        gt = LabelField(np.array([[3, IGNORE]], dtype=np.uint32))
        score = evaluate_prediction_levels(tiny, pred, gt)[0]
        assert score.iou == {3: 1.0}  # leaf 4 never appears on a counted pixel

    def test_ignored_prediction_counts_only_in_gt_union(self, tiny):
        pred = LabelField(np.array([[3, IGNORE]], dtype=np.uint32))
        gt = LabelField(np.array([[3, 3]], dtype=np.uint32))
        levels = evaluate_prediction_levels(tiny, pred, gt)
        assert [ls.iou for ls in levels] == [{3: 0.5}, {1: 0.5}, {0: 0.5}]

    def test_non_leaf_prediction_rejected(self, tiny):
        bad = 1
        pred = LabelField(np.array([[3, bad]], dtype=np.uint32))
        gt = LabelField(np.array([[3, 4]], dtype=np.uint32))
        with pytest.raises(ValueError, match=f"label id {bad} is not a leaf"):
            evaluate_prediction_levels(tiny, pred, gt)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(1, 39),
        gt_ignored=st.sampled_from([0.0, 0.3, 1.0]),
        pred_ignored=st.sampled_from([0.0, 0.3]),
    )
    def test_matches_merge_and_count_reference(self, seed, n_nodes, gt_ignored, pred_ignored):
        rng = np.random.default_rng(seed)
        h = random_hierarchy(rng, n_nodes)
        shape = tuple(rng.integers(1, 9, size=2))
        fields = []
        for share in (pred_ignored, gt_ignored):
            leaf = rng.choice(np.array(h.leaves, dtype=np.uint32), size=shape)
            leaf[rng.random(shape) < share] = IGNORE
            fields.append(LabelField(leaf))
        got = _outcome(evaluate_prediction_levels, h, *fields)
        assert got == _outcome(reference_levels, h, *fields)


class TestEvaluateAllLevels:
    def test_perfect_scores_all_levels_one(self, three_level):
        rng = np.random.default_rng(6)
        gt = LabelField(rng.choice(three_level.leaves, size=(8, 8)).astype(np.uint32))
        scores = np.zeros((8, 8, len(three_level)))
        for i in range(8):
            for j in range(8):
                scores[i, j, list(three_level.ancestors(int(gt.leaf[i, j])))] = 1.0
        result = evaluate_all_levels(three_level, ScoreField(scores), gt)
        assert [ls.level for ls in result] == [1, 2, 3]
        assert all(ls.miou == 1.0 for ls in result)

    def test_merge_commutes_with_iou_counting(self, three_level):
        rng = np.random.default_rng(7)
        pred = LabelField(rng.choice(three_level.leaves, size=(10, 10)).astype(np.uint32))
        gt = LabelField(rng.choice(three_level.leaves, size=(10, 10)).astype(np.uint32))
        direct = evaluate_prediction_levels(three_level, pred, gt)[1]
        assert direct.level == 2
        # counting on pre-merged ids gives identical integer counts
        for c in direct.iou:
            members = [v for v in three_level.leaves
                       if c in three_level.ancestors(v) or v == c]
            inter = int((np.isin(pred.leaf, members) & np.isin(gt.leaf, members)).sum())
            union = int((np.isin(pred.leaf, members) | np.isin(gt.leaf, members)).sum())
            assert direct.iou[c] == inter / union

    def test_confusion_within_superclass_improves_with_level(self, three_level):
        # leaves 5 and 6 share g1: confusing them hurts level 1 but not level 2
        gt = LabelField(np.full((4, 4), 5, dtype=np.uint32))
        pred = LabelField(np.full((4, 4), 6, dtype=np.uint32))
        pred_levels = [ls.miou for ls in evaluate_prediction_levels(three_level, pred, gt)]
        assert pred_levels[0] == 0.0
        assert pred_levels[1] == 1.0 and pred_levels[2] == 1.0
