"""Hierarchy-coherent decoding and per-level segmentation metrics.

Decoding assigns each pixel the root-to-leaf path with the highest score
sum, computed in a single bottom-up pass over the hierarchy's per-depth
sibling tables, a block of ``coherence.BLOCK_ELEMS // |V|`` rows at a time;
ties resolve to the smallest leaf id. Evaluation merges predictions into
each hierarchy level and reports per-class IoU plus the level mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import row_blocks
from .fields import IGNORE, LabelField, ScoreField
from .taxonomy import ClassHierarchy


@dataclass
class LevelScore:
    level: int
    iou: dict[int, float]  # class id -> IoU, classes with empty union omitted
    miou: float


def decode_batch(h: ClassHierarchy, s: np.ndarray) -> np.ndarray:
    """Vectorized best-path decode for N score vectors; returns leaf ids.

    Per node the best suffix sum and its leaf are kept, reduced
    lexicographically: highest sum first, then smallest leaf id.
    Accumulation runs leaf-to-root so float results match per-path
    sequential summation exactly.
    """
    s = np.asarray(s, dtype=np.float64)
    out = np.empty(s.shape[0], dtype=np.int64)
    for rows in row_blocks(h, s.shape[0]):
        best = s[rows].T.copy()
        leaf = np.broadcast_to(np.arange(len(h))[:, None], best.shape).copy()
        for kids, starts, parents, group in h.bottom_up:
            sub = best[kids]
            top = np.maximum.reduceat(sub, starts, axis=0)
            tied = np.where(sub == top[group], leaf[kids], len(h))
            leaf[parents] = np.minimum.reduceat(tied, starts, axis=0)
            best[parents] += top
        out[rows] = leaf[h.root]
    return out


def decode_path(h: ClassHierarchy, s: np.ndarray) -> int:
    """Leaf id of the top-scoring root-to-leaf path for one score vector."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (len(h),):
        raise ValueError(f"expected score vector of length {len(h)}, got {s.shape}")
    return int(decode_batch(h, s[None, :])[0])


def decode_field(h: ClassHierarchy, scores: ScoreField) -> LabelField:
    """Per-pixel best-path decode over a whole score field."""
    scores.check_hierarchy(h)
    flat = scores.scores.reshape(-1, len(h))
    leaves = decode_batch(h, flat).astype(np.uint32)
    return LabelField(leaf=leaves.reshape(scores.height, scores.width))


def level_ancestor_map(h: ClassHierarchy, level: int) -> np.ndarray:
    """For each node, its merge target at the given level (read-only).

    The target is the node's highest ancestor whose level does not exceed
    the requested one; in balanced trees this is the exact level-``level``
    ancestor, and nodes on short branches keep their own identity.
    """
    if not 1 <= level <= h.height + 1:
        raise ValueError(f"level {level} out of range [1, {h.height + 1}]")
    return h.level_targets[level - 1]


def merge_to_level(h: ClassHierarchy, labels: LabelField, level: int) -> LabelField:
    """Relabel each pixel to its ancestor at the given hierarchy level."""
    labels.check_hierarchy(h)
    mapping = level_ancestor_map(h, level)
    flat = labels.leaf.reshape(-1)
    out = flat.copy()
    valid = flat != IGNORE
    out[valid] = mapping[flat[valid].astype(np.int64)].astype(np.uint32)
    return LabelField(leaf=out.reshape(labels.leaf.shape))


def level_class_set(h: ClassHierarchy, level: int) -> list[int]:
    """Distinct merge targets reachable from the leaves at a level."""
    mapping = level_ancestor_map(h, level)
    return sorted({int(mapping[leaf]) for leaf in h.leaves})


def miou(pred: LabelField, gt: LabelField, class_set, level: int = 1) -> LevelScore:
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


def evaluate_all_levels(
    h: ClassHierarchy, scores: ScoreField, gt: LabelField
) -> list[LevelScore]:
    """Decode, then merge and score every hierarchy level from leaves to root."""
    pred = decode_field(h, scores)
    return evaluate_prediction_levels(h, pred, gt)


def evaluate_prediction_levels(
    h: ClassHierarchy, pred: LabelField, gt: LabelField
) -> list[LevelScore]:
    out = []
    for level in range(1, h.height + 2):
        merged_pred = merge_to_level(h, pred, level)
        merged_gt = merge_to_level(h, gt, level)
        out.append(miou(merged_pred, merged_gt, level_class_set(h, level), level=level))
    return out
