"""Hierarchy-coherent decoding and per-level segmentation metrics.

Decoding assigns each pixel the root-to-leaf path with the highest score
sum, computed in a single bottom-up pass over the hierarchy's per-depth
sibling tables, a block of ``coherence.BLOCK_ELEMS // |V|`` rows at a time;
ties resolve to the smallest leaf id. Evaluation counts one leaf confusion
matrix and sums it into each hierarchy level for per-class IoU plus the
level mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import row_blocks, sibling_max
from .fields import LabelField, ScoreField
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
    Accumulation runs leaf-to-root in float64, one row block widened at a
    time, so float results match per-path sequential summation exactly
    whatever the input's float dtype.
    """
    s = np.asarray(s)
    out = np.empty(s.shape[0], dtype=np.int64)
    for rows in row_blocks(h, s.shape[0]):
        best = np.array(s[rows].T, dtype=np.float64, order="C")
        leaf = np.broadcast_to(np.arange(len(h))[:, None], best.shape).copy()
        for kids, starts, parents, group in h.bottom_up:
            top, leaf[parents] = sibling_max(best, leaf, kids, starts, group)
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


def evaluate_all_levels(
    h: ClassHierarchy, scores: ScoreField, gt: LabelField
) -> list[LevelScore]:
    """Decode, then score every hierarchy level from leaves to root."""
    pred = decode_field(h, scores)
    return evaluate_prediction_levels(h, pred, gt)


def evaluate_prediction_levels(
    h: ClassHierarchy, pred: LabelField, gt: LabelField
) -> list[LevelScore]:
    """Per-class IoU and mIoU at every level, leaves to root, in one pass.

    One leaf confusion matrix is counted over the pixels with a valid
    ground truth; an ignored prediction falls in an extra column, so it
    matches no class but still counts in its ground-truth class's union.
    Level ``L``'s counts are that matrix summed through
    ``h.level_targets[L - 1]``. Classes with an empty union are dropped.
    """
    pred.check_hierarchy(h)
    gt.check_hierarchy(h)
    if (pred.height, pred.width) != (gt.height, gt.width):
        raise ValueError("prediction and ground truth dimensions differ")
    n = len(h)
    # Valid ids are below n, so the minimum only moves IGNORE to row or
    # column n; row n, the pixels with an ignored ground truth, is dropped.
    codes = np.minimum(gt.leaf.reshape(-1), n).astype(np.int64)
    codes *= n + 1
    codes += np.minimum(pred.leaf.reshape(-1), n)
    conf = np.bincount(codes, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)[:n]
    out = []
    for level in range(1, h.height + 2):
        targets = h.level_targets[level - 1]
        counts = np.zeros((n, n + 1), dtype=np.int64)
        np.add.at(counts, (targets[:, None], np.append(targets, n)), conf)
        inter = counts.diagonal()
        union = counts.sum(axis=1) + counts[:, :n].sum(axis=0) - inter
        # Only leaf targets hold counts, so these are the level's classes
        # with a non-empty union, in id order.
        iou = {c: int(inter[c]) / int(union[c]) for c in np.flatnonzero(union).tolist()}
        if not iou:
            raise ValueError("no class from the set occurs in prediction or ground truth")
        out.append(LevelScore(level=level, iou=iou, miou=float(np.mean(list(iou.values())))))
    return out
