"""Classification losses over the hierarchy with analytic gradients.

All losses report both the scalar value and the gradient with respect to
their score input. Scores are clipped to [epsilon, 1 - epsilon] before any
logarithm so values stay finite at exact 0/1 predictions; gradients are
evaluated at the clipped scores.

``batch_loss`` works through blocks of ``coherence.BLOCK_ELEMS // |V|``
rows; per-row values are summed over C-contiguous (rows, |V|) blocks, so
its output does not depend on N or on the blocking. The tree-min losses
route each node's gradient to the node whose score propagation copied,
ties to the smallest node id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import _leaf_rows, propagate, propagate_batch_winners, propagate_grad, row_blocks
from .fields import IGNORE, LabelField, ScoreField
from .taxonomy import ClassHierarchy

# Every loss the trainer and the gradient check accept.
LOSSES = ("cce", "bce", "focal", "tm", "ftm")


@dataclass
class FocalConfig:
    """Focusing parameter and numerical floor for the focal-style losses.

    ``grad_through_modulator`` selects whether the modulating factor is
    differentiated (default) or treated as a constant weight.
    """

    gamma: float = 2.0
    epsilon: float = 1e-12
    grad_through_modulator: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")
        if not 0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")


@dataclass
class LossReport:
    value: float
    grad: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.value) or not np.all(np.isfinite(self.grad)):
            raise ValueError("loss value and gradient must be finite")


def _clip(x: np.ndarray, eps: float) -> np.ndarray:
    return np.clip(x, eps, 1.0 - eps)


def cce_loss(h: ClassHierarchy, y: np.ndarray, leaf: int, epsilon: float = 1e-12) -> LossReport:
    """Categorical cross-entropy over the leaf distribution.

    ``y`` is indexed by leaf order (h.leaves); ``leaf`` is a node id.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(h.leaves),):
        raise ValueError(f"expected leaf vector of length {len(h.leaves)}, got {y.shape}")
    if not h.is_leaf(leaf):
        raise ValueError(f"node {leaf} is not a leaf")
    if abs(float(y.sum()) - 1.0) > 1e-6:
        raise ValueError("leaf scores must sum to 1")
    idx = h.leaf_index[leaf]
    yc = _clip(y, epsilon)
    grad = np.zeros_like(y)
    grad[idx] = -1.0 / yc[idx]
    return LossReport(value=float(-np.log(yc[idx])), grad=grad)


def _bce_terms(p: np.ndarray, labels: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-node BCE values and d/dp at the clipped scores."""
    pc = _clip(p, eps)
    pos = labels.astype(np.float64)
    values = -pos * np.log(pc) - (1.0 - pos) * np.log(1.0 - pc)
    dvdp = -pos / pc + (1.0 - pos) / (1.0 - pc)
    return values, dvdp


def _focal_terms(
    p: np.ndarray, labels: np.ndarray, cfg: FocalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node focal BCE values and d/dp.

    Positive term: -(1-p)^g log p; negative term: -p^g log(1-p).
    """
    g = cfg.gamma
    pc = _clip(p, cfg.epsilon)
    pos = labels.astype(np.float64)
    logp = np.log(pc)
    log1p = np.log(1.0 - pc)
    values = -pos * (1.0 - pc) ** g * logp - (1.0 - pos) * pc**g * log1p
    d_pos = -((1.0 - pc) ** g) / pc
    d_neg = pc**g / (1.0 - pc)
    if cfg.grad_through_modulator and g > 0:
        d_pos = d_pos + g * (1.0 - pc) ** (g - 1.0) * logp
        d_neg = d_neg - g * pc ** (g - 1.0) * log1p
    dvdp = pos * d_pos + (1.0 - pos) * d_neg
    return values, dvdp


def bce_loss(s: np.ndarray, labels: np.ndarray, epsilon: float = 1e-12) -> LossReport:
    """Independent per-node binary cross-entropy on raw scores."""
    s = np.asarray(s, dtype=np.float64)
    labels = np.asarray(labels)
    if s.shape != labels.shape:
        raise ValueError("score/label length mismatch")
    values, dvdp = _bce_terms(s, labels, epsilon)
    return LossReport(value=float(values.sum()), grad=dvdp)


def focal_loss(s: np.ndarray, labels: np.ndarray, cfg: FocalConfig | None = None) -> LossReport:
    """Focally modulated BCE on raw scores (no propagation)."""
    cfg = cfg or FocalConfig()
    s = np.asarray(s, dtype=np.float64)
    labels = np.asarray(labels)
    if s.shape != labels.shape:
        raise ValueError("score/label length mismatch")
    values, dvdp = _focal_terms(s, labels, cfg)
    return LossReport(value=float(values.sum()), grad=dvdp)


def tree_min_loss(
    h: ClassHierarchy, s: np.ndarray, labels: np.ndarray, epsilon: float = 1e-12
) -> LossReport:
    """BCE applied to the hierarchy-coherent propagated scores."""
    s = np.asarray(s, dtype=np.float64)
    p = propagate(h, s, labels)
    values, dvdp = _bce_terms(p, np.asarray(labels), epsilon)
    grad = propagate_grad(h, s, labels, dvdp)
    return LossReport(value=float(values.sum()), grad=grad)


def focal_tree_min_loss(
    h: ClassHierarchy, s: np.ndarray, labels: np.ndarray, cfg: FocalConfig | None = None
) -> LossReport:
    """Focal BCE applied to the propagated scores; the modulating factor is
    differentiated through the min/max routing."""
    cfg = cfg or FocalConfig()
    s = np.asarray(s, dtype=np.float64)
    p = propagate(h, s, labels)
    values, dvdp = _focal_terms(p, np.asarray(labels), cfg)
    grad = propagate_grad(h, s, labels, dvdp)
    return LossReport(value=float(values.sum()), grad=grad)


# The losses ``batch_loss`` takes: all but the flat softmax.
FIELD_LOSSES = LOSSES[1:]


def batch_loss(
    h: ClassHierarchy,
    s: np.ndarray,
    leaf_ids: np.ndarray,
    which: str,
    cfg: FocalConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row loss values and gradients for N score vectors at once.

    Row order and the sequential reduction order are fixed, so results are
    bit-identical however the rows were produced.
    """
    cfg = cfg or FocalConfig()
    if which not in FIELD_LOSSES:
        raise ValueError(f"unknown field loss {which!r}; expected one of {FIELD_LOSSES}")
    s = np.asarray(s, dtype=np.float64)
    leaf_ids = np.asarray(leaf_ids)
    n, width = s.shape
    values = np.empty(n)
    grad = np.empty(s.shape)
    for rows in row_blocks(h, n):
        if which in ("bce", "focal"):
            p, labels = s[rows], _leaf_rows(h, leaf_ids[rows])
        else:
            p, winners, labels = propagate_batch_winners(h, s[rows], leaf_ids[rows])
        if which in ("bce", "tm"):
            terms, dvdp = _bce_terms(p, labels, cfg.epsilon)
        else:
            terms, dvdp = _focal_terms(p, labels, cfg)
        values[rows] = terms.sum(axis=1)
        if which in ("bce", "focal"):
            grad[rows] = dvdp
        else:
            # bincount adds each cell's contributions in ascending node
            # order, starting from 0, exactly as a sequential scatter does.
            b = p.shape[0]
            cells = winners + width * np.arange(b)[:, None]
            grad[rows] = np.bincount(
                cells.ravel(), weights=dvdp.ravel(), minlength=b * width
            ).reshape(b, width)
    return values, grad


def field_loss(
    h: ClassHierarchy,
    scores: ScoreField,
    gt: LabelField,
    which: str,
    cfg: FocalConfig | None = None,
) -> tuple[float, np.ndarray]:
    """Mean per-pixel loss over non-ignored pixels plus the float64
    gradient field.

    ``batch_loss`` runs on one row block's valid pixels at a time, so only
    that block is widened to float64. The per-pixel values are gathered in
    pixel order and summed once, as over the whole field.
    """
    scores.check_hierarchy(h)
    gt.check_hierarchy(h)
    if (scores.height, scores.width) != (gt.height, gt.width):
        raise ValueError("score and label fields have mismatched dimensions")
    flat_s = scores.scores.reshape(-1, len(h))
    flat_l = gt.leaf.reshape(-1)
    grad = np.zeros(flat_s.shape)
    n = int(np.count_nonzero(flat_l != IGNORE))
    if n == 0:
        return 0.0, grad.reshape(scores.scores.shape)
    values = np.empty(n)
    done = 0
    for rows in row_blocks(h, flat_l.size):
        leaf = flat_l[rows]
        valid = leaf != IGNORE
        v, g = batch_loss(h, flat_s[rows][valid], leaf[valid].astype(np.int64), which, cfg)
        values[done:done + v.size] = v
        done += v.size
        grad[rows][valid] = g / n
    return float(values.sum() / n), grad.reshape(scores.scores.shape)
