"""Classification losses over the hierarchy with analytic gradients.

All losses report both the scalar value and the gradient with respect to
their input: leaf logits for the flat softmax ``cce_loss``, node scores in
[0, 1] for the others. Scores are clipped to [EPSILON, 1 - EPSILON] before any
logarithm so values stay finite at exact 0/1 predictions; gradients are
evaluated at the clipped scores.

``batch_loss`` works through blocks of ``coherence.BLOCK_ELEMS // |V|``
rows; per-row values are summed over C-contiguous (rows, |V|) blocks, so
its output does not depend on N or on the blocking. Each block goes
through ``block_loss``, which takes the block's positive mask in place of
leaf ids and checks nothing; ``training.train`` calls it, and ``cce_rows``
for the softmax, directly. The tree-min losses route each node's gradient
to the node whose score propagation copied, ties to the smallest node id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import (
    _check_ignored_rows,
    _dp_scores,
    _leaf_rows,
    _propagated_winners,
    field_rows,
    propagate_winners,
    row_blocks,
    run_blocks,
    shared_zeros,
)
from .fields import IGNORE, LabelField, ScoreField
from .taxonomy import ClassHierarchy

# Every loss the trainer and the gradient check accept.
LOSSES = ("cce", "bce", "focal", "tm", "ftm")

# Numerical floor of every logarithm's argument.
EPSILON = 1e-12


@dataclass
class FocalConfig:
    """Focusing parameter of the focal-style losses."""

    gamma: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")


@dataclass
class LossReport:
    value: float
    grad: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.value) or not np.all(np.isfinite(self.grad)):
            raise ValueError("loss value and gradient must be finite")


def _clip(x: np.ndarray) -> np.ndarray:
    return np.clip(x, EPSILON, 1.0 - EPSILON)


def cce_loss(
    h: ClassHierarchy, logits: np.ndarray, leaf_ids: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the leaf logits of (N, |V|) ``logits``,
    and its gradient, zero at internal nodes, from one ``cce_rows`` call.
    Raises ``ValueError`` naming the first label id that is not a leaf of
    ``h``, and for a non-finite logit; no rows give +0.0."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = h.leaf_positions(leaf_ids)
    if logits.ndim != 2 or logits.shape[1] != len(h) or targets.shape != logits.shape[:1]:
        raise ValueError(
            f"expected (N, {len(h)}) logits and N leaf ids, got {logits.shape} and {targets.shape}"
        )
    if not np.isfinite(logits).all():
        raise ValueError("logits must be finite")
    grad = np.empty_like(logits)
    if not len(targets):
        return 0.0, grad
    values = cce_rows(h, logits, targets, len(targets), grad)
    # Minus the mean log-likelihood: a mean of 0s is +0.0, not -0.0.
    return -float((-values).mean()), grad


def cce_rows(
    h: ClassHierarchy, z: np.ndarray, targets: np.ndarray, n: int, out: np.ndarray
) -> np.ndarray:
    """``cce_loss`` of one row block: the per-row values of (B, |V|) float64
    logits ``z``, given the labels' positions in ``h.leaves``. Writes into
    ``out`` the gradient of the mean over the run's ``n`` rows; a row's
    bits depend on no other row. Checks nothing."""
    leaves = np.array(h.leaves, dtype=np.int64)
    # One (B, leaves) array, updated in place: the same bits as a new array
    # for each step of the softmax.
    y = z[:, leaves]
    y -= y.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)
    values = -np.log(np.clip(y[np.arange(len(y)), targets], EPSILON, None))
    y[np.arange(len(y)), targets] -= 1.0
    y /= n
    out.fill(0.0)
    out[:, leaves] = y
    return values


def _bce_terms(p: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node BCE values -log q and d/dp at the clipped scores, where q is
    the score of the true label: p on positives, 1 - p on negatives. One
    branch per cell gives the same bits as evaluating both."""
    pc = _clip(p)
    pos = np.asarray(labels, dtype=bool)
    q = np.where(pos, pc, 1.0 - pc)
    inv = 1.0 / q
    return -np.log(q), np.where(pos, -inv, inv)


def _true_label_scores(p: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(pos, q, r)``: the labels as bool, each cell's clipped score of its
    true label and the complement r = 1 - q, taken from p, not from q."""
    pc = _clip(p)
    rest = 1.0 - pc
    pos = np.asarray(labels, dtype=bool)
    return pos, np.where(pos, pc, rest), np.where(pos, rest, pc)


def _focal_terms(
    p: np.ndarray, labels: np.ndarray, cfg: FocalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node focal BCE values -r^g log q and d/dp at the clipped scores.

    Positive term: -(1-p)^g log p; negative term: -p^g log(1-p). One
    branch per cell gives the same bits as evaluating both.
    """
    g = cfg.gamma
    pos, q, r = _true_label_scores(p, labels)
    logq = np.log(q)
    values = r**g
    dq = values / q
    np.negative(dq, out=dq)  # -(r^g) / q
    if g > 0:
        # + g r^(g-1) log q, built in r's buffer
        r **= g - 1.0
        r *= g
        r *= logq
        dq += r
    values *= logq
    np.negative(values, out=values)  # -(r^g) log q
    return values, np.where(pos, dq, -dq)


def _binary(s: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores as float64 and labels of the same shape, every label 0 or 1."""
    s = np.asarray(s, dtype=np.float64)
    labels = np.asarray(labels)
    if s.shape != labels.shape:
        raise ValueError("score/label length mismatch")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return s, labels


def bce_loss(s: np.ndarray, labels: np.ndarray) -> LossReport:
    """Independent per-node binary cross-entropy on raw scores."""
    s, labels = _binary(s, labels)
    values, dvdp = _bce_terms(s, labels)
    return LossReport(value=float(values.sum()), grad=dvdp)


def focal_loss(s: np.ndarray, labels: np.ndarray, cfg: FocalConfig | None = None) -> LossReport:
    """Focally modulated BCE on raw scores (no propagation)."""
    s, labels = _binary(s, labels)
    values, dvdp = _focal_terms(s, labels, cfg or FocalConfig())
    return LossReport(value=float(values.sum()), grad=dvdp)


def _tree_min(h: ClassHierarchy, s: np.ndarray, labels: np.ndarray, terms) -> LossReport:
    """``terms(p, labels)`` of the propagated scores p, its gradient routed
    back to the winners of one ``propagate_winners`` walk."""
    s = np.asarray(s, dtype=np.float64)
    winners = propagate_winners(h, s, labels)
    values, dvdp = terms(s[winners], np.asarray(labels))
    grad = np.zeros(len(h), dtype=np.float64)
    np.add.at(grad, winners, dvdp)
    return LossReport(value=float(values.sum()), grad=grad)


def tree_min_loss(h: ClassHierarchy, s: np.ndarray, labels: np.ndarray) -> LossReport:
    """BCE applied to the hierarchy-coherent propagated scores."""
    return _tree_min(h, s, labels, _bce_terms)


def focal_tree_min_loss(
    h: ClassHierarchy, s: np.ndarray, labels: np.ndarray, cfg: FocalConfig | None = None
) -> LossReport:
    """Focal BCE applied to the propagated scores; the modulating factor is
    differentiated through the min/max routing."""
    cfg = cfg or FocalConfig()
    return _tree_min(h, s, labels, lambda p, lab: _focal_terms(p, lab, cfg))


# The losses ``batch_loss`` takes: all but the flat softmax.
FIELD_LOSSES = LOSSES[1:]


def _check_field_loss(which: str) -> None:
    if which not in FIELD_LOSSES:
        raise ValueError(f"unknown field loss {which!r}; expected one of {FIELD_LOSSES}")


def batch_loss(
    h: ClassHierarchy,
    s: np.ndarray,
    leaf_ids: np.ndarray,
    which: str,
    cfg: FocalConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row loss values and gradients for N score vectors at once.

    Row order and the sequential reduction order are fixed, so results are
    bit-identical however the rows were produced. Propagation runs in the
    scores' dtype (see ``coherence.propagate_batch``); only the propagated
    block is widened to float64 for the loss terms, which is exact. A NaN
    score raises ``ValueError``.
    """
    cfg = cfg or FocalConfig()
    _check_field_loss(which)
    s = _dp_scores(h, s)
    leaf_ids = np.asarray(leaf_ids)
    n = len(s)
    # A block's slice of N + 1 ids would still match its rows.
    if leaf_ids.shape != (n,):
        raise ValueError(f"expected {n} leaf ids, one per score row, got shape {leaf_ids.shape}")
    values = np.empty(n)
    grad = np.empty(s.shape)
    for rows in row_blocks(h, n):
        block = s[rows]
        pos = _leaf_rows(h, leaf_ids[rows], len(block))
        values[rows], grad[rows] = block_loss(h, block, pos, which, cfg)
    # Values are finite unless their row holds a NaN score, which makes
    # the value NaN; so is the sum then, and only then.
    if np.isnan(values.sum()):
        raise ValueError("scores must not be NaN")
    return values, grad


def block_loss(
    h: ClassHierarchy, s: np.ndarray, pos: np.ndarray, which: str, cfg: FocalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``batch_loss`` of one row block: per-row values and float64
    gradients of the (B, |V|) scores ``s``, given the block's positive mask
    ``pos``, its rows of ``h.ancestor_mask``.

    The caller checks: ``which`` is one of ``FIELD_LOSSES``, ``s`` has a
    float dtype no narrower than float32 and ``pos`` its shape. The tree-min
    losses raise ``ValueError`` on a NaN score; ``bce`` and ``focal`` give
    the row a NaN value.
    """
    if which in ("bce", "focal"):
        p = s
    else:
        p, winners = _propagated_winners(h, s, pos)
    p = p.astype(np.float64, copy=False)
    if which in ("bce", "tm"):
        terms, dvdp = _bce_terms(p, pos)
    else:
        terms, dvdp = _focal_terms(p, pos, cfg)
    if which in ("bce", "focal"):
        return terms.sum(axis=1), dvdp
    # bincount adds each cell's contributions in ascending node order,
    # starting from 0, exactly as a sequential scatter does.
    b, width = p.shape
    cells = winners + width * np.arange(b)[:, None]
    grad = np.bincount(cells.ravel(), weights=dvdp.ravel(), minlength=b * width)
    return terms.sum(axis=1), grad.reshape(b, width)


def field_loss(
    h: ClassHierarchy,
    scores: ScoreField,
    gt: LabelField,
    which: str,
    cfg: FocalConfig | None = None,
) -> tuple[float, np.ndarray]:
    """Mean per-pixel loss over non-ignored pixels plus the float64
    gradient field. A NaN score raises ``ValueError``, at an ignored pixel
    too, and a ``which`` outside ``FIELD_LOSSES`` before anything else.

    Each ``coherence.run_blocks`` call of ``work`` runs ``batch_loss`` on
    one row block's valid pixels and writes the gradient and each valid
    pixel's value at its pixel into ``shared_zeros`` memory; the valid
    values are summed once, in pixel order, after every worker has ended.
    """
    _check_field_loss(which)
    flat_s, flat_l = field_rows(h, scores, gt)
    valid = flat_l != IGNORE
    n = int(np.count_nonzero(valid))
    grad = shared_zeros(flat_s.shape, np.float64)
    values = shared_zeros(flat_l.shape, np.float64)  # each at its own pixel

    def work(rows: slice) -> None:
        ok = valid[rows]
        _check_ignored_rows(flat_s[rows], ok)
        ids = flat_l[rows][ok].astype(np.int64)
        v, g = batch_loss(h, flat_s[rows][ok], ids, which, cfg)
        values[rows][ok] = v
        grad[rows][ok] = g / n

    run_blocks(h, flat_s, work)
    return float(values[valid].sum() / max(n, 1)), grad.reshape(scores.scores.shape)
