"""Hierarchy coherence: label expansion, constraint checks, score propagation.

Propagation replaces each positive node's score by the minimum over its
ancestors and each negative node's score by the maximum over its
descendants, which guarantees the resulting vector satisfies both
hierarchy constraints restricted by the label expansion. Self-sets include
the node itself.

Batch propagation runs one tree DP, ``tree_extrema``: ancestor-min runs
top-down (``amin[v] = min(s[v], amin[parent v])``) and descendant-max runs
bottom-up, one ``np.maximum.reduceat`` per depth. Winners are reduced
lexicographically on (value, node id), so ties resolve to the smallest node
id. The DP works node-major on a copy of one block of at most
``BLOCK_ELEMS // |V|`` rows (at least one row) at a time, which keeps its
temporaries small whatever N is; results do not depend on the blocking.
"""

from __future__ import annotations

import numpy as np

from .fields import IGNORE, LabelField, ScoreField
from .taxonomy import ClassHierarchy


def expand_labels(h: ClassHierarchy, leaf: int) -> np.ndarray:
    """Binary vector over V: 1 on the leaf's ancestor chain, 0 elsewhere."""
    if not h.is_leaf(leaf):
        raise ValueError(f"node {leaf} is not a leaf")
    out = np.zeros(len(h), dtype=np.int8)
    out[list(h.ancestors(leaf))] = 1
    return out


def _check_lengths(h: ClassHierarchy, *vecs: np.ndarray) -> None:
    for v in vecs:
        if v.shape != (len(h),):
            raise ValueError(f"expected vector of length {len(h)}, got shape {v.shape}")


def _check_threshold(threshold: float) -> None:
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")


def check_positive_constraint(
    h: ClassHierarchy, s: np.ndarray, threshold: float = 0.5
) -> list[tuple[int, int]]:
    """Pairs (v, ancestor u) where v scores above threshold but above u.

    An empty list means every thresholded positive has all its ancestors
    scored at least as high. Pairs are ordered by v, then u.
    """
    s = np.asarray(s, dtype=np.float64)
    _check_lengths(h, s)
    _check_threshold(threshold)
    hit = h.ancestor_mask & (s[:, None] > s) & (s > threshold)[:, None]
    return [(int(v), int(u)) for v, u in zip(*np.nonzero(hit))]


def check_negative_constraint(
    h: ClassHierarchy, s: np.ndarray, threshold: float = 0.5
) -> list[tuple[int, int]]:
    """Pairs (v, descendant u) where v scores at or below threshold but below u.

    Pairs are ordered by v, then u.
    """
    s = np.asarray(s, dtype=np.float64)
    _check_lengths(h, s)
    _check_threshold(threshold)
    hit = h.ancestor_mask.T & (s > s[:, None]) & (s <= threshold)[:, None]
    return [(int(v), int(u)) for v, u in zip(*np.nonzero(hit))]


def coherence_violation_rate(h: ClassHierarchy, s: np.ndarray) -> float:
    """Share of (N, |V|) score rows that break a constraint at some threshold.

    That is the share of rows where some node scores above its parent,
    whatever the threshold: between a node and a lower ancestor (or a
    higher descendant) the score rises across some parent edge, which
    violates for the child if it is above the threshold and for the parent
    otherwise. Raises ``ValueError`` for a NaN score or a width other than |V|.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != len(h):
        raise ValueError(f"expected scores of shape (N, {len(h)}), got {s.shape}")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    viol = np.zeros(s.shape[0], dtype=bool)
    for rows in row_blocks(h, s.shape[0]):
        b = s[rows]
        for nodes, parents in h.top_down:
            viol[rows] |= (b[:, nodes] > b[:, parents]).any(axis=1)
    return float(viol.mean()) if s.shape[0] else 0.0


def _validate_expansion(h: ClassHierarchy, labels: np.ndarray) -> None:
    positives = np.flatnonzero(labels)
    if positives.size == 0:
        raise ValueError("label vector has no positive nodes")
    # The positive set of a valid expansion is exactly one leaf's chain.
    deepest = max(positives, key=lambda v: len(h.ancestors(v)))
    if set(positives) != set(h.ancestors(int(deepest))) or not h.is_leaf(int(deepest)):
        raise ValueError("label vector is not the expansion of a single leaf")


def propagate(h: ClassHierarchy, s: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Hierarchy-coherent score vector: min over ancestors on positives,
    max over descendants on negatives."""
    s = np.asarray(s, dtype=np.float64)
    labels = np.asarray(labels)
    _check_lengths(h, s, labels)
    _validate_expansion(h, labels)
    return s[propagate_winners(h, s, labels)]


def propagate_winners(h: ClassHierarchy, s: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """For each node, the source node id whose score the propagation copied.

    Ties resolve to the smallest node id, so the backward pass routes all
    gradient mass to a single deterministic source per output.
    """
    s = np.asarray(s, dtype=np.float64)
    labels = np.asarray(labels)
    _check_lengths(h, s, labels)
    winners = np.empty(len(h), dtype=np.int64)
    for v in range(len(h)):
        group = sorted(h.ancestors(v)) if labels[v] else sorted(h.descendants(v))
        vals = s[group]
        best = np.argmin(vals) if labels[v] else np.argmax(vals)
        winners[v] = group[int(best)]
    return winners


def propagate_grad(
    h: ClassHierarchy, s: np.ndarray, labels: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Backward pass of propagate: route each upstream component to its
    arg-min/arg-max source entry of s."""
    upstream = np.asarray(upstream, dtype=np.float64)
    _check_lengths(h, np.asarray(s), upstream)
    _validate_expansion(h, np.asarray(labels))
    winners = propagate_winners(h, s, labels)
    grad = np.zeros(len(h), dtype=np.float64)
    np.add.at(grad, winners, upstream)
    return grad


def propagate_field(h: ClassHierarchy, scores: ScoreField, labels: LabelField) -> ScoreField:
    """Per-pixel propagate over a whole field; ignored pixels pass through.

    The result keeps the input's dtype: propagation only copies scores, so
    a float32 field is propagated one row block at a time into a float32
    copy with no loss.
    """
    scores.check_hierarchy(h)
    labels.check_hierarchy(h)
    if (scores.height, scores.width) != (labels.height, labels.width):
        raise ValueError("score and label fields have mismatched dimensions")
    flat_s = scores.scores.reshape(-1, len(h))
    flat_l = labels.leaf.reshape(-1)
    out = flat_s.copy()
    for rows in row_blocks(h, flat_l.size):
        leaf = flat_l[rows]
        valid = leaf != IGNORE
        out[rows][valid] = propagate_batch(h, flat_s[rows][valid], leaf[valid].astype(np.int64))
    return ScoreField(scores=out.reshape(scores.scores.shape))


BLOCK_ELEMS = 16384


def row_blocks(h: ClassHierarchy, n: int) -> list[slice]:
    """Slices of at most ``BLOCK_ELEMS // |V|`` rows (at least one) covering n rows."""
    step = max(1, BLOCK_ELEMS // len(h))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def sibling_max(
    vals: np.ndarray, ids: np.ndarray | None,
    kids: np.ndarray, starts: np.ndarray, group: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Max of node-major (|V|, B) ``vals`` over each sibling run of one
    ``ClassHierarchy.bottom_up`` step.

    Returns ``(best, best_id)``: ``best_id`` is, per run, the smallest of
    ``ids[kids]`` (node ids, below |V|) among the kids that attain ``best``,
    or None without ``ids``.
    """
    sub = vals[kids]
    best = np.maximum.reduceat(sub, starts, axis=0)
    if ids is None:
        return best, None
    # Kids not tied with their run's best move above every node id.
    tied = ids[kids] + (sub != best[group]) * len(vals)
    return best, np.minimum.reduceat(tied, starts, axis=0)


def tree_extrema(h: ClassHierarchy, s: np.ndarray, winners: bool = False) -> tuple[np.ndarray, ...]:
    """Ancestor-min and descendant-max of one (B, |V|) row block, node-major.

    Returns ``(amin, dmax)``, each (|V|, B), and with ``winners`` also the
    node ids they came from, ties to the smallest id. ``s`` is not modified.
    """
    dmax = s.T.copy()
    amin = dmax.copy()
    if winners:
        amin_w = np.broadcast_to(np.arange(len(h))[:, None], dmax.shape).copy()
        dmax_w = amin_w.copy()
    # Winners are updated as id + take * (other - id): np.where on these
    # unpredictable masks measured 15-30% slower per batch_loss call.
    for nodes, parents in h.top_down:
        up = amin[parents]
        cur = amin[nodes]
        amin[nodes] = np.minimum(cur, up)
        if winners:
            up_w = amin_w[parents]
            take = (up < cur) | ((up == cur) & (up_w < nodes[:, None]))
            amin_w[nodes] += take * (up_w - nodes[:, None])
    # Each level's parents still hold their own score and id when their
    # kids are reduced, because parents sit one depth higher.
    for kids, starts, parents, group in h.bottom_up:
        best, best_w = sibling_max(dmax, dmax_w if winners else None, kids, starts, group)
        cur = dmax[parents]
        dmax[parents] = np.maximum(cur, best)
        if winners:
            take = (best > cur) | ((best == cur) & (best_w < parents[:, None]))
            dmax_w[parents] += take * (best_w - parents[:, None])
    if winners:
        return amin, dmax, amin_w, dmax_w
    return amin, dmax


def _leaf_rows(h: ClassHierarchy, leaf_ids: np.ndarray) -> np.ndarray:
    """Label expansions of ``leaf_ids`` as (N, |V|) ``ancestor_mask`` rows.

    Raises ``ValueError`` naming the first id that is not a leaf of ``h``.
    """
    ids = np.asarray(leaf_ids)
    if ids.size and (ids.min() < 0 or ids.max() >= len(h) or (h.leaf_index[ids] < 0).any()):
        bad = next(v for v in ids.ravel().tolist() if not 0 <= v < len(h) or h.leaf_index[v] < 0)
        raise ValueError(f"label id {bad} is not a leaf of the hierarchy")
    return h.ancestor_mask[ids]


def propagate_batch(h: ClassHierarchy, s: np.ndarray, leaf_ids: np.ndarray) -> np.ndarray:
    """Vectorized propagate for N score vectors with per-row leaf labels."""
    s = np.asarray(s, dtype=np.float64)
    leaf_ids = np.asarray(leaf_ids)
    p = np.empty(s.shape)
    for rows in row_blocks(h, s.shape[0]):
        amin, dmax = tree_extrema(h, s[rows])
        pos = _leaf_rows(h, leaf_ids[rows]).T
        p[rows] = np.where(pos, amin, dmax).T
    return p


def propagate_batch_winners(
    h: ClassHierarchy, s: np.ndarray, leaf_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized propagate returning (p, winners, positive-mask).

    Winner ties resolve to the smallest node id.
    """
    s = np.asarray(s, dtype=np.float64)
    pos = _leaf_rows(h, leaf_ids)
    p = np.empty(s.shape)
    winners = np.empty(s.shape, dtype=np.int64)
    for rows in row_blocks(h, s.shape[0]):
        amin, dmax, amin_w, dmax_w = tree_extrema(h, s[rows], winners=True)
        pos_t = pos[rows].T
        p[rows] = np.where(pos_t, amin, dmax).T
        winners[rows] = np.where(pos_t, amin_w, dmax_w).T
    return p, winners, pos
