"""Independent references for the library, in full-array numpy.

``train_scorer`` is the toy scorer's training loop as ``training.train``
defines it, without its workers, shared arrays or ``out=`` writes: each
row block's logits, per-row losses and shares of the weight and bias
gradients, and the shares summed one block after another.
"""

from __future__ import annotations

import numpy as np

from hiertax.coherence import row_blocks
from hiertax.losses import FocalConfig, block_loss, cce_rows


def train_scorer(x, leaf_ids, h, cfg) -> tuple[list[float], np.ndarray, np.ndarray]:
    """The loss curve, weight and bias of ``cfg.iterations`` momentum SGD
    steps on the (n, c) float64 features ``x``, without the triplet term.
    BLAS's thread count is the caller's to fix."""
    n, c = x.shape
    weight = np.random.default_rng(cfg.seed).normal(0.0, 0.01, size=(c, len(h)))
    bias = np.zeros(len(h))
    velocity = [np.zeros_like(weight), np.zeros_like(bias)]
    losses = []
    for _ in range(cfg.iterations):
        values, shares = np.empty(n), []
        for rows in row_blocks(h, n):
            z = x[rows] @ weight + bias
            if cfg.loss == "cce":
                g = np.empty_like(z)
                values[rows] = cce_rows(h, z, h.leaf_index[leaf_ids[rows]], n, g)
            else:
                s = 1.0 / (1.0 + np.exp(-z))
                pos = h.ancestor_mask[leaf_ids[rows]]
                values[rows], dvds = block_loss(h, s, pos, cfg.loss, FocalConfig(cfg.gamma))
                g = (dvds / n) * s * (1.0 - s)
            shares.append((x[rows].T @ g, g.sum(axis=0)))
        grads = list(shares[0])
        for share in shares[1:]:
            grads = [total + part for total, part in zip(grads, share)]
        losses.append(float(values.mean()))
        for p, v, g in zip((weight, bias), velocity, grads):
            v[...] = cfg.momentum * v + (g + cfg.weight_decay * p)
            p -= cfg.lr * v
    return losses, weight, bias
