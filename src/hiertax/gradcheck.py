"""Central finite-difference verification of the analytic loss gradients."""

from __future__ import annotations

import numpy as np

from . import losses
from .taxonomy import ClassHierarchy, build_hierarchy


def random_hierarchy(rng: np.random.Generator, n_nodes: int) -> ClassHierarchy:
    """Uniform random recursive tree: node v attaches to a parent in [0, v)."""
    names = [f"n{v}" for v in range(n_nodes)]
    parent = [-1] + [int(rng.integers(0, v)) for v in range(1, n_nodes)]
    return build_hierarchy(names, parent)


def tie_free_scores(rng: np.random.Generator, n: int, lo: float = 0.05, hi: float = 0.95) -> np.ndarray:
    """Scores with pairwise gaps bounded away from zero, so min/max winners
    are stable under the finite-difference step."""
    width = (hi - lo) / n
    base = lo + (np.arange(n) + rng.uniform(0.25, 0.75, size=n)) * width
    return base[rng.permutation(n)]


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = f(x)
        xf[i] = orig - step
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _loss(h: ClassHierarchy, x: np.ndarray, leaf_ids: np.ndarray, loss_name: str, cfg):
    """Value and gradient of one loss on a batch, as training computes them:
    ``cce_loss`` on logits, or the row sum of ``batch_loss`` on scores."""
    if loss_name == "cce":
        return losses.cce_loss(h, x, leaf_ids)
    values, grad = losses.batch_loss(h, x, leaf_ids, loss_name, cfg)
    return float(values.sum()), grad


def gradcheck_loss(
    loss_name: str, trials: int = 100, seed: int = 0, step: float = 1e-5
) -> float:
    """Max relative error over seeded random 2-row batches of one loss.

    Each trial draws a random tree, two leaf labels and tie-free scores per
    row (used as logits for ``cce``), and compares the library kernel's
    gradient with central differences of its value.
    """
    if loss_name not in losses.LOSSES:
        raise ValueError(f"unknown loss {loss_name!r}; expected one of {losses.LOSSES}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    cfg = losses.FocalConfig(gamma=2.0)
    worst = 0.0
    for _ in range(trials):
        h = random_hierarchy(rng, int(rng.integers(3, 13)))
        leaf_ids = rng.choice(np.array(h.leaves), size=2)
        x = np.stack([tie_free_scores(rng, len(h)) for _ in range(2)])
        analytic = _loss(h, x, leaf_ids, loss_name, cfg)[1]
        numeric = central_difference(lambda x: _loss(h, x, leaf_ids, loss_name, cfg)[0], x, step)
        # np.maximum keeps a NaN error, where max(0.0, nan) would drop it.
        worst = float(np.maximum(worst, relative_error(analytic, numeric)))
    return worst
