"""Central finite-difference verification of the analytic loss gradients."""

from __future__ import annotations

import numpy as np

from . import losses
from .coherence import expand_labels
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


def gradcheck_loss(
    loss_name: str, trials: int = 100, seed: int = 0, step: float = 1e-5
) -> float:
    """Max relative error over seeded random instances of one loss."""
    if loss_name not in losses.LOSSES:
        raise ValueError(f"unknown loss {loss_name!r}; expected one of {losses.LOSSES}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    cfg = losses.FocalConfig(gamma=2.0)
    worst = 0.0
    for _ in range(trials):
        h = random_hierarchy(rng, int(rng.integers(3, 13)))
        leaf = int(rng.choice(h.leaves))
        labels = expand_labels(h, leaf)
        if loss_name == "cce":
            y = rng.uniform(0.1, 1.0, size=len(h.leaves))
            y = y / y.sum()

            def f(y):
                yc = np.clip(y, 1e-12, None)
                return float(-np.log(yc[h.leaves.index(leaf)]))

            analytic = losses.cce_loss(h, y, leaf).grad
            numeric = central_difference(f, y, step)
        else:
            s = tie_free_scores(rng, len(h))
            loss = {
                "bce": lambda s: losses.bce_loss(s, labels),
                "focal": lambda s: losses.focal_loss(s, labels, cfg),
                "tm": lambda s: losses.tree_min_loss(h, s, labels),
                "ftm": lambda s: losses.focal_tree_min_loss(h, s, labels, cfg),
            }[loss_name]
            analytic = loss(s).grad
            numeric = central_difference(lambda s: loss(s).value, s, step)
        worst = max(worst, relative_error(analytic, numeric))
    return worst
