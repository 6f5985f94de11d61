"""Hierarchy-margin metric learning: cosine distance, tree-induced margins,
triplet loss with gradients, and valid-triplet sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .taxonomy import ClassHierarchy

DEFAULT_MARGIN_BASE = 0.1
DEFAULT_TRIPLET_COUNT = 200


@dataclass
class Triplet:
    anchor: int
    pos: int
    neg: int
    anchor_leaf: int
    pos_leaf: int
    neg_leaf: int
    margin: float


@dataclass
class TripletLossReport:
    value: float
    grad_anchor: np.ndarray
    grad_pos: np.ndarray
    grad_neg: np.ndarray


def _checked(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("embedding must have finite nonzero norm")
    return x


def cosine_distance(x, y) -> float:
    """Half of (1 - cosine similarity), mapping to [0, 1]."""
    x, y = _checked(x), _checked(y)
    return float(0.5 * (1.0 - x @ y / (np.linalg.norm(x) * np.linalg.norm(y))))


def _cosine_distance_grad(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Distance plus its gradients with respect to both inputs."""
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    dot = x @ y
    d = 0.5 * (1.0 - dot / (nx * ny))
    gx = -0.5 * (y / (nx * ny) - dot * x / (nx**3 * ny))
    gy = -0.5 * (x / (nx * ny) - dot * y / (nx * ny**3))
    return float(d), gx, gy


def triplet_margin(
    h: ClassHierarchy,
    anchor_leaf: int,
    pos_leaf: int,
    neg_leaf: int,
    margin_base: float = DEFAULT_MARGIN_BASE,
) -> float:
    """Separation margin: a constant tolerance plus half the normalized
    tree-distance gap between negative and positive."""
    if h.height == 0:
        raise ValueError("single-node hierarchy admits no valid triplets")
    gap = h.tree_distance(anchor_leaf, neg_leaf) - h.tree_distance(anchor_leaf, pos_leaf)
    if gap <= 0:
        raise ValueError(
            "invalid triplet: negative must be farther from the anchor than the positive"
        )
    m_tau = gap / (2.0 * h.height)
    return margin_base + 0.5 * m_tau


def tree_triplet_loss(a, p, n, margin: float) -> TripletLossReport:
    """Hinge on cosine distances: max(d(a,p) - d(a,n) + margin, 0).

    The boundary subgradient routes as active; the inactive side has
    exactly zero gradient.
    """
    a, p, n = _checked(a), _checked(p), _checked(n)
    d_ap, g_a_p, g_p = _cosine_distance_grad(a, p)
    d_an, g_a_n, g_n = _cosine_distance_grad(a, n)
    arg = d_ap - d_an + margin
    if arg < 0.0:
        zero = np.zeros_like(a)
        return TripletLossReport(0.0, zero, np.zeros_like(p), np.zeros_like(n))
    return TripletLossReport(
        value=float(arg),
        grad_anchor=g_a_p - g_a_n,
        grad_pos=g_p,
        grad_neg=-g_n,
    )


def _has_triplet(dist: np.ndarray, labels: np.ndarray) -> bool:
    """Whether some anchor sees >= 2 distinct distances among the other pixels.

    An anchor's label sees distance 0 only when it has a second pixel, and
    its (positive) distance to every other label present.
    """
    ids, counts = np.unique(labels, return_counts=True)
    k = ids.size
    if k < 2:
        return False
    off = dist[np.ix_(ids, ids)][~np.eye(k, dtype=bool)].reshape(k, k - 1)
    return bool(((counts > 1) | (off.min(axis=1) != off.max(axis=1))).any())


def sample_triplets(
    h: ClassHierarchy,
    batch_labels,
    count: int = DEFAULT_TRIPLET_COUNT,
    rng_seed: int = 0,
    margin_base: float = DEFAULT_MARGIN_BASE,
    max_tries: int = 1000,
) -> list[Triplet]:
    """Sample up to ``count`` valid triplets with replacement, anchor first.

    A candidate pair is ordered by tree distance to the anchor and rejected
    when the distances tie. Degenerate batches (no anchor admits two
    distinct distances) yield an empty list.
    """
    labels = np.asarray(batch_labels, dtype=np.int64)
    n = labels.size
    dist = h.dist
    if n < 3 or count <= 0 or not _has_triplet(dist, labels):
        return []

    rng = np.random.default_rng(rng_seed)
    out: list[Triplet] = []
    while len(out) < count:
        for _ in range(max_tries):
            a, i, j = rng.integers(0, n, size=3)
            if i == a or j == a or i == j:
                continue
            di = dist[labels[a], labels[i]]
            dj = dist[labels[a], labels[j]]
            if di == dj:
                continue
            if di > dj:
                i, j = j, i
            out.append(
                Triplet(
                    anchor=int(a),
                    pos=int(i),
                    neg=int(j),
                    anchor_leaf=int(labels[a]),
                    pos_leaf=int(labels[i]),
                    neg_leaf=int(labels[j]),
                    margin=triplet_margin(
                        h, int(labels[a]), int(labels[i]), int(labels[j]), margin_base
                    ),
                )
            )
            break
        else:
            break  # retry budget exhausted; return what we have
    return out


@dataclass
class ProjectionParams:
    """Two affine maps with a rectifier between them; training-time only."""

    w1: np.ndarray  # (in_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, out_dim)
    b2: np.ndarray  # (out_dim,)

    def check_input(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.w1.shape[0]:
            raise ValueError(
                f"embedding dim {x.shape[-1]} does not match projection input {self.w1.shape[0]}"
            )


def init_projection(
    in_dim: int, out_dim: int = 256, hidden: int | None = None, rng: np.random.Generator | None = None
) -> ProjectionParams:
    """He-style initialization; hidden width defaults to the input width."""
    rng = rng or np.random.default_rng(0)
    hidden = hidden or in_dim
    return ProjectionParams(
        w1=rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(in_dim, hidden)),
        b1=np.zeros(hidden),
        w2=rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, out_dim)),
        b2=np.zeros(out_dim),
    )


def project(x, params: ProjectionParams) -> np.ndarray:
    """Affine -> rectifier -> affine; accepts a vector or a batch."""
    x = np.asarray(x, dtype=np.float64)
    params.check_input(x)
    hidden = np.maximum(x @ params.w1 + params.b1, 0.0)
    return hidden @ params.w2 + params.b2


def project_backward(
    x, params: ProjectionParams, upstream: np.ndarray
) -> tuple[np.ndarray, ProjectionParams]:
    """Gradients of a scalar loss with respect to the input and parameters.

    ``upstream`` is d(loss)/d(output), same leading shape as ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    params.check_input(x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
        upstream = upstream[None, :]
    pre = x @ params.w1 + params.b1
    hidden = np.maximum(pre, 0.0)
    g_w2 = hidden.T @ upstream
    g_b2 = upstream.sum(axis=0)
    g_hidden = (upstream @ params.w2.T) * (pre > 0.0)
    g_w1 = x.T @ g_hidden
    g_b1 = g_hidden.sum(axis=0)
    g_x = g_hidden @ params.w1.T
    grads = ProjectionParams(w1=g_w1, b1=g_b1, w2=g_w2, b2=g_b2)
    return (g_x[0] if squeeze else g_x), grads
