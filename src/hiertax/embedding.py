"""Hierarchy-margin metric learning: cosine distance, tree-induced margins,
triplet loss with gradients, and valid-triplet sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .taxonomy import ClassHierarchy

DEFAULT_MARGIN_BASE = 0.1
DEFAULT_TRIPLET_COUNT = 200


@dataclass(frozen=True, eq=False)
class Triplets:
    """T sampled triplets: ``pixels`` is the (T, 3) int64 array of anchor,
    positive and negative pixel indices, ``margin`` their (T,) float64
    margins. Their leaf labels are ``labels[pixels]``."""

    pixels: np.ndarray
    margin: np.ndarray

    def __len__(self) -> int:
        return len(self.margin)


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
    """Hinge on cosine distances, max(d(a,p) - d(a,n) + margin, 0), for one
    triplet of vectors: the one-row call of ``batch_triplet_loss``."""
    value, g_a, g_p, g_n = batch_triplet_loss(
        np.asarray(a)[None], np.asarray(p)[None], np.asarray(n)[None], [margin]
    )
    return TripletLossReport(float(value[0]), g_a[0], g_p[0], g_n[0])


def sample_triplets(
    h: ClassHierarchy,
    batch_labels,
    count: int = DEFAULT_TRIPLET_COUNT,
    rng_seed: int = 0,
    margin_base: float = DEFAULT_MARGIN_BASE,
    max_tries: int = 1000,
) -> Triplets:
    """Sample up to ``count`` valid triplets with replacement, anchor first.

    Candidates are (anchor, i, j) draws of three pixel indices. A candidate
    is rejected when two indices coincide or when i and j are at the same
    tree distance from the anchor; otherwise the nearer one is the positive.
    Sampling stops after ``max_tries`` consecutive rejections, so a batch
    with no valid triplet (no anchor sees two distinct distances) ends by
    that rule with no triplets. Raises ``ValueError`` for labels that are
    not 1-D, and one naming the first label that is not a leaf of ``h``.
    """
    labels = np.asarray(batch_labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"expected a 1-D array of pixel labels, got shape {labels.shape}")
    h.leaf_positions(labels)
    n = labels.size
    dist = h.dist
    rng = np.random.default_rng(rng_seed)
    kept = [np.empty((0, 3), dtype=np.int64)]
    # fewer than three pixels admit no triplet
    need, misses = (count if n >= 3 else 0), 0
    while need > 0:
        # One (k, 3) draw returns exactly the values of k successive size-3
        # draws, so the candidates do not depend on the block size.
        cand = rng.integers(0, n, size=(4 * need + 16, 3))
        a, i, j = cand.T
        la = labels[a]
        hits = np.flatnonzero(
            (i != a) & (j != a) & (i != j) & (dist[la, labels[i]] != dist[la, labels[j]])
        )
        # rejections in a row before each hit, counting those carried over
        run = np.diff(hits, prepend=-1) - 1
        run[:1] += misses
        spent = np.flatnonzero(run >= max_tries)
        stop = spent.size > 0
        take = hits[: min(spent[0] if stop else hits.size, need)]
        kept.append(cand[take])
        need -= take.size
        misses = cand.shape[0] - 1 - hits[-1] if hits.size else misses + cand.shape[0]
        if stop or misses >= max_tries:
            break

    a, i, j = np.concatenate(kept).T
    la = labels[a]
    di, dj = dist[la, labels[i]], dist[la, labels[j]]
    swap = di > dj
    pixels = np.stack([a, np.where(swap, j, i), np.where(swap, i, j)], axis=1)
    # triplet_margin's arithmetic, on the whole batch
    margins = margin_base + 0.5 * (np.abs(di - dj) / (2.0 * h.height))
    return Triplets(pixels, margins)


def batch_triplet_loss(
    a: np.ndarray, p: np.ndarray, n: np.ndarray, margins: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hinge on cosine distances, max(d(a,p) - d(a,n) + margin, 0), for T
    triplets at once: rows of the (T, D) arrays ``a``, ``p``, ``n`` with
    their (T,) ``margins``.

    Returns the (T,) hinge values and the three (T, D) gradients. The
    boundary subgradient routes as active; inactive rows have exactly zero
    gradient. Raises ``ValueError`` for a zero or non-finite row norm, or
    one whose cube overflows float64.
    """
    a, p, n = (np.asarray(x, dtype=np.float64) for x in (a, p, n))
    (norm_a, cube_a), (norm_p, cube_p), (norm_n, cube_n) = (_checked_norms(x) for x in (a, p, n))
    d_ap, g_a_p, g_p = _batch_cosine_distance_grad(a, p, norm_a, norm_p, cube_a, cube_p)
    d_an, g_a_n, g_n = _batch_cosine_distance_grad(a, n, norm_a, norm_n, cube_a, cube_n)
    arg = d_ap - d_an + np.asarray(margins, dtype=np.float64)[:, None]
    active = ~(arg < 0.0)
    return (
        np.where(active, arg, 0.0)[:, 0],
        np.where(active, g_a_p - g_a_n, 0.0),
        np.where(active, g_p, 0.0),
        np.where(active, -g_n, 0.0),
    )


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(T, 1) dot products of matching rows. Stacked matmul runs one BLAS
    dot per row, as ``x[t] @ y[t]`` does; einsum and multiply-sum round
    differently."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0]


def _checked_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, 1) row norms and their cubes; raises as ``_checked`` does."""
    norm = np.sqrt(_row_dot(x, x))
    if not np.all(np.isfinite(norm) & (norm != 0.0)):
        raise ValueError("embedding must have finite nonzero norm")
    # ``np.float64 ** 3`` calls libm pow; the array power's SIMD pow can
    # differ from it in the last bit, so cube element by element.
    try:
        cube = np.array([v**3 for v in norm.ravel().tolist()]).reshape(norm.shape)
    except OverflowError:
        raise ValueError("embedding norm is too large to cube in float64") from None
    return norm, cube


def _batch_cosine_distance_grad(x, y, nx, ny, nx3, ny3):
    """Cosine distances of matching rows and their gradients with respect
    to both inputs, given the (T, 1) norms and cubes."""
    dot = _row_dot(x, y)
    d = 0.5 * (1.0 - dot / (nx * ny))
    gx = -0.5 * (y / (nx * ny) - dot * x / (nx3 * ny))
    gy = -0.5 * (x / (nx * ny) - dot * y / (nx * ny3))
    return d, gx, gy


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
