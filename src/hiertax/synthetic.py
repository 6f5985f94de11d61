"""Synthetic Gaussian-cluster pixel data whose class geometry mirrors the
taxonomy: leaves that are close in the tree get close cluster centers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import LabelField
from .taxonomy import ClassHierarchy, load_taxonomy


@dataclass
class SyntheticConfig:
    taxonomy_path: str | None = None
    feature_dim: int = 16
    pixels_per_class: int = 250
    center_scale: float = 3.0
    noise_sigma: float = 1.0
    height: int | None = None  # default: one row per leaf class
    width: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.pixels_per_class < 1:
            raise ValueError(f"pixels_per_class must be >= 1, got {self.pixels_per_class}")
        if not 0 < self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and > 0, got {self.noise_sigma}")
        if not math.isfinite(self.center_scale):
            raise ValueError(f"center_scale must be finite, got {self.center_scale}")


def leaf_centers(h: ClassHierarchy, dim: int, scale: float = 1.0) -> np.ndarray:
    """Cluster centers with pairwise distances sqrt(tree distance) * scale.

    Tree metrics are of negative type, so sqrt(dist) embeds isometrically
    in Euclidean space; classical MDS recovers the embedding exactly, which
    makes center distance a strictly monotone function of tree distance.
    """
    leaves = list(h.leaves)
    k = len(leaves)
    if dim < k:
        raise ValueError(f"feature_dim {dim} must be >= number of leaves {k}")
    d2 = h.dist[np.ix_(leaves, leaves)].astype(np.float64)  # squared sqrt-distances
    j = np.eye(k) - np.full((k, k), 1.0 / k)
    gram = -0.5 * j @ d2 @ j
    eigval, eigvec = np.linalg.eigh(gram)
    eigval = np.clip(eigval, 0.0, None)
    coords = eigvec * np.sqrt(eigval)
    centers = np.zeros((k, dim))
    centers[:, :k] = coords * scale
    return centers


def generate_synthetic(
    cfg: SyntheticConfig, h: ClassHierarchy | None = None
) -> tuple[np.ndarray, LabelField, ClassHierarchy]:
    """Deterministic (features, labels, hierarchy) draw for a config."""
    if h is None:
        if cfg.taxonomy_path is None:
            raise ValueError("either a hierarchy or a taxonomy path is required")
        h = load_taxonomy(cfg.taxonomy_path)
    leaves = np.array(h.leaves, dtype=np.int64)
    k = leaves.size
    total = k * cfg.pixels_per_class
    height = cfg.height if cfg.height is not None else k
    width = cfg.width if cfg.width is not None else cfg.pixels_per_class
    if height * width != total:
        raise ValueError(
            f"grid {height}x{width} does not hold {k} classes x {cfg.pixels_per_class} pixels"
        )
    rng = np.random.default_rng(cfg.seed)
    flat = np.repeat(leaves, cfg.pixels_per_class)
    flat = flat[rng.permutation(total)]
    centers = leaf_centers(h, cfg.feature_dim, cfg.center_scale)
    center_of = np.zeros((len(h), cfg.feature_dim))
    center_of[leaves] = centers
    features = center_of[flat] + rng.normal(0.0, cfg.noise_sigma, size=(total, cfg.feature_dim))
    labels = LabelField(leaf=flat.astype(np.uint32).reshape(height, width))
    return features.reshape(height, width, cfg.feature_dim), labels, h
