"""Toy trainable scorer and the combined-objective training loop.

The scorer is a single affine map from pixel features to per-node logits;
sigmoid gives the hierarchy score vector (softmax over leaf logits for the
flat baseline). Training is plain full-batch SGD with momentum and weight
decay, optionally adding the cosine-annealed triplet term, and is fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coherence import row_blocks, tree_extrema
from .embedding import (
    DEFAULT_MARGIN_BASE,
    DEFAULT_TRIPLET_COUNT,
    ProjectionParams,
    init_projection,
    project,
    project_backward,
    sample_triplets,
    tree_triplet_loss,
)
from .evaluation import LevelScore, decode_batch, evaluate_prediction_levels
from .fields import LabelField
from .losses import LOSSES, FocalConfig, batch_loss
from .synthetic import SyntheticConfig, generate_synthetic
from .taxonomy import ClassHierarchy

HELDOUT_SEED_OFFSET = 1_000_003


class TrainingDivergedError(RuntimeError):
    """Non-finite loss encountered during optimization."""


def beta_schedule(step: int, total: int, beta_max: float = 0.5) -> float:
    """Cosine ramp from 0 at step 0 to beta_max at the final step."""
    if step > total:
        raise ValueError(f"step {step} exceeds total {total}")
    if total <= 0:
        return beta_max
    return beta_max * (1.0 - math.cos(math.pi * step / total)) / 2.0


@dataclass
class TrainConfig:
    iterations: int = 150
    lr: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    gamma: float = 2.0
    margin_base: float = DEFAULT_MARGIN_BASE
    triplet_count: int = DEFAULT_TRIPLET_COUNT
    beta_max: float = 0.5
    beta_kind: str = "cosine"  # or "constant"
    loss: str = "ftm"          # cce | bce | focal | tm | ftm
    use_triplet: bool = False
    proj_dim: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.beta_kind not in ("cosine", "constant"):
            raise ValueError(f"unknown beta schedule {self.beta_kind!r}")

    def beta(self, step: int) -> float:
        if self.beta_kind == "constant":
            return self.beta_max
        return beta_schedule(step, self.iterations, self.beta_max)


@dataclass
class ToyScorer:
    weight: np.ndarray  # (feature_dim, |V|)
    bias: np.ndarray    # (|V|,)

    def logits(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight + self.bias

    def scores(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.logits(x)))


@dataclass
class TrainReport:
    losses: list[float]
    betas: list[float]
    triplet_losses: list[float]
    level_miou: list[LevelScore]
    violation_rate: float
    config: TrainConfig
    scorer: ToyScorer


def coherence_violation_rate(
    h: ClassHierarchy, s: np.ndarray, threshold: float = 0.5
) -> float:
    """Fraction of score rows with at least one hierarchy-constraint violation.

    A node above the threshold violates when some ancestor scores lower; a
    node at or below it, when some descendant scores higher.
    """
    s = np.asarray(s, dtype=np.float64)
    viol = np.zeros(s.shape[0], dtype=bool)
    for rows in row_blocks(h, s.shape[0]):
        amin, dmax = tree_extrema(h, s[rows])
        st = s[rows].T
        above = st > threshold
        viol[rows] = ((above & (amin < st)) | (~above & (dmax > st))).any(axis=0)
    return float(viol.mean()) if s.shape[0] else 0.0


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cce_step(logits: np.ndarray, leaves: np.ndarray, targets: np.ndarray, eps: float):
    """Softmax cross-entropy over the leaf logits; ``targets`` index ``leaves``."""
    y = _softmax(logits[:, leaves])
    n = logits.shape[0]
    value = float(-np.log(np.clip(y[np.arange(n), targets], eps, None)).mean())
    y[np.arange(n), targets] -= 1.0
    grad = np.zeros_like(logits)
    grad[:, leaves] = y / n
    return value, grad


def _sgd_step(params, vel: dict, grads: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    """Momentum SGD with weight decay on the named arrays of ``params``:
    ``v = m*v + (g + wd*p); p = p - lr*v``, each velocity starting at 0."""
    for name, g in grads.items():
        v = cfg.momentum * vel.get(name, 0.0) + (g + cfg.weight_decay * getattr(params, name))
        vel[name] = v
        setattr(params, name, getattr(params, name) - cfg.lr * v)


def train(
    features: np.ndarray,
    labels: LabelField,
    h: ClassHierarchy,
    cfg: TrainConfig,
    heldout: tuple[np.ndarray, LabelField] | None = None,
) -> TrainReport:
    """Full-batch SGD on the toy scorer; see module docstring."""
    x = np.asarray(features, dtype=np.float64).reshape(-1, features.shape[-1])
    leaf_ids = labels.leaf.reshape(-1).astype(np.int64)
    n, c = x.shape
    rng = np.random.default_rng(cfg.seed)
    scorer = ToyScorer(
        weight=rng.normal(0.0, 0.01, size=(c, len(h))),
        bias=np.zeros(len(h)),
    )
    scorer_vel: dict[str, np.ndarray] = {}
    focal = FocalConfig(gamma=cfg.gamma)
    leaves = np.array(h.leaves, dtype=np.int64)
    if cfg.loss == "cce":
        targets = h.leaf_index[leaf_ids]
        if (targets < 0).any():
            raise ValueError("labels must be leaf node ids")

    proj = None
    proj_vel: dict[str, np.ndarray] = {}
    if cfg.use_triplet and cfg.triplet_count > 0:
        proj = init_projection(c, out_dim=cfg.proj_dim, rng=rng)

    losses: list[float] = []
    betas: list[float] = []
    triplet_losses: list[float] = []

    for step in range(cfg.iterations):
        logits = scorer.logits(x)
        if cfg.loss == "cce":
            value, dlogits = _cce_step(logits, leaves, targets, focal.epsilon)
        else:
            s = 1.0 / (1.0 + np.exp(-logits))
            values, dvds = batch_loss(h, s, leaf_ids, cfg.loss, focal)
            value = float(values.mean())
            dlogits = (dvds / n) * s * (1.0 - s)
        if not np.isfinite(value):
            raise TrainingDivergedError(f"non-finite segmentation loss at step {step}")

        beta = cfg.beta(step) if proj is not None else 0.0
        tt_value = 0.0
        if proj is not None:
            tt_value = _triplet_step(h, x, leaf_ids, cfg, proj, proj_vel, beta, rng)
            if not np.isfinite(tt_value):
                raise TrainingDivergedError(f"non-finite triplet loss at step {step}")

        _sgd_step(scorer, scorer_vel, {"weight": x.T @ dlogits, "bias": dlogits.sum(axis=0)}, cfg)

        losses.append(value + beta * tt_value)
        betas.append(beta)
        triplet_losses.append(tt_value)

    eval_x, eval_labels = heldout if heldout is not None else (features, labels)
    flat_eval = np.asarray(eval_x, dtype=np.float64).reshape(-1, c)
    logits = scorer.logits(flat_eval)
    s_eval = 1.0 / (1.0 + np.exp(-logits))
    if cfg.loss == "cce":
        pred_flat = leaves[logits[:, leaves].argmax(axis=1)]
    else:
        pred_flat = decode_batch(h, s_eval)
    shape = eval_labels.leaf.shape
    pred = LabelField(leaf=pred_flat.astype(np.uint32).reshape(shape))
    level_miou = evaluate_prediction_levels(h, pred, eval_labels)
    violation = coherence_violation_rate(h, s_eval)

    return TrainReport(
        losses=losses,
        betas=betas,
        triplet_losses=triplet_losses,
        level_miou=level_miou,
        violation_rate=violation,
        config=cfg,
        scorer=scorer,
    )


def _triplet_step(
    h: ClassHierarchy,
    x: np.ndarray,
    leaf_ids: np.ndarray,
    cfg: TrainConfig,
    proj: ProjectionParams,
    proj_vel: dict[str, np.ndarray],
    beta: float,
    rng: np.random.Generator,
) -> float:
    """One SGD step on the projection head; returns the mean hinge value.

    Degenerate batches yield no triplets and reduce the step to the
    segmentation term alone.
    """
    step_seed = int(rng.integers(0, 2**63 - 1))
    triplets = sample_triplets(
        h, leaf_ids, count=cfg.triplet_count, rng_seed=step_seed, margin_base=cfg.margin_base
    )
    if not triplets:
        return 0.0
    idx = np.array([[t.anchor, t.pos, t.neg] for t in triplets], dtype=np.int64)
    flat_idx = idx.reshape(-1)
    z = project(x[flat_idx], proj).reshape(len(triplets), 3, -1)
    upstream = np.zeros_like(z)
    total = 0.0
    used = 0
    for i, t in enumerate(triplets):
        # the rectifier can zero an embedding outright; cosine distance is
        # undefined there, so such triplets contribute nothing
        if not (z[i, 0].any() and z[i, 1].any() and z[i, 2].any()):
            continue
        rep = tree_triplet_loss(z[i, 0], z[i, 1], z[i, 2], t.margin)
        total += rep.value
        upstream[i, 0] = rep.grad_anchor
        upstream[i, 1] = rep.grad_pos
        upstream[i, 2] = rep.grad_neg
        used += 1
    if used == 0:
        return 0.0
    mean_value = total / used
    scale = beta / used
    _, grads = project_backward(x[flat_idx], proj, upstream.reshape(len(flat_idx), -1) * scale)
    _sgd_step(proj, proj_vel, vars(grads), cfg)
    return float(mean_value)


def run_toy(
    syn_cfg: SyntheticConfig, train_cfg: TrainConfig, h: ClassHierarchy | None = None
) -> TrainReport:
    """Generate train and held-out splits, train, and evaluate.

    The held-out split is a fresh synthetic draw with a derived seed.
    """
    features, labels, h = generate_synthetic(syn_cfg, h)
    held_cfg = replace(syn_cfg, seed=syn_cfg.seed + HELDOUT_SEED_OFFSET)
    held_features, held_labels, _ = generate_synthetic(held_cfg, h)
    return train(features, labels, h, train_cfg, heldout=(held_features, held_labels))
