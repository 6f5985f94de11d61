"""Toy trainable scorer and the combined-objective training loop.

The scorer is a single affine map from pixel features to per-node logits;
sigmoid gives the hierarchy score vector (softmax over leaf logits for the
flat baseline). Training is plain full-batch SGD with momentum and weight
decay, optionally adding the cosine-annealed triplet term, and is fully
deterministic for a fixed seed.

``train`` and ``run_toy`` hold OpenBLAS's thread pool at one thread while
they run, so the bits of every reduction over pixels that BLAS computes do
not depend on the pool's size. Each step, ``train``'s
``coherence.block_workers`` run the whole step on fixed row blocks, one
block per call, for every loss: ``x @ W`` plus the bias, ``losses.cce_rows``
or the sigmoid, ``losses.block_loss`` and the chain rule, and the block's
own shares of the weight and bias gradients. The blocks read the scorer in
place: its weight and bias live on ``coherence.shared_zeros`` memory, and
the SGD step updates them in place between rounds. The caller makes no
product over all rows; it sums the blocks' shares in block order, so every
output bit depends on the tree and the row count, not on the worker count.
With ``use_triplet``, the caller runs the projection head's step first in
each round, while workers that have finished their own ranges take row
blocks from the back of the caller's. A head whose embeddings overflow
float64 ends the run with ``TrainingDivergedError``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .coherence import block_workers, coherence_violation_rate, row_blocks, shared_zeros
from .embedding import (
    DEFAULT_MARGIN_BASE,
    DEFAULT_TRIPLET_COUNT,
    ProjectionParams,
    batch_triplet_loss,
    init_projection,
    project,
    project_backward,
    sample_triplets,
)
from .evaluation import LevelScore, decode_batch, evaluate_prediction_levels
from .fields import LabelField
from .losses import LOSSES, FocalConfig, block_loss, cce_rows
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
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.triplet_count < 0:
            raise ValueError(f"triplet_count must be >= 0, got {self.triplet_count}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("momentum", "weight_decay", "gamma", "margin_base", "beta_max"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.proj_dim < 1:
            raise ValueError(f"proj_dim must be >= 1, got {self.proj_dim}")

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


@dataclass
class TrainReport:
    losses: list[float]
    betas: list[float]
    triplet_losses: list[float]
    level_miou: list[LevelScore]
    violation_rate: float
    config: TrainConfig
    scorer: ToyScorer


def _sgd_step(params, vel: dict, grads: dict[str, np.ndarray], cfg: TrainConfig) -> None:
    """Momentum SGD with weight decay on the named arrays of ``params``,
    in place: ``v = m*v + (g + wd*p); p -= lr*v``, each velocity starting
    at 0."""
    for name, g in grads.items():
        p = getattr(params, name)
        vel[name] = v = cfg.momentum * vel.get(name, 0.0) + (g + cfg.weight_decay * p)
        p -= cfg.lr * v


@functools.cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set thread-count functions of the OpenBLAS that numpy
    loaded from its ``numpy.libs``, or None when there is no such library."""
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Hold OpenBLAS's pool at one thread, and restore its count on exit.

    Yields whether the pool was found. Without it, nothing is held, and the
    bits of BLAS reductions may depend on the pool's size.
    """
    pool = _blas_threads()
    if pool is None:
        yield False
        return
    get, put = pool
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def train(
    features: np.ndarray,
    labels: LabelField,
    h: ClassHierarchy,
    cfg: TrainConfig,
    heldout: tuple[np.ndarray, LabelField] | None = None,
) -> TrainReport:
    """Full-batch SGD on the toy scorer; see module docstring.

    The labels are checked once, before the first step. With OpenBLAS's
    pool held at one thread, the step runs on ``min(usable CPUs, row
    blocks)`` workers, forked once per run, for every loss; otherwise, and
    inside a worker, in the caller. Each of the ``row_blocks(h, n)`` blocks
    is one ``rows_step`` call, which reads the scorer's shared weight and
    bias in place and writes its shares of the weight and bias gradients
    into slots allocated once per run: blocks x c x |V| x 8 bytes, e.g.
    21.6 KB for 16k pixels, 16 features and 13 nodes, or 16.5 MB for
    12,400 pixels, 128 features and 145 nodes. A non-finite segmentation or
    triplet loss raises ``TrainingDivergedError`` naming its step.
    """
    x = np.asarray(features, dtype=np.float64).reshape(-1, features.shape[-1])
    leaf_ids = labels.leaf.reshape(-1).astype(np.int64)
    h.leaf_positions(leaf_ids)  # every label a leaf, before any step
    n, c = x.shape
    if leaf_ids.size != n:
        raise ValueError(f"expected {n} labels, one per feature row, got {leaf_ids.size}")
    rng = np.random.default_rng(cfg.seed)
    # On shared memory and updated in place, so the workers read the live scorer.
    scorer = ToyScorer(shared_zeros((c, len(h)), np.float64), shared_zeros((len(h),), np.float64))
    scorer.weight[:] = rng.normal(0.0, 0.01, size=(c, len(h)))
    scorer_vel: dict[str, np.ndarray] = {}
    focal = FocalConfig(gamma=cfg.gamma)

    proj = None
    proj_vel: dict[str, np.ndarray] = {}
    if cfg.use_triplet and cfg.triplet_count > 0:
        proj = init_projection(c, out_dim=cfg.proj_dim, rng=rng)

    losses: list[float] = []
    betas: list[float] = []
    triplet_losses: list[float] = []

    # The step's logits, per-row loss values and logit gradient, and each
    # row block's own slot of the weight and bias gradients, on memory the
    # workers share. A block writes only its own rows and slots.
    blocks = list(enumerate(row_blocks(h, n)))
    logits = shared_zeros((n, len(h)), np.float64)
    row_values = shared_zeros((n,), np.float64)
    row_grads = shared_zeros((n, len(h)), np.float64)
    weight_parts = shared_zeros((len(blocks), c, len(h)), np.float64)
    bias_parts = shared_zeros((len(blocks), len(h)), np.float64)

    def rows_step(block: tuple[int, slice]) -> None:
        # The labels were checked before the first step.
        i, rows = block
        z = np.matmul(x[rows], scorer.weight, out=logits[rows])
        z += scorer.bias
        if cfg.loss == "cce":
            row_values[rows] = cce_rows(h, z, h.leaf_index[leaf_ids[rows]], n, row_grads[rows])
        else:
            s = 1.0 / (1.0 + np.exp(-z))
            pos = h.ancestor_mask[leaf_ids[rows]]
            row_values[rows], dvds = block_loss(h, s, pos, cfg.loss, focal)
            np.multiply((dvds / n) * s, 1.0 - s, out=row_grads[rows])
        np.matmul(x[rows].T, row_grads[rows], out=weight_parts[i])
        np.sum(row_grads[rows], axis=0, out=bias_parts[i])

    beta = tt_value = 0.0

    def triplet_step() -> None:
        # Reads neither the logits nor the loss gradient, and only the
        # caller draws from rng, so it runs while the workers take rows.
        nonlocal tt_value
        tt_value = _triplet_step(h, x, leaf_ids, cfg, proj, proj_vel, beta, rng)

    first = triplet_step if proj is not None else None
    with _one_blas_thread() as held:
        # One row block per worker is enough. On a 2-core VM a step's round
        # trip to a worker took 4-27 us, and fork plus reap of a 60 MB
        # process 1.7 ms once per run, against about 1 ms for one block's
        # sigmoid, block_loss(ftm) and chain rule on the 13-node tree (1260
        # rows) or on Mapillary (112 rows). Asking for more blocks per
        # worker than there are blocks, as one block does, forks no worker.
        with block_workers(blocks, rows_step, 1 if held else len(blocks) + 1) as step_rows:
            for step in range(cfg.iterations):
                beta = cfg.beta(step) if proj is not None else 0.0
                try:
                    step_rows(first)
                except Exception:
                    # The tree-min kernels raise ValueError on a NaN score. Blocks
                    # that never ran hold the last step's logits, so recompute.
                    if np.isnan(scorer.logits(x)).any():  # the scorer diverged
                        raise TrainingDivergedError(
                            f"non-finite segmentation loss at step {step}"
                        ) from None
                    raise
                value = float(row_values.mean())
                if not np.isfinite(value):
                    raise TrainingDivergedError(f"non-finite segmentation loss at step {step}")
                if not np.isfinite(tt_value):
                    raise TrainingDivergedError(f"non-finite triplet loss at step {step}")

                # Each slot array summed over axis 0, block after block (numpy
                # adds pairwise only when a slot holds one element).
                grads = {"weight": weight_parts.sum(axis=0), "bias": bias_parts.sum(axis=0)}
                _sgd_step(scorer, scorer_vel, grads, cfg)

                losses.append(value + beta * tt_value)
                betas.append(beta)
                triplet_losses.append(tt_value)

        eval_x, eval_labels = heldout if heldout is not None else (features, labels)
        flat_eval = np.asarray(eval_x, dtype=np.float64).reshape(-1, c)
        eval_logits = scorer.logits(flat_eval)
        s_eval = 1.0 / (1.0 + np.exp(-eval_logits))
        if cfg.loss == "cce":
            leaves = np.array(h.leaves, dtype=np.int64)
            pred_flat = leaves[eval_logits[:, leaves].argmax(axis=1)]
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
    """One SGD step on the projection head; returns the mean hinge value,
    or NaN, with no step, once the head's embeddings overflow.

    Degenerate batches yield no triplets and reduce the step to the
    segmentation term alone.
    """
    step_seed = int(rng.integers(0, 2**63 - 1))
    triplets = sample_triplets(
        h, leaf_ids, count=cfg.triplet_count, rng_seed=step_seed, margin_base=cfg.margin_base
    )
    if not triplets:
        return 0.0
    flat_idx = triplets.pixels.reshape(-1)
    z = project(x[flat_idx], proj).reshape(len(triplets), 3, -1)
    # the rectifier can zero an embedding outright; cosine distance is
    # undefined there, so such triplets contribute nothing
    used = z.any(axis=2).all(axis=1)
    if not used.any():
        return 0.0
    try:
        values, g_a, g_p, g_n = batch_triplet_loss(
            z[used, 0], z[used, 1], z[used, 2], triplets.margin[used]
        )
    except ValueError:
        # Every row passed in is nonzero, so a norm or its cube overflowed:
        # the head diverged, and train reports the loss as non-finite.
        return math.nan
    total = 0.0
    for v in values.tolist():  # in order, as a running sum
        total += v
    count = values.size
    upstream = np.zeros_like(z)
    upstream[used, 0], upstream[used, 1], upstream[used, 2] = g_a, g_p, g_n
    _, grads = project_backward(
        x[flat_idx], proj, upstream.reshape(len(flat_idx), -1) * (beta / count)
    )
    _sgd_step(proj, proj_vel, vars(grads), cfg)
    return float(total / count)


def run_toy(
    syn_cfg: SyntheticConfig, train_cfg: TrainConfig, h: ClassHierarchy | None = None
) -> TrainReport:
    """Generate train and held-out splits, train, and evaluate, with
    OpenBLAS's pool held at one thread throughout.

    The held-out split is a fresh synthetic draw with a derived seed.
    """
    with _one_blas_thread():  # generation calls BLAS too
        features, labels, h = generate_synthetic(syn_cfg, h)
        held_cfg = replace(syn_cfg, seed=syn_cfg.seed + HELDOUT_SEED_OFFSET)
        held_features, held_labels, _ = generate_synthetic(held_cfg, h)
        return train(features, labels, h, train_cfg, heldout=(held_features, held_labels))
