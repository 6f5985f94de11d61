"""Hierarchy-aware multi-label pixel classification toolkit."""

from .coherence import (
    check_negative_constraint,
    check_positive_constraint,
    expand_labels,
    propagate,
    propagate_field,
    propagate_grad,
)
from .embedding import (
    ProjectionParams,
    Triplets,
    cosine_distance,
    project,
    sample_triplets,
    tree_triplet_loss,
    triplet_margin,
)
from .evaluation import (
    LevelScore,
    decode_field,
    decode_path,
    evaluate_all_levels,
)
from .fields import IGNORE, LabelField, ScoreField
from .losses import (
    FocalConfig,
    LossReport,
    bce_loss,
    cce_loss,
    field_loss,
    focal_loss,
    focal_tree_min_loss,
    tree_min_loss,
)
from .synthetic import SyntheticConfig, generate_synthetic
from .taxonomy import ClassHierarchy, TaxonomyError, load_taxonomy, parse_taxonomy
from .training import TrainConfig, TrainReport, beta_schedule, run_toy, train

__all__ = [
    "ClassHierarchy",
    "FocalConfig",
    "IGNORE",
    "LabelField",
    "LevelScore",
    "LossReport",
    "ProjectionParams",
    "ScoreField",
    "SyntheticConfig",
    "TaxonomyError",
    "TrainConfig",
    "TrainReport",
    "Triplets",
    "bce_loss",
    "beta_schedule",
    "cce_loss",
    "check_negative_constraint",
    "check_positive_constraint",
    "cosine_distance",
    "decode_field",
    "decode_path",
    "evaluate_all_levels",
    "expand_labels",
    "field_loss",
    "focal_loss",
    "focal_tree_min_loss",
    "generate_synthetic",
    "load_taxonomy",
    "parse_taxonomy",
    "project",
    "propagate",
    "propagate_field",
    "propagate_grad",
    "run_toy",
    "sample_triplets",
    "train",
    "tree_min_loss",
    "tree_triplet_loss",
    "triplet_margin",
]
