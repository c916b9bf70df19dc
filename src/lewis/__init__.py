"""Activation-guided layer-wise task-vector sparsity for model merging.

Pipeline: capture per-block activation norms on a calibration set, score
each block by how far a fine-tune's norms deviate from the base model's,
turn the scores into per-block keep-densities, prune each task vector at
those densities, and combine with task arithmetic, TIES, or DARE.
"""

__version__ = "0.1.0"

from .checkpoint import (
    Checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .errors import (
    ArchError,
    CalibrationError,
    CheckpointError,
    DataOffsetError,
    HeaderLengthError,
    HeaderParseError,
    InvalidTensorError,
    KeysetMismatchError,
    MergeError,
    NonFiniteTensorError,
    PlanError,
    ProfileMismatchError,
    RecipeError,
    ShapeMismatchError,
    UnknownDtypeError,
)
from .importance import (
    ActivationProfile,
    SparsityBounds,
    SparsityPlan,
    build_plan_layer_type,
    build_plan_lewis,
    build_plan_topk,
    build_plan_uniform,
    importance_deltas,
    normalize_and_clip,
)
from .merge_methods import merge, ties_combine
from .pruning import apply_plan, magnitude_trim, random_drop_rescale
from .roles import TensorRole, detect_naming_scheme, role_classifier
from .runtime import (
    ArchConfig,
    CalibrationSet,
    activation_norm,
    eval_loss,
    forward_capture,
    forward_logits,
    profile_model,
    random_checkpoint,
    tokenize,
    zero_checkpoint,
)
from .task_vectors import MergeRecipe, TaskVector, assemble_merged, compute_task_vector

__all__ = [
    "ActivationProfile",
    "ArchConfig",
    "ArchError",
    "CalibrationError",
    "CalibrationSet",
    "Checkpoint",
    "CheckpointError",
    "DataOffsetError",
    "HeaderLengthError",
    "HeaderParseError",
    "InvalidTensorError",
    "KeysetMismatchError",
    "MergeError",
    "MergeRecipe",
    "NonFiniteTensorError",
    "PlanError",
    "ProfileMismatchError",
    "RecipeError",
    "ShapeMismatchError",
    "SparsityBounds",
    "SparsityPlan",
    "TaskVector",
    "TensorRole",
    "UnknownDtypeError",
    "activation_norm",
    "apply_plan",
    "assemble_merged",
    "build_plan_layer_type",
    "build_plan_lewis",
    "build_plan_topk",
    "build_plan_uniform",
    "compute_task_vector",
    "detect_naming_scheme",
    "eval_loss",
    "forward_capture",
    "forward_logits",
    "importance_deltas",
    "magnitude_trim",
    "merge",
    "normalize_and_clip",
    "profile_model",
    "random_checkpoint",
    "random_drop_rescale",
    "read_checkpoint",
    "role_classifier",
    "ties_combine",
    "tokenize",
    "write_checkpoint",
    "zero_checkpoint",
]
