"""Merge-method dispatch: task arithmetic, TIES, and the DARE variants.

All four methods run one flow. The base is loaded once; then each model in
turn is loaded, turned into a task vector and pruned at its plan's
densities (magnitude trim for task-arithmetic and ties, random drop and
rescale for the DARE methods), and only the pruned vector is kept. One
per-tensor function then combines the pruned vectors, on LEWIS_THREADS
workers: task arithmetic and dare-linear add the alpha-scaled deltas to the
base in model order; ties and dare-ties first elect a per-parameter sign by
total magnitude across models and average only the deltas that agree with
it. Alphas are applied as a global per-model scale before sign election, so
the single-model full-density merge is exactly the fine-tuned checkpoint.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint
from .errors import RecipeError
from .importance import SparsityPlan, build_plan_uniform
from .pruning import apply_plan, mix_seed
from .roles import detect_naming_scheme, role_classifier
from .task_vectors import (
    MergeRecipe,
    compute_task_vector,
    finalize_checkpoint,
    linear_combine,
)


def elect_sign(values: Sequence[float]) -> int:
    """Sign of the side with greater total magnitude; ties go positive."""
    if len(values) == 0:
        raise ValueError("elect_sign needs at least one value")
    pos = sum(v for v in values if v > 0)
    neg = sum(-v for v in values if v < 0)
    return 1 if pos >= neg else -1


def disjoint_mean(values: Sequence[float], sign: int) -> float:
    """Mean of the values matching `sign` (zeros excluded); 0 if none match."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    agreeing = [v for v in values if v * sign > 0]
    if not agreeing:
        return 0.0
    return float(sum(agreeing) / len(agreeing))


def ties_combine(stack: np.ndarray) -> np.ndarray:
    """Vectorized elect-then-mean over a (models, ...) stack of deltas.

    Equivalent to elect_sign/disjoint_mean applied at every parameter
    position independently.
    """
    pos = np.where(stack > 0, stack, 0.0).sum(axis=0)
    neg = np.where(stack < 0, -stack, 0.0).sum(axis=0)
    sign = np.where(pos >= neg, 1.0, -1.0)
    agree = (stack * sign) > 0
    count = agree.sum(axis=0)
    total = np.where(agree, stack, 0.0).sum(axis=0)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def _worker_count() -> int:
    raw = os.environ.get("LEWIS_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_tensors(names: list[str], fn: Callable[[str], np.ndarray]) -> dict[str, np.ndarray]:
    """Apply fn per tensor, optionally in parallel; output order is canonical."""
    workers = _worker_count()
    if workers <= 1 or len(names) < 2:
        return {name: fn(name) for name in names}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(fn, names))
    return dict(zip(names, results))


def _model_ids(paths: Sequence[str]) -> list[str]:
    ids = []
    for p, path in enumerate(paths):
        stem = Path(path).stem or f"model-{p}"
        ids.append(stem if stem not in ids else f"{stem}#{p}")
    return ids


def resolve_plans(recipe: MergeRecipe, model_ids: Sequence[str]) -> list[SparsityPlan]:
    """Plans from the recipe's plan_refs: paths, a uniform density, or full density."""
    if isinstance(recipe.plan_refs, list):
        return [SparsityPlan.load(p) for p in recipe.plan_refs]
    density = 1.0 if recipe.plan_refs is None else float(recipe.plan_refs)
    return [build_plan_uniform(density, model_id) for model_id in model_ids]


def merge(recipe: MergeRecipe, plans: Sequence[SparsityPlan] | None = None) -> Checkpoint:
    """Run the full merge a recipe describes and return the merged checkpoint.

    Deterministic given (recipe, plans): the only randomness is the
    counter-based drop noise of the DARE methods, keyed by the recipe seed
    and per-model labels.
    """
    base = load_checkpoint(recipe.base_path)
    model_ids = _model_ids(recipe.model_paths)
    if plans is None:
        plans = resolve_plans(recipe, model_ids)
    if len(plans) != len(recipe.model_paths):
        raise RecipeError(f"{len(recipe.model_paths)} models but {len(plans)} plans")

    scheme = recipe.naming_scheme or detect_naming_scheme(base.names())
    roles = role_classifier(scheme)

    g_mode = "magnitude" if recipe.method in ("task-arithmetic", "ties") else "random"
    pruned = []
    for p, (path, model_id, plan) in enumerate(zip(recipe.model_paths, model_ids, plans)):
        # Whole-model prune on the main thread: perfbench's traced run wraps this apply_plan.
        pruned.append(apply_plan(
            compute_task_vector(base, load_checkpoint(path), model_id),
            plan, g_mode, roles, seed=mix_seed(recipe.seed, f"model-{p}"),
        ))

    metadata = {
        "merge.method": recipe.method,
        "merge.seed": str(recipe.seed),
        "merge.bounds": json.dumps(
            [None if p.bounds is None else [p.bounds.gamma, p.bounds.epsilon] for p in plans]
        ),
        "merge.models": ",".join(model_ids),
        "merge.alphas": json.dumps(list(recipe.alphas)),
    }
    for model_id, plan in zip(model_ids, plans):
        metadata[f"merge.plan_digest.{model_id}"] = plan.digest()

    elect = recipe.method in ("ties", "dare-ties")

    def combine(name: str) -> np.ndarray:
        deltas = [tv[name] for tv in pruned]
        if not elect:
            return linear_combine(base[name], deltas, recipe.alphas)
        stack = np.stack([float(a) * d for d, a in zip(deltas, recipe.alphas)])
        return base[name] + ties_combine(stack)

    return finalize_checkpoint(_map_tensors(base.names(), combine), base, metadata)
