"""Merge-method dispatch: task arithmetic, TIES, and the DARE variants.

All four methods run one flow, one tensor at a time. The base and every
model are opened by their headers, and their names and shapes are checked
against each other before any tensor data is read. Then, for each tensor
name, that tensor of each input is read and checked finite (else
NonFiniteTensorError names the file and the tensor), turned into a task
vector and pruned at its plan's density (magnitude trim for
task-arithmetic and ties, random drop and rescale for the DARE methods),
the pruned deltas are combined and the result is snapped to the base's
dtype and checked finite.
Only the merged output is held whole. Task arithmetic and dare-linear add
the alpha-scaled deltas to the base in model order; ties and dare-ties
first elect a per-parameter sign by total magnitude across models and
average only the deltas that agree with it. Alphas are applied as a global
per-model scale before sign election, so the single-model full-density
merge is exactly the fine-tuned checkpoint.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import Checkpoint, CheckpointFile, exact_checkpoint
from .errors import RecipeError
from .importance import SparsityPlan, build_plan_uniform
from .pruning import apply_plan, mix_seed
from .roles import detect_naming_scheme, role_classifier
from .task_vectors import (
    MergeRecipe,
    check_task_vector_inputs,
    compute_task_vector,
    finalize_checkpoint,
    linear_combine,
)


def ties_combine(stack: np.ndarray) -> np.ndarray:
    """Elect-then-mean over a (models, ...) stack of deltas, per parameter position.

    The elected sign is positive when the positive entries' sum is at least
    the negative entries' total magnitude, else negative. The result is the
    mean of the entries with the elected sign (zeros never count), or 0
    where none has it.
    """
    pos = np.fmax(stack, 0.0).sum(axis=0)  # fmax/fmin drop NaN
    neg = np.fmin(stack, 0.0).sum(axis=0)
    agree = np.where(pos >= -neg, stack > 0, stack < 0)
    count = agree.sum(axis=0)
    total = np.where(agree, stack, 0.0).sum(axis=0)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def derive_model_ids(paths: Sequence[str]) -> list[str]:
    """One id per checkpoint path: its file stem, with `#index` appended to a repeated stem."""
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
    base = CheckpointFile(recipe.base_path, finite=True)
    model_ids = derive_model_ids(recipe.model_paths)
    if plans is None:
        plans = resolve_plans(recipe, model_ids)
    if len(plans) != len(recipe.model_paths):
        raise RecipeError(f"{len(recipe.model_paths)} models but {len(plans)} plans")
    models = [CheckpointFile(path, finite=True) for path in recipe.model_paths]
    for model, model_id in zip(models, model_ids):
        check_task_vector_inputs(base, model, model_id)

    roles = role_classifier(detect_naming_scheme(base.names()))
    g_mode = "magnitude" if recipe.method in ("task-arithmetic", "ties") else "random"
    seeds = [mix_seed(recipe.seed, f"model-{p}") for p in range(len(models))]

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

    def shard(ckpt, name: str) -> Checkpoint:
        return exact_checkpoint({name: ckpt[name]}, {name: ckpt.dtypes[name]})

    def combine(name: str) -> np.ndarray:
        # The whole-model functions, fed one-tensor checkpoints, under the names
        # perfbench's traced run wraps.
        base_t = shard(base, name)
        deltas = [
            apply_plan(
                compute_task_vector(base_t, shard(model, name), model_id),
                plan, g_mode, roles, seed=seed,
            )[name]
            for model, model_id, plan, seed in zip(models, model_ids, plans, seeds)
        ]
        if not elect:
            merged = linear_combine(base_t[name], deltas, recipe.alphas)
        else:
            stack = np.stack([float(a) * d for d, a in zip(deltas, recipe.alphas)])
            merged = base_t[name] + ties_combine(stack)
        return finalize_checkpoint({name: merged}, base, None)[name]

    return exact_checkpoint({name: combine(name) for name in base.names()}, base.dtypes, metadata)
