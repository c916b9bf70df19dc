"""Task-vector extraction and merged-parameter assembly.

A task vector is the elementwise parameter difference between a fine-tuned
checkpoint and its base; the merged model is the base plus an
alpha-weighted sum of (pruned) task vectors. Both operations are pure and
never mutate their inputs.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .checkpoint import Checkpoint, _write_atomic
from .errors import KeysetMismatchError, RecipeError, ShapeMismatchError, load_document
from .importance import _check_density, _is_real

MERGE_METHODS = ("task-arithmetic", "ties", "dare-linear", "dare-ties")


@dataclass
class TaskVector:
    """Per-tensor deltas sharing the base checkpoint's keyset."""

    deltas: dict[str, np.ndarray]
    source_model_id: str

    def __post_init__(self):
        self.deltas = {name: self.deltas[name] for name in sorted(self.deltas)}

    def names(self) -> list[str]:
        return list(self.deltas)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.deltas[name]


def _require_same_keys(left_names, right_names, what: str) -> None:
    left, right = set(left_names), set(right_names)
    missing, extra = sorted(left - right), sorted(right - left)
    if missing or extra:
        raise KeysetMismatchError(
            f"{what}: tensors only in first: {missing}; only in second: {extra}"
        )


def check_task_vector_inputs(base, finetuned, model_id: str) -> None:
    """Raise unless `finetuned` has `base`'s tensor names and shapes.

    Uses only names() and shapes(), so on opened checkpoint files it reads
    no tensor data.
    """
    what = f"task vector for {model_id!r}"
    _require_same_keys(base.names(), finetuned.names(), what)
    fine_shapes = finetuned.shapes()
    for name, shape in base.shapes().items():
        if shape != fine_shapes[name]:
            raise ShapeMismatchError(
                f"{what}: tensor {name!r}: base shape {list(shape)} "
                f"vs fine-tuned shape {list(fine_shapes[name])}"
            )


def compute_task_vector(base: Checkpoint, finetuned: Checkpoint, model_id: str) -> TaskVector:
    """delta[t] = finetuned[t] - base[t] for every tensor t."""
    check_task_vector_inputs(base, finetuned, model_id)
    deltas = {name: finetuned[name] - base[name] for name in base.names()}
    return TaskVector(deltas=deltas, source_model_id=model_id)


def assemble_merged(
    base: Checkpoint,
    pruned_deltas: Sequence[TaskVector],
    alphas: Sequence[float],
    metadata: Mapping[str, str] | None = None,
) -> Checkpoint:
    """merged[t] = base[t] + sum_p alpha_p * delta_p[t]."""
    if len(pruned_deltas) != len(alphas):
        raise RecipeError(f"{len(pruned_deltas)} task vectors but {len(alphas)} alphas")
    for tv in pruned_deltas:
        _require_same_keys(base.names(), tv.names(), f"merge with {tv.source_model_id!r}")
        for name in base.names():
            if tv[name].shape != base[name].shape:
                raise ShapeMismatchError(
                    f"tensor {name!r}: base shape {list(base[name].shape)} "
                    f"vs delta shape {list(tv[name].shape)}"
                )
    merged = {
        name: linear_combine(base[name], [tv[name] for tv in pruned_deltas], alphas)
        for name in base.names()
    }
    return finalize_checkpoint(merged, base, metadata)


def linear_combine(
    base: np.ndarray, deltas: Sequence[np.ndarray], alphas: Sequence[float]
) -> np.ndarray:
    """One tensor of a linear merge: base + sum_p alpha_p * delta_p, summed in model order."""
    acc = base.copy()
    for delta, alpha in zip(deltas, alphas):
        acc += float(alpha) * delta
    return acc


def finalize_checkpoint(
    tensors: dict[str, np.ndarray], base: Checkpoint, metadata: Mapping[str, str] | None
) -> Checkpoint:
    """Build the output checkpoint and reject non-finite results.

    Finiteness is checked after values are snapped to the base's stored
    dtypes, so overflow introduced by the narrowing itself is caught too.
    `lewis.merge` calls it once per merged tensor, as each is combined;
    `base` only lends its dtypes.
    """
    out = Checkpoint(tensors, dict(base.dtypes), metadata)
    for name, arr in out.tensors.items():
        if not np.all(np.isfinite(arr)):
            raise RecipeError(f"merged tensor {name!r} contains non-finite values")
    return out


def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass
class MergeRecipe:
    """Everything a merge run needs: inputs, weights, method, plans, seed.

    `plan_refs` is either a list of sparsity-plan paths (one per model) or
    a single uniform density; None means full density. Relative paths in a
    recipe file resolve against the file's directory.
    """

    base_path: str
    model_paths: list[str]
    alphas: list[float] = field(default_factory=list)
    method: str = "ties"
    plan_refs: list[str] | float | None = None
    seed: int = 0

    def __post_init__(self):
        if not _is_str_list(self.model_paths):
            raise RecipeError(f"model_paths must be a list of paths, got {self.model_paths!r}")
        if not self.model_paths:
            raise RecipeError("recipe needs at least one model")
        if not isinstance(self.alphas, list) or not all(map(_is_real, self.alphas)):
            raise RecipeError(f"alphas must be a list of numbers, got {self.alphas!r}")
        if not self.alphas:
            self.alphas = [1.0] * len(self.model_paths)
        if len(self.alphas) != len(self.model_paths):
            raise RecipeError(
                f"{len(self.model_paths)} models but {len(self.alphas)} alphas"
            )
        try:
            self.alphas = [float(a) for a in self.alphas]
        except OverflowError as exc:  # an int beyond the float range
            raise RecipeError(f"alphas must be finite: {exc}") from exc
        if any(not math.isfinite(a) for a in self.alphas):
            raise RecipeError(f"alphas must be finite, got {self.alphas}")
        if self.method not in MERGE_METHODS:
            raise RecipeError(f"unknown method {self.method!r}; known: {list(MERGE_METHODS)}")
        refs = self.plan_refs
        if _is_str_list(refs):
            if len(refs) != len(self.model_paths):
                raise RecipeError(f"{len(self.model_paths)} models but {len(refs)} plan refs")
        elif _is_real(refs):
            _check_density(refs, "uniform plan density", RecipeError)
        elif refs is not None:
            raise RecipeError(f"plan_refs must be null, a density or a list of plan paths, got {refs!r}")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise RecipeError(f"seed must be an int, got {self.seed!r}")
        self.seed = int(self.seed)

    @classmethod
    def load(cls, path: str | Path) -> "MergeRecipe":
        root = Path(path).parent  # an absolute path joined onto root stays as it is

        def rooted(paths):  # anything but a list of paths is left for __post_init__ to reject
            return [str(root / p) for p in paths] if _is_str_list(paths) else paths

        def build(doc: dict) -> "MergeRecipe":
            known = [f.name for f in fields(cls)]
            unknown = sorted(doc.keys() - set(known))
            if unknown:
                raise RecipeError(f"unknown fields {unknown}; known: {known}")
            return cls(
                base_path=str(root / doc["base_path"]),
                model_paths=rooted(doc["model_paths"]),
                alphas=doc.get("alphas", []),
                method=doc.get("method", "ties"),
                plan_refs=rooted(doc.get("plan_refs")),
                seed=doc.get("seed", 0),
            )

        return load_document(path, build, RecipeError)

    def save(self, path: str | Path) -> None:
        doc = {
            "base_path": self.base_path,
            "model_paths": self.model_paths,
            "alphas": self.alphas,
            "method": self.method,
            "plan_refs": self.plan_refs,
            "seed": self.seed,
        }
        _write_atomic(path, [json.dumps(doc, indent=1, sort_keys=True).encode()])
