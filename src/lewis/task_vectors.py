"""Task-vector extraction and merged-parameter assembly.

A task vector is the elementwise parameter difference between a fine-tuned
checkpoint and its base; the merged model is the base plus an
alpha-weighted sum of (pruned) task vectors. Both operations are pure and
never mutate their inputs, unless the caller names an input as `out`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .buffers import all_finite, copied, empty, frame
from .checkpoint import Checkpoint, _is_int
from .documents import Document
from .errors import KeysetMismatchError, MergeError, RecipeError, ShapeMismatchError
from .importance import _check_density, _float, _is_finite_real, _is_real

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

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: delta.shape for name, delta in self.deltas.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.deltas[name]


def check_task_vector_inputs(base, other, model_id: str) -> None:
    """Raise unless `other` (a fine-tuned model or a task vector) has `base`'s
    tensor names and shapes; the error names `model_id`, the tensors and both shapes.

    Uses only names() and shapes(), so on opened checkpoint files it reads
    no tensor data.
    """
    what = f"task vector for {model_id!r}"
    base_names, other_names = set(base.names()), set(other.names())
    missing, extra = sorted(base_names - other_names), sorted(other_names - base_names)
    if missing or extra:
        raise KeysetMismatchError(f"{what}: tensors only in base: {missing}; only in {model_id!r}: {extra}")
    other_shapes = other.shapes()
    for name, shape in base.shapes().items():
        if shape != other_shapes[name]:
            raise ShapeMismatchError(
                f"{what}: tensor {name!r}: base shape {list(shape)} "
                f"vs {model_id!r} shape {list(other_shapes[name])}"
            )


def compute_task_vector(
    base: Checkpoint, finetuned: Checkpoint, model_id: str, out: Mapping[str, np.ndarray] | None = None
) -> TaskVector:
    """delta[t] = finetuned[t] - base[t] for every tensor t, into `out[t]` if given
    (it may be the fine-tuned tensor itself)."""
    check_task_vector_inputs(base, finetuned, model_id)
    deltas = {}
    for name in base.names():
        b, f = base[name], finetuned[name]
        into = empty(b.shape, np.result_type(f, b)) if out is None else out[name]
        deltas[name] = np.subtract(f, b, out=into)
    return TaskVector(deltas=deltas, source_model_id=model_id)


def assemble_merged(
    base: Checkpoint,
    pruned_deltas: Sequence[TaskVector],
    alphas: Sequence[float],
    metadata: Mapping[str, str] | None = None,
) -> Checkpoint:
    """merged[t] = base[t] + sum_p alpha_p * delta_p[t]."""
    alphas = check_alphas(alphas, len(pruned_deltas), "task vectors")
    for tv in pruned_deltas:
        check_task_vector_inputs(base, tv, tv.source_model_id)
    merged = {
        name: linear_combine(base[name], [tv[name] for tv in pruned_deltas], alphas)
        for name in base.names()
    }
    return finalize_checkpoint(merged, base, metadata)


def check_alphas(alphas: object, count: int, what: str) -> list[float]:
    """The one alpha rule: a list (or tuple) of `count` finite reals, one per model, as Python floats
    by `importance._float`; else RecipeError naming the bad value, or `count` `what` and the alphas' count."""
    if not isinstance(alphas, (list, tuple)) or not all(map(_is_finite_real, alphas)):
        raise RecipeError(f"alphas must be a list of finite numbers, got {alphas!r}")
    if len(alphas) != count:
        raise RecipeError(f"{count} {what} but {len(alphas)} alphas")
    return [_float(a) for a in alphas]


def check_combine(
    deltas: Sequence[np.ndarray], out: np.ndarray | None, where: str, base: np.ndarray | None = None
) -> None:
    """The combine kernels' one input rule: `base`, every delta and `out` (each if given) are arrays of real
    numbers of one shape, the first one's, and `out` shares memory with no delta (a combine leaves its deltas as
    they were, for callers that read them after it); else MergeError naming `where` and the array."""
    named = [] if base is None else [("base", base)]
    named += [(f"delta {p}", delta) for p, delta in enumerate(deltas)]
    if out is not None:
        named.append(("out", out))
    for what, array in named:
        if not (isinstance(array, np.ndarray) and array.dtype.kind in "fiu"):
            raise MergeError(f"{where}: {what} must be an array of real numbers, got {type(array).__name__}")
        shape = named[0][1].shape
        if array.shape != shape:
            raise ShapeMismatchError(f"{where}: {what} has shape {list(array.shape)}, not {list(shape)}")
    if out is not None and any(np.shares_memory(out, delta) for delta in deltas):
        raise MergeError(f"{where}: out shares memory with a delta")


def linear_combine(
    base: np.ndarray,
    deltas: Sequence[np.ndarray],
    alphas: Sequence[float],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One tensor of a linear merge: base + sum_p alpha_p * delta_p, summed in model order,
    into `out` if given (it may be `base`, not a delta)."""
    alphas = check_alphas(alphas, len(deltas), "deltas")
    check_combine(deltas, out, "linear_combine", base)
    if out is None:
        out = copied(base)
    else:
        np.copyto(out, base)
    with frame():
        scaled = empty(base.shape)
        for delta, alpha in zip(deltas, alphas):
            out += delta if alpha == 1.0 else np.multiply(delta, alpha, out=scaled)  # d * 1.0 is d
    return out


def finalize_checkpoint(
    tensors: dict[str, np.ndarray],
    base: Checkpoint,
    metadata: Mapping[str, str] | None,
    out: Mapping[str, np.ndarray] | None = None,
) -> Checkpoint:
    """Build the output checkpoint and reject non-finite results.

    Finiteness is checked after values are snapped to the base's stored
    dtypes, so overflow introduced by the narrowing itself is caught too.
    `lewis.merge` calls it once per merged tensor, as each is combined,
    with `out` (see Checkpoint) the tensor's output view; `base` only lends its dtypes.
    """
    merged = Checkpoint(tensors, dict(base.dtypes), metadata, out=out)
    for name, arr in merged.tensors.items():
        if not all_finite(arr):
            raise RecipeError(f"merged tensor {name!r} contains non-finite values")
    return merged


def _path(value: object) -> str | None:
    """`value` as a str if it is a str path or an os.PathLike naming one, else None."""
    path = os.fspath(value) if isinstance(value, os.PathLike) else value
    return path if isinstance(path, str) else None


def _paths(value: object) -> list[str] | None:
    """`value` as a list of str if it is a list of paths, else None."""
    if not isinstance(value, list):
        return None
    paths = list(map(_path, value))
    return None if None in paths else paths


@dataclass
class MergeRecipe(Document, error=RecipeError):
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
        base_path, model_paths = _path(self.base_path), _paths(self.model_paths)
        if base_path is None:  # open() would take an int as a file descriptor
            raise RecipeError(f"base_path must be a path, got {self.base_path!r}")
        if model_paths is None:
            raise RecipeError(f"model_paths must be a list of paths, got {self.model_paths!r}")
        self.base_path, self.model_paths = base_path, model_paths
        if not self.model_paths:
            raise RecipeError("recipe needs at least one model")
        if isinstance(self.alphas, list) and not self.alphas:
            self.alphas = [1.0] * len(self.model_paths)
        self.alphas = check_alphas(self.alphas, len(self.model_paths), "models")
        if self.method not in MERGE_METHODS:
            raise RecipeError(f"unknown method {self.method!r}; known: {list(MERGE_METHODS)}")
        refs = self.plan_refs
        if (paths := _paths(refs)) is not None:
            if len(paths) != len(self.model_paths):
                raise RecipeError(f"{len(self.model_paths)} models but {len(paths)} plan refs")
            self.plan_refs = paths
        elif _is_real(refs):
            self.plan_refs = _check_density(refs, "uniform plan density", RecipeError)
        elif refs is not None:
            raise RecipeError(f"plan_refs must be null, a density or a list of plan paths, got {refs!r}")
        if not _is_int(self.seed):
            raise RecipeError(f"seed must be an int, got {self.seed!r}")
        self.seed = int(self.seed)

    @classmethod
    def load(cls, path: str | Path) -> "MergeRecipe":
        recipe = super().load(path)
        root = Path(path).parent  # an absolute path joined onto root stays as it is
        recipe.base_path = str(root / recipe.base_path)
        recipe.model_paths = [str(root / p) for p in recipe.model_paths]
        if isinstance(recipe.plan_refs, list):
            recipe.plan_refs = [str(root / p) for p in recipe.plan_refs]
        return recipe
