"""Merge-method dispatch: task arithmetic, TIES, and the DARE variants.

All four methods run one flow, tensor by tensor. The base and every model
are opened by their headers, and their names and shapes are checked
against each other before any tensor data is read, as is each plan's
block set: a plan that sets a block no base tensor belongs to (a plan
for another model) raises PlanError. Then, for each tensor
name, that tensor of each input is read and checked finite (else
NonFiniteTensorError names the file and the tensor), turned into a task
vector and pruned at its plan's density (magnitude trim for
task-arithmetic and ties, random drop and rescale for the DARE methods),
the pruned deltas are combined and the result is snapped to the base's
dtype and checked finite.

Task arithmetic and dare-linear add the alpha-scaled deltas to the base
in model order; ties and dare-ties first elect a per-parameter sign by
total magnitude across models and average only the deltas that agree
with it: the elected side's sum / the elected side's count, from
per-model running sums taken in model order, so combine memory does not
grow with the number of models. Alphas are applied as a global per-model
scale before sign election, so the single-model full-density merge is
exactly the fine-tuned checkpoint.

Each tensor's result depends only on its own inputs (the DARE drop stream
is keyed by the tensor name), so tensors run on min(tensors, usable cores)
worker threads; the merge does no BLAS work, so the BLAS thread variables
do not lower that count. The calling thread is one of the workers, and
all of them take tensor names in name order (`parallel.map_in_order`).
Before they start, the calling thread allocates one float64 buffer for
the whole output, and each worker writes its tensor into that tensor's
view, so the output is not allocated on a helper thread. Tensors in
flight hold at most twice the largest tensor's element count. Each input
file is opened twice per merge, for its header and for one descriptor
that every read shares (`os.preadv`), however many tensors it has.

A tensor in flight works in one scratch block (`buffers.Block`): its base
and one delta per model, float64, at the bottom, and above them the
largest kernel's temporaries, 27 bytes an element for an election (up to
255 models) and 11 (the BF16 snap) otherwise. Every stage works in place:
a read widens into the block, the task vector subtracts in place, the
trim and the drop select from the delta into itself, the combine writes
into the tensor's output view, and the snap narrows and widens there. So
a tensor takes 8 × (models + 1) + 27 bytes an element for ties and
dare-ties, 8 × (models + 1) + 11 for the linear methods, and no other
memory of its size. Blocks come from one `buffers.BlockPool` per merge,
which keeps, in use and idle together, the blocks of one and a half times
the in-flight budget, and never more than (models + 10) × 8 bytes per
element of it. A worker gets an idle block of its tensor's size, the one
it used last if it can, so tensors of a few shapes taking turns reuse
their blocks instead of faulting fresh memory in. After a failure no
worker starts another tensor, and the merge raises the error of the
failing tensor that comes first in name order, the one a serial loop
raises. The output bytes do not depend on the worker count.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .buffers import _ALIGN, BlockPool, empty, frame, select
from .checkpoint import _NARROW_BYTES, Checkpoint, CheckpointFile, exact_checkpoint
from .errors import MergeError, PlanError, RecipeError
from .importance import SparsityPlan, _float, build_plan_uniform
from .parallel import map_in_order, usable_cores
from .pruning import apply_plan, mix_seed
from .roles import detect_naming_scheme, role_classifier
from .task_vectors import (
    MergeRecipe,
    check_out,
    check_task_vector_inputs,
    compute_task_vector,
    finalize_checkpoint,
    linear_combine,
)


def ties_combine(deltas: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Elect-then-mean over a sequence of deltas (a list, or a (models, ...) array).

    Per parameter position, the elected sign is positive when the positive
    entries' sum is at least the negative entries' total magnitude, else
    negative. The result is the elected side's sum / the elected side's
    count (zeros never count), or 0 where no entry has the elected sign.
    Both come from per-model running sums and counts taken in model order,
    so combine memory does not grow with the number of models. The counts
    are of the smallest unsigned type that holds the model count (uint8 up
    to 255 models, uint16 from 256 on, and so forth), so they never overflow.
    The result goes to `out` if given. Raises MergeError on an empty
    sequence or an `out` that shares memory with a delta.
    """
    if len(deltas) == 0:
        raise MergeError("ties_combine needs at least one delta")
    first, shape = deltas[0], np.shape(deltas[0])
    sums, counts = np.result_type(first, 0.0), np.min_scalar_type(len(deltas))
    if out is None:  # the mean is taken in the dtype that a sum divided by an intp count has
        out = empty(shape, np.result_type(sums, np.intp))
    else:
        check_out(out, deltas, "ties_combine")
    with frame():
        pos = out if out.dtype == sums else empty(shape, sums)  # spent before the mean is written
        neg = empty(shape, sums)
        npos, nneg, mask = empty(shape, counts), empty(shape, counts), empty(shape, np.bool_)
        with frame():
            part = empty(shape, sums)
            np.fmax(first, 0.0, out=pos)  # fmax/fmin drop NaN
            np.fmin(first, 0.0, out=neg)
            np.greater(first, 0, out=npos)
            np.less(first, 0, out=nneg)
            for d in deltas[1:]:
                pos += np.fmax(d, 0.0, out=part)
                neg += np.fmin(d, 0.0, out=part)
                npos += np.greater(d, 0, out=mask)
                nneg += np.less(d, 0, out=mask)
            # Off the elected side each model adds a signed zero, and x + ±0 == x,
            # so the elected running sum is the sum of the agreeing entries exactly.
            up = np.greater_equal(pos, np.negative(neg, out=part), out=mask)
        total, count = select(up, pos, neg, neg), select(up, npos, nneg, nneg)  # the elected side's
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where no entry has the elected sign
            np.divide(total, count, out=out, dtype=out.dtype)
        return select(np.not_equal(count, 0, out=mask), out, None, out)


def _block_layout(models: int, elect: bool) -> tuple[int, int]:
    """The scratch one tensor's merge takes (see the module docstring), as bytes an element
    and bytes of alignment: the base and one delta per model in float64, then the largest
    kernel's temporaries. An election takes 25 bytes an element plus its two counts; the
    snap takes _NARROW_BYTES, the trim 10, the drop 9 and a read 6."""
    counts = np.min_scalar_type(models).itemsize
    temporaries = max(25 + 2 * counts if elect else 0, _NARROW_BYTES)
    return 8 * (models + 1) + temporaries, _ALIGN * (models + 8)


def derive_model_ids(paths: Sequence[str]) -> list[str]:
    """One distinct id per checkpoint path: its file stem with each comma made `_` (so
    `merge.models` lists one id per model), or for a taken one `stem#index` with the
    path's index, counting up from it until the id is free."""
    ids = []
    for p, path in enumerate(paths):
        model_id = stem = Path(path).stem.replace(",", "_") or f"model-{p}"
        k = p
        while model_id in ids:
            model_id, k = f"{stem}#{k}", k + 1
        ids.append(model_id)
    return ids


def resolve_plans(recipe: MergeRecipe, model_ids: Sequence[str]) -> list[SparsityPlan]:
    """Plans from the recipe's plan_refs: paths, a uniform density, or full density."""
    if isinstance(recipe.plan_refs, list):
        return [SparsityPlan.load(p) for p in recipe.plan_refs]
    density = 1.0 if recipe.plan_refs is None else recipe.plan_refs
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
    blocks = {roles(name).block_index for name in base.names()}
    for model_id, plan in zip(model_ids, plans):
        if foreign := sorted(plan.densities.keys() - blocks):
            raise PlanError(f"plan for {model_id!r} sets blocks {foreign} that no tensor of the base belongs to")
    g_mode = "magnitude" if recipe.method in ("task-arithmetic", "ties") else "random"
    seeds = [mix_seed(recipe.seed, f"model-{p}") for p in range(len(models))]
    alphas = [_float(a) for a in recipe.alphas]  # the recipe's rule, for alphas set after it checked them too

    metadata = {
        "merge.method": recipe.method,
        "merge.seed": str(recipe.seed),
        "merge.bounds": json.dumps(
            [None if p.bounds is None else [p.bounds.gamma, p.bounds.epsilon] for p in plans]
        ),
        "merge.models": ",".join(model_ids),
        "merge.alphas": json.dumps(alphas),
    }
    for model_id, plan in zip(model_ids, plans):
        metadata[f"merge.plan_digest.{model_id}"] = plan.digest()

    elect = recipe.method in ("ties", "dare-ties")
    names, shapes = base.names(), base.shapes()
    sizes = {name: math.prod(shapes[name]) for name in names}
    # The calling thread allocates the whole output, so it outlives the
    # workers in the calling thread's malloc arena, not in theirs.
    views = np.split(np.empty(sum(sizes.values())), list(itertools.accumulate(sizes.values()))[:-1])
    out = {name: view.reshape(shapes[name]) for name, view in zip(names, views)}
    budget = 2 * max(sizes.values(), default=0)
    workers = usable_cores()
    per_element, pad = _block_layout(len(models), elect)
    # The pool keeps the blocks of the tensors in flight (at most `budget` elements on
    # at most `workers` blocks) and idle blocks of half as many elements again, so that
    # tensors of a few shapes reuse their blocks; never more than (models + 10) × 8
    # bytes per element of the budget.
    cap = min(per_element * (budget + budget // 2), (len(models) + 10) * 8 * budget)
    pool = BlockPool(cap + workers * pad)

    def shard(ckpt, name: str) -> Checkpoint:
        return exact_checkpoint({name: ckpt[name]}, {name: ckpt.dtypes[name]})

    def combine(name: str) -> None:
        # The whole-model functions, fed one-tensor checkpoints, under the names
        # perfbench's traced run wraps. Each works in place or into its out=, and
        # every array they make is taken from this tensor's block.
        with pool.lend(per_element * sizes[name] + pad):
            base_t = shard(base, name)
            deltas = []
            for model, model_id, plan, seed in zip(models, model_ids, plans, seeds):
                fine = shard(model, name)
                tv = compute_task_vector(base_t, fine, model_id, out=fine.tensors)
                deltas.append(apply_plan(tv, plan, g_mode, roles, seed=seed, out=tv.deltas)[name])
            if not elect:
                merged = linear_combine(base_t[name], deltas, alphas, out=out[name])
            else:
                for d, a in zip(deltas, alphas):
                    if a != 1.0:  # d * 1.0 is d
                        d *= a
                merged = ties_combine(deltas, out=out[name])
                merged += base_t[name]
            finalize_checkpoint({name: merged}, base, None, out={name: merged})

    with contextlib.ExitStack() as files:  # one descriptor per input for every read, closed at the end
        for file in (base, *models):
            files.enter_context(file)
        map_in_order(combine, names, workers, cost=sizes.__getitem__, budget=budget)
    return exact_checkpoint(out, base.dtypes, metadata)
