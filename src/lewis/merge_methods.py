"""Merge-method dispatch: task arithmetic, TIES, and the DARE variants.

All four methods run one flow, run by run (see below). The base and every
model are opened by their headers, and their names and shapes are checked
against each other before any tensor data is read, as is each plan's
block set: a plan that sets a block no base tensor belongs to (a plan
for another model) raises PlanError. Then, for each run of tensors, the
run's tensors of each input are read and checked finite (else
NonFiniteTensorError names the file and the tensor), turned into task
vectors and pruned, each tensor at its plan's density (magnitude trim
for task-arithmetic and ties, random drop and rescale for the DARE
methods), the pruned deltas are combined and the result is snapped to
the base's dtypes and checked finite.

Task arithmetic and dare-linear add the alpha-scaled deltas to the base
in model order; ties and dare-ties first elect a per-parameter sign by
total magnitude across models and average only the deltas that agree
with it: the elected side's sum / the elected side's count, from
per-model running sums taken in model order, so combine memory does not
grow with the number of models. Alphas are applied as a global per-model
scale before sign election, so the single-model full-density merge is
exactly the fine-tuned checkpoint.

Each tensor's result depends only on its own inputs (the DARE drop stream
is keyed by the tensor name), and only the trim and the drop need to know
where a tensor starts and ends, so the unit of work is a run: consecutive
tensors in name order whose elements add up to at most the largest
tensor's, each run as long as that allows. Runs go to min(runs, usable
cores, 2) worker threads (the 2 is the memory rule below); the merge does
no BLAS work, so the BLAS thread variables do not lower that count. The
calling thread is one of the workers, and all of them take runs in name
order (`parallel.map_in_order`). Before they start, the calling thread
allocates one float64 buffer for the whole output, the tensors back to
back in name order, so each run's output is one slice of it and is not
allocated on a helper thread. Each input file is opened twice per merge,
for its header and for one descriptor that every read shares
(`os.preadv`), however many tensors it has.

A run works in one scratch block (`buffers.Block`) made for the largest
tensor's elements, so one block fits any run. At its bottom, each input's
tensors of the run are read back to back into one float64 region
(`CheckpointFile.read`: the tensors of one dtype that lie back to back in
the file take one read) and checked finite at once; above them is room
for the largest kernel's temporaries, 19 bytes an element for an
election (up to 255 models) and 11 (the BF16 snap) otherwise. The trim
and the drop run per tensor on views of the regions, so each tensor
keeps its own threshold and Philox stream; one combine covers the run's
regions and writes into its output slice. Every stage works in place, so
a run takes 8 × (models + 1) + 19 bytes per element of the largest tensor
for ties and dare-ties, 8 × (models + 1) + 11 for the linear methods,
and no other memory of its size. Each worker makes one block on its
first run and works every later run in it, so with two workers at most
two runs, twice the largest tensor's elements, are in flight, in two
blocks. After a failure no worker starts another run, and the merge
raises the error of the failing run that comes first in name order. A
run that fails is done again tensor by tensor, so its error is the one a
serial loop over the tensors meets first. The output bytes do not depend
on the worker count.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from .buffers import _ALIGN, Block, empty, frame, select
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
    """The scratch a run's merge takes (see the module docstring), as bytes per element of
    the block and bytes of alignment: the base and one delta per model in float64, then the
    largest kernel's temporaries. An election takes 17 bytes an element plus its two counts;
    the snap takes _NARROW_BYTES, the trim 10, the drop 9 and a read 6."""
    counts = np.min_scalar_type(models).itemsize
    temporaries = max(17 + 2 * counts if elect else 0, _NARROW_BYTES)
    return 8 * (models + 1) + temporaries, _ALIGN * (models + 8)


def _runs(sizes: Sequence[int], limit: int) -> list[range]:
    """Consecutive index ranges of `sizes`, in order, each as long as it can be while its
    sizes add up to at most `limit` (a size over `limit` makes a range of its own)."""
    runs: list[range] = []
    total = 0
    for i, size in enumerate(sizes):
        if runs and total + size <= limit:
            runs[-1], total = range(runs[-1].start, i + 1), total + size
        else:
            runs.append(range(i, i + 1))
            total = size
    return runs


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

    roles = functools.cache(role_classifier(detect_naming_scheme(base.names())))  # each model's prune asks again
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
    sizes = [math.prod(shapes[name]) for name in names]
    starts = [0, *itertools.accumulate(sizes)]  # each tensor's offset in the output
    largest = max(sizes, default=0)
    runs = _runs(sizes, largest)
    # The calling thread allocates the whole output, the tensors back to back in name
    # order, so it outlives the workers in the calling thread's malloc arena, not in theirs.
    output = np.empty(starts[-1])
    per_element, pad = _block_layout(len(models), elect)
    # One block per worker thread, for `largest` elements, which fits any run.
    block = functools.cache(lambda thread: Block(per_element * largest + pad))
    files = (base, *models)

    def views(flat: np.ndarray, run: range) -> dict[str, np.ndarray]:
        """The tensors of `run` on `flat`, which holds them back to back."""
        at = starts[run.start]
        return {names[i]: flat[starts[i] - at : starts[i + 1] - at].reshape(shapes[names[i]]) for i in run}

    def merge_run(run: range) -> None:
        # The whole-model functions, fed checkpoints of the run's tensors, under the
        # names perfbench's traced run wraps. Each works in place or into its out=,
        # and every array they make is taken from this worker's block.
        run_names = names[run.start : run.stop]
        merged = output[starts[run.start] : starts[run.stop]]
        with block(threading.get_ident()).lent():
            base_run, *deltas = [file.read(run_names) for file in files]
            base_t = exact_checkpoint(views(base_run, run), base.dtypes)
            for delta, model, model_id, plan, seed in zip(deltas, models, model_ids, plans, seeds):
                fine = exact_checkpoint(views(delta, run), model.dtypes)
                tv = compute_task_vector(base_t, fine, model_id, out=fine.tensors)
                apply_plan(tv, plan, g_mode, roles, seed=seed, out=tv.deltas)
            if not elect:
                linear_combine(base_run, deltas, alphas, out=merged)
            else:
                for d, a in zip(deltas, alphas):
                    if a != 1.0:  # d * 1.0 is d
                        d *= a
                ties_combine(deltas, out=merged)
                merged += base_run
            tensors = views(merged, run)
            finalize_checkpoint(tensors, base, None, out=tensors)

    def combine(run: range) -> None:
        try:
            merge_run(run)
        except MergeError:
            # A run reads every input before it prunes, and prunes model by model, so
            # its error need not be the one a serial loop over the tensors meets
            # first: redo the run tensor by tensor, and the first tensor that fails raises.
            for i in run:
                merge_run(range(i, i + 1))
            raise

    with contextlib.ExitStack() as opened:  # one descriptor per input for every read, closed at the end
        for file in files:
            opened.enter_context(file)
        map_in_order(combine, runs, min(usable_cores(), 2))
    return exact_checkpoint(views(output, range(len(names))), base.dtypes, metadata)
