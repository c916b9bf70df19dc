"""Which library calls the traced run wraps, and the per-layer metrics they give.

Layers are modules of `lewis`. The same function is wrapped under every
name it is called by: `lewis.<name>` for the benchmark's recomposed merge,
`lewis.merge_methods.<name>` for calls `lewis.merge` makes, `lewis.cli.<name>`
for calls the CLI makes, and `lewis.task_vectors.<name>` for calls inside
`assemble_merged`.

Times are self times summed over the job's calls (wall time minus nested
spans), except `cli.*_s`, which are whole CLI steps, and
`merge_methods.combine_s`, which is `ties_combine` busy time summed over
the LEWIS_THREADS workers. `*.peak_alloc_mb` is the largest tracemalloc
peak of one main-thread call of that layer above what was allocated when
the call began, nested calls included.
"""

from __future__ import annotations

import os

import numpy as np

import lewis
import lewis.cli
import lewis.merge_methods
import lewis.task_vectors

from spans import Tracer

MIB = float(1 << 20)


def _count_read(t: Tracer, args, kwargs, result) -> None:
    t.count("bytes_read", os.path.getsize(args[0]))


def _count_write(t: Tracer, args, kwargs, result) -> None:
    t.count("bytes_written", os.path.getsize(args[1]))


def _count_prune(t: Tracer, args, kwargs, result) -> None:
    tv, plan, _mode, roles = args[:4]
    for name, pruned in result.deltas.items():
        t.count("prune_tensors", 1)
        t.count("prune_elems", pruned.size)
        t.count("prune_requested", plan.density_for(roles(name), name) * pruned.size)
        t.count("prune_kept", np.count_nonzero(pruned))


def _count_conflicts(t: Tracer, args, kwargs, result) -> None:
    # Election keeps the entries whose sign matches the elected one, which is
    # the sign of the result wherever any entry is nonzero.
    stack = args[0]
    t.count("ties_nonzero", np.count_nonzero(stack))
    t.count("ties_discarded", np.count_nonzero(stack * result < 0))


def _count_forward(t: Tracer, args, kwargs, result) -> None:
    calib = args[2]
    t.count("forward_calls", len(calib.samples))
    t.count("tokens", sum(len(s) for s in calib.samples))


def _count_plan(t: Tracer, args, kwargs, result) -> None:
    t.count("plans", 1)


_WRAPS = [
    # owners, attribute, layer, op, counter
    ((lewis,), "read_checkpoint", "checkpoint", "read", _count_read),
    ((lewis.merge_methods, lewis.cli), "load_checkpoint", "checkpoint", "read", _count_read),
    ((lewis.task_vectors,), "Checkpoint", "checkpoint", "snap", None),
    ((lewis,), "write_checkpoint", "checkpoint", "write", _count_write),
    ((lewis.cli,), "save_checkpoint", "checkpoint", "write", _count_write),
    ((lewis, lewis.merge_methods), "compute_task_vector", "task_vectors", "compute", None),
    ((lewis, lewis.merge_methods), "assemble_merged", "task_vectors", "assemble", None),
    ((lewis.task_vectors, lewis.merge_methods), "finalize_checkpoint", "task_vectors", "finalize", None),
    ((lewis, lewis.merge_methods), "apply_plan", "pruning", "prune", _count_prune),
    ((lewis, lewis.merge_methods), "ties_combine", "merge_methods", "combine", _count_conflicts),
    ((lewis.cli,), "profile_model", "runtime", "capture", _count_forward),
    ((lewis.cli,), "eval_loss", "runtime", "eval", _count_forward),
    ((lewis.cli,), "build_plan_lewis", "importance", "plan", _count_plan),
]


def instrument(t: Tracer) -> None:
    """Wrap every listed call that exists; `t.restore()` undoes it."""
    for owners, attr, layer, op, after in _WRAPS:
        for owner in owners:
            if hasattr(owner, attr):
                t.wrap(owner, attr, layer, op, after)


def layer_metrics(t: Tracer, job_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job. Metrics a job does not exercise are left out."""
    c = t.counters
    out: dict[str, float] = {}

    def put_rate(name: str, amount: float, seconds: float) -> None:
        if seconds > 0:
            out[name] = amount / seconds

    def put_peak(layer: str) -> None:
        peak = t.peak_alloc(layer)
        if peak is not None:
            out[f"{layer}.peak_alloc_mb"] = peak / MIB

    out["checkpoint.read_s"] = t.self_s("checkpoint", "read")
    put_rate("checkpoint.read_mb_per_s", c["bytes_read"] / MIB, out["checkpoint.read_s"])
    out["checkpoint.snap_s"] = t.self_s("checkpoint", "snap")
    out["checkpoint.write_s"] = t.self_s("checkpoint", "write")
    put_rate("checkpoint.write_mb_per_s", c["bytes_written"] / MIB, out["checkpoint.write_s"])
    out["checkpoint.bytes_read"] = c["bytes_read"]
    out["checkpoint.bytes_written"] = c["bytes_written"]
    put_peak("checkpoint")

    out["task_vectors.compute_s"] = t.self_s("task_vectors", "compute")
    out["task_vectors.assemble_s"] = t.self_s("task_vectors", "assemble", "finalize")
    put_peak("task_vectors")

    out["pruning.prune_s"] = t.self_s("pruning", "prune")
    out["pruning.tensors"] = c["prune_tensors"]
    if c["prune_elems"]:
        out["pruning.requested_frac"] = c["prune_requested"] / c["prune_elems"]
        out["pruning.kept_frac"] = c["prune_kept"] / c["prune_elems"]
    put_peak("pruning")

    # No election (dare-linear) discards nothing.
    out["merge_methods.ties_conflict_frac"] = (
        c["ties_discarded"] / c["ties_nonzero"] if c["ties_nonzero"] else 0.0
    )
    if c["ties_nonzero"]:
        out["merge_methods.combine_s"] = t.self_s("merge_methods", "combine")
    put_peak("merge_methods")

    if c["tokens"]:
        out["runtime.capture_s"] = t.self_s("runtime", "capture")
        out["runtime.eval_s"] = t.self_s("runtime", "eval")
        out["runtime.forward_calls"] = c["forward_calls"]
        out["runtime.tokens"] = c["tokens"]
        out["runtime.us_per_token"] = (
            1e6 * (out["runtime.capture_s"] + out["runtime.eval_s"]) / c["tokens"]
        )
    if c["plans"]:
        out["importance.plan_s"] = t.self_s("importance", "plan")
        out["importance.plans"] = c["plans"]
    for step in ("capture", "plan", "merge", "eval"):
        if any(s.layer == "cli" and s.op == step for s in t.spans):
            out[f"cli.{step}_s"] = t.wall_s("cli", step)

    out["trace.hook_s"] = t.self_s("trace", "hook")
    out["trace.uncovered_frac"] = max(0.0, job_s - t.covered_s()) / job_s
    return out
