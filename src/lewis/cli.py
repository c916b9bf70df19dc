"""Command-line surface for the merge pipeline.

Five subcommands cover the flow end to end: `capture` measures activation
profiles, `plan` turns them into sparsity plans, `merge` produces a merged
checkpoint, `inspect` and `eval` report on existing checkpoints. Human-
readable tables go to stdout; machine-readable artifacts are only ever
written to --out paths. Exit codes: 0 success, 1 operational error (a
MergeError or an OSError naming its file), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
# Bound under the names perfbench's traced run wraps to measure the CLI's checkpoint IO.
from .checkpoint import CheckpointFile, read_checkpoint as load_checkpoint, write_checkpoint as save_checkpoint
from .errors import MergeError
from .importance import (
    NORM_CONVENTIONS,
    PLAN_MODES,
    ActivationProfile,
    SparsityBounds,
    build_plan_layer_type,
    build_plan_lewis,
    build_plan_topk,
    build_plan_uniform,
    importance_deltas,
)
from .merge_methods import derive_model_ids, merge, resolve_plans
from .roles import BLOCK_KINDS, detect_naming_scheme, role_classifier
from .runtime import ArchConfig, CalibrationSet, check_checkpoint, eval_loss, profile_model
from .task_vectors import MERGE_METHODS, MergeRecipe


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _given(args: argparse.Namespace, flags: list[str]) -> dict:
    """The flags among `flags` (by dest) that the user gave: argparse leaves the others None."""
    return {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}


def _cmd_capture(args: argparse.Namespace) -> int:
    arch = ArchConfig.load(args.arch)
    ckpt = load_checkpoint(args.model, finite=True)
    check_checkpoint(ckpt, arch, args.model, output_layers=False)
    calib = CalibrationSet.from_file(args.calib, max_seq_len=arch.max_seq_len, vocab_size=arch.vocab_size)
    options = _given(args, ["convention", "model_id"])  # an empty --model-id given is the id
    options.setdefault("model_id", derive_model_ids([args.model])[0])
    profile = profile_model(ckpt, arch, calib, **options)
    profile.save(args.out)
    print(f"profiled {profile.model_id!r} on {len(calib)} samples ({profile.norm_convention})")
    _print_table(
        ["block", "norm"],
        [[str(layer), f"{profile.layer_norms[layer]:.6f}"] for layer in sorted(profile.layer_norms)],
    )
    return 0


# Each plan mode's row: the flags it needs, then the flags it may take, whose
# defaults its builder (or SparsityBounds) holds. Any other plan flag is an error.
_PLAN_FLAGS = {
    "lewis-literal": (["profile", "base_profile"], ["gamma", "epsilon"]),
    "lewis-minmax": (["profile", "base_profile"], ["gamma", "epsilon"]),
    "uniform": (["density"], ["model_id"]),
    "topk": (["profile", "base_profile", "k"], ["hi", "lo"]),
    "layer-type": (["role"], ["hi", "lo", "model_id"]),
}
_ALL_PLAN_FLAGS = list(dict.fromkeys(flag for needs, takes in _PLAN_FLAGS.values() for flag in needs + takes))


def _cmd_plan(args: argparse.Namespace) -> int:
    needs, takes = _PLAN_FLAGS[args.mode]
    given = _given(args, _ALL_PLAN_FLAGS)
    missing = ["--" + f.replace("_", "-") for f in needs if f not in given]
    unread = ["--" + f.replace("_", "-") for f in given if f not in needs + takes]
    errors = [f"{what} {', '.join(flags)}" for what, flags in (("needs", missing), ("does not read", unread)) if flags]
    if errors:
        raise MergeError(f"mode {args.mode} {'; '.join(errors)}")
    options = {flag: value for flag, value in given.items() if flag in takes}
    if args.mode == "uniform":
        plan = build_plan_uniform(given["density"], **options)
    elif args.mode == "layer-type":
        plan = build_plan_layer_type(given["role"], **options)
    else:
        profile, base = (ActivationProfile.load(given[flag]) for flag in ("profile", "base_profile"))
        if args.mode == "topk":
            plan = build_plan_topk(importance_deltas(profile, base), given["k"], model_id=profile.model_id, **options)
        else:
            plan = build_plan_lewis(profile, base, SparsityBounds(**options), mode=args.mode.removeprefix("lewis-"))
    plan.save(args.out)
    print(f"plan mode={plan.mode} model={plan.model_id!r} -> {args.out}")
    rows = [[str(layer), f"{plan.densities[layer]:.4f}"] for layer in sorted(plan.densities)]
    if plan.default_density is not None:
        rows.append(["default", f"{plan.default_density:.4f}"])
    if plan.role_overrides:
        rows += [[f"role {kind}", f"{d:.4f}"] for kind, d in sorted(plan.role_overrides.items())]
    _print_table(["layer", "density"], rows)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    if args.recipe:
        if inline := _given(args, ["base", "model", "alpha", "method", "plan", "density", "seed"]):
            raise MergeError(f"--recipe sets the whole merge; drop {', '.join('--' + flag for flag in inline)}")
        recipe = MergeRecipe.load(args.recipe)
    else:
        if not args.base or not args.model:
            raise MergeError("merge needs --recipe, or --base plus at least one --model")
        # Only the fields the user gave: MergeRecipe holds the defaults. --plan and --density are exclusive.
        given = {"alphas": args.alpha, "method": args.method, "plan_refs": args.plan or args.density, "seed": args.seed}
        recipe = MergeRecipe(args.base, args.model, **{k: v for k, v in given.items() if v is not None})
    model_ids = derive_model_ids(recipe.model_paths)
    plans = resolve_plans(recipe, model_ids)
    merged = merge(recipe, plans)
    save_checkpoint(merged, args.out)

    roles = role_classifier(detect_naming_scheme(merged.names()))
    sizes = {name: merged[name].size for name in merged.names()}
    print(f"merged {len(recipe.model_paths)} model(s) via {recipe.method} -> {args.out}")
    rows = [[model_id, plan.mode, f"{plan.budget(sizes, roles):.4f}"] for model_id, plan in zip(model_ids, plans)]
    _print_table(["model", "plan", "mean density"], rows)
    print(f"tensors: {len(merged)}  method: {recipe.method}  seed: {recipe.seed}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    ckpt = CheckpointFile(args.ckpt)  # reads and widens one tensor at a time
    roles = role_classifier(detect_naming_scheme(ckpt.names()))
    rows = []
    for name in ckpt.names():
        arr = ckpt[name]
        role = roles(name)
        where = role.kind if role.block_index is None else f"{role.kind}@{role.block_index}"
        nonzero = float(np.count_nonzero(arr)) / arr.size
        rows.append([name, where, "x".join(map(str, arr.shape)), ckpt.dtypes[name], f"{nonzero:.4f}"])
    _print_table(["tensor", "role", "shape", "dtype", "nonzero"], rows)
    if ckpt.metadata:
        print("metadata:")
        for key in sorted(ckpt.metadata):
            print(f"  {key} = {ckpt.metadata[key]}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    arch = ArchConfig.load(args.arch)
    ckpt = load_checkpoint(args.ckpt, finite=True)
    check_checkpoint(ckpt, arch, args.ckpt)
    calib = CalibrationSet.from_file(args.calib, max_seq_len=arch.max_seq_len, vocab_size=arch.vocab_size)
    loss = eval_loss(ckpt, arch, calib)
    print(f"mean cross-entropy: {loss:.6f}  ({len(calib)} samples)")
    return 0


@functools.cache  # built once per process; each parse_args starts from a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lewis",
        description="Activation-guided layer-wise task-vector sparsity for model merging.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capture", help="profile per-block activation norms on a calibration set")
    p.add_argument("--model", required=True, help="checkpoint to profile")
    p.add_argument("--arch", required=True, help="architecture config JSON")
    p.add_argument("--calib", required=True, help="calibration JSONL file")
    p.add_argument("--out", required=True, help="profile output path")
    p.add_argument("--convention", choices=NORM_CONVENTIONS, help="activation norm convention")
    p.add_argument("--model-id", help="profile's model id (default: derived from --model)")
    p.set_defaults(func=_cmd_capture)

    p = sub.add_parser("plan", help="build a sparsity plan")
    p.add_argument("--mode", required=True, choices=PLAN_MODES)
    p.add_argument("--out", required=True)
    p.add_argument("--profile", help="fine-tuned model profile (lewis/topk modes)")
    p.add_argument("--base-profile", help="base model profile (lewis/topk modes)")
    p.add_argument("--gamma", type=float, help=f"lower keep-density bound (default {SparsityBounds.gamma})")
    p.add_argument("--epsilon", type=float, help=f"upper keep-density bound (default {SparsityBounds.epsilon})")
    p.add_argument("--density", type=float, help="uniform mode keep-density")
    p.add_argument("--k", type=float, help="topk mode: percent of blocks kept dense")
    p.add_argument("--role", choices=sorted(BLOCK_KINDS), help="layer-type mode role")
    p.add_argument("--hi", type=float, help="density for selected layers")
    p.add_argument("--lo", type=float, help="density for remaining layers")
    p.add_argument("--model-id", help="plan's model id (uniform/layer-type modes)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("merge", help="merge checkpoints per a recipe or inline flags")
    p.add_argument("--recipe", help="recipe JSON, given instead of the inline flags below")
    p.add_argument("--base", help="base checkpoint path")
    p.add_argument("--model", action="append", help="fine-tuned checkpoint (repeatable)")
    p.add_argument("--alpha", action="append", type=float, help="per-model scale (repeatable)")
    p.add_argument("--method", choices=list(MERGE_METHODS), help=f"merge method (default {MergeRecipe.method})")
    plans = p.add_mutually_exclusive_group()
    plans.add_argument("--plan", action="append", help="sparsity plan path, one per model")
    plans.add_argument("--density", type=float, help="uniform keep-density for all models")
    p.add_argument("--seed", type=int, help=f"DARE drop seed (default {MergeRecipe.seed})")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("inspect", help="list tensors, roles, shapes, dtypes, nonzero fractions")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("eval", help="mean next-token cross-entropy on a calibration set")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--calib", required=True)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MergeError, OSError) as exc:  # any other error is a bug, and shows its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
