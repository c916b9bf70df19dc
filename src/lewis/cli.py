"""Command-line surface for the merge pipeline.

Five subcommands cover the flow end to end: `capture` measures activation
profiles, `plan` turns them into sparsity plans, `merge` produces a merged
checkpoint, `inspect` and `eval` report on existing checkpoints. Human-
readable tables go to stdout; machine-readable artifacts are only ever
written to --out paths. Exit codes: 0 success, 1 operational error, 2
usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
# Bound under the names perfbench's traced run wraps to measure the CLI's checkpoint IO.
from .checkpoint import read_checkpoint as load_checkpoint, write_checkpoint as save_checkpoint
from .errors import MergeError
from .importance import (
    ActivationProfile,
    SparsityBounds,
    build_plan_layer_type,
    build_plan_lewis,
    build_plan_topk,
    build_plan_uniform,
    importance_deltas,
)
from .merge_methods import derive_model_ids, merge, resolve_plans
from .pruning import effective_mean_density
from .roles import BLOCK_KINDS, detect_naming_scheme, role_classifier
from .runtime import ArchConfig, CalibrationSet, eval_loss, profile_model
from .task_vectors import MERGE_METHODS, MergeRecipe


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _cmd_capture(args: argparse.Namespace) -> int:
    arch = ArchConfig.load(args.arch)
    ckpt = load_checkpoint(args.model, finite=True)
    calib = CalibrationSet.from_file(args.calib, max_seq_len=arch.max_seq_len, vocab_size=arch.vocab_size)
    model_id = args.model_id or derive_model_ids([args.model])[0]
    profile = profile_model(ckpt, arch, calib, convention=args.convention, model_id=model_id)
    profile.save(args.out)
    print(f"profiled {model_id!r} on {len(calib)} samples ({args.convention})")
    _print_table(
        ["block", "norm"],
        [[str(layer), f"{profile.layer_norms[layer]:.6f}"] for layer in sorted(profile.layer_norms)],
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    if args.mode in ("lewis-literal", "lewis-minmax"):
        if not args.profile or not args.base_profile:
            raise MergeError(f"mode {args.mode} needs --profile and --base-profile")
        bounds = SparsityBounds(args.gamma, args.epsilon)
        plan = build_plan_lewis(
            ActivationProfile.load(args.profile),
            ActivationProfile.load(args.base_profile),
            bounds,
            mode=args.mode.removeprefix("lewis-"),
        )
    elif args.mode == "uniform":
        if args.density is None:
            raise MergeError("mode uniform needs --density")
        plan = build_plan_uniform(args.density, model_id=args.model_id or "uniform")
    elif args.mode == "topk":
        if not args.profile or not args.base_profile:
            raise MergeError("mode topk needs --profile and --base-profile")
        if args.k is None:
            raise MergeError("mode topk needs --k")
        profile = ActivationProfile.load(args.profile)
        scores = importance_deltas(profile, ActivationProfile.load(args.base_profile))
        lo = args.lo if args.lo is not None else 0.1
        plan = build_plan_topk(scores, args.k, hi=args.hi, lo=lo, model_id=profile.model_id)
    else:  # layer-type
        if not args.role:
            raise MergeError("mode layer-type needs --role")
        plan = build_plan_layer_type(
            args.role,
            hi=args.hi,
            lo=args.lo if args.lo is not None else 0.01,
            model_id=args.model_id or "",
        )
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
        recipe = MergeRecipe.load(args.recipe)
    else:
        if not args.base or not args.model:
            raise MergeError("merge needs --recipe, or --base plus at least one --model")
        recipe = MergeRecipe(
            base_path=args.base,
            model_paths=args.model,
            alphas=args.alpha or [],
            method=args.method,
            plan_refs=args.plan or args.density,  # exclusive options: at most one is set
            seed=args.seed,
        )
    model_ids = derive_model_ids(recipe.model_paths)
    plans = resolve_plans(recipe, model_ids)
    merged = merge(recipe, plans)
    save_checkpoint(merged, args.out)

    roles = role_classifier(detect_naming_scheme(merged.names()))
    print(f"merged {len(recipe.model_paths)} model(s) via {recipe.method} -> {args.out}")
    rows = []
    for model_id, plan in zip(model_ids, plans):
        density = effective_mean_density(plan, merged.names(), roles)
        rows.append([model_id, plan.mode, f"{density:.4f}"])
    _print_table(["model", "plan", "mean density"], rows)
    print(f"tensors: {len(merged)}  method: {recipe.method}  seed: {recipe.seed}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.ckpt)
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
    calib = CalibrationSet.from_file(args.calib, max_seq_len=arch.max_seq_len, vocab_size=arch.vocab_size)
    loss = eval_loss(ckpt, arch, calib)
    print(f"mean cross-entropy: {loss:.6f}  ({len(calib)} samples)")
    return 0


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
    p.add_argument("--convention", default="mean-token-l2", choices=["mean-token-l2", "frobenius"])
    p.add_argument("--model-id", default=None)
    p.set_defaults(func=_cmd_capture)

    p = sub.add_parser("plan", help="build a sparsity plan")
    p.add_argument(
        "--mode",
        required=True,
        choices=["lewis-literal", "lewis-minmax", "uniform", "topk", "layer-type"],
    )
    p.add_argument("--out", required=True)
    p.add_argument("--profile", help="fine-tuned model profile (lewis/topk modes)")
    p.add_argument("--base-profile", help="base model profile (lewis/topk modes)")
    p.add_argument("--gamma", type=float, default=0.5, help="lower keep-density bound")
    p.add_argument("--epsilon", type=float, default=0.8, help="upper keep-density bound")
    p.add_argument("--density", type=float, help="uniform mode keep-density")
    p.add_argument("--k", type=float, help="topk mode: percent of blocks kept dense")
    p.add_argument("--role", choices=sorted(BLOCK_KINDS), help="layer-type mode role")
    p.add_argument("--hi", type=float, default=1.0, help="density for selected layers")
    p.add_argument("--lo", type=float, default=None, help="density for remaining layers")
    p.add_argument("--model-id", default=None)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("merge", help="merge checkpoints per a recipe or inline flags")
    p.add_argument("--recipe", help="recipe JSON (overrides inline flags)")
    p.add_argument("--base", help="base checkpoint path")
    p.add_argument("--model", action="append", help="fine-tuned checkpoint (repeatable)")
    p.add_argument("--alpha", action="append", type=float, help="per-model scale (repeatable)")
    p.add_argument("--method", default="ties", choices=list(MERGE_METHODS))
    plans = p.add_mutually_exclusive_group()
    plans.add_argument("--plan", action="append", help="sparsity plan path, one per model")
    plans.add_argument("--density", type=float, help="uniform keep-density for all models")
    p.add_argument("--seed", type=int, default=0)
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
    except (MergeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
