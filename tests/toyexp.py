"""Directional toy experiment shared by the acceptance and CLI tests.

Builds a 4-block base model, two fine-tunes with planted deltas in
disjoint block ranges (A in 0-1, B in 2-3), and a 15-sample calibration
set drawn from A's own greedy continuations so the calibration task is
correlated with A's deltas. Planted deltas are sign-random with constant
magnitude so trimming at density d keeps exactly a d fraction of their
energy.

`run_controls` is the one driver: it profiles and plans once, then merges
and scores each arm it is asked for on the same models and calibration set.
The arms are the guided plans; uniform density 0.5, which keeps fewer
parameters than the guided plans do (their densities lie in [0.5, 0.8]);
and two controls that keep the guided plans' parameter budget: a uniform
plan at that budget, and the guided plan with its block densities handed
out in reverse rank. `run_trial` is its guided and uniform arms by TIES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lewis
from lewis.runtime import forward_logits, tensor_shapes

EXPERIMENT_ARCH = lewis.ArchConfig(
    vocab_size=256, hidden_dim=32, num_blocks=4, num_heads=4, mlp_dim=64, max_seq_len=48
)
EXPERIMENT_BOUNDS = lewis.SparsityBounds(0.5, 0.8)
CALIB_SAMPLES = 15
SAMPLE_LEN = 24
PROMPT_LEN = 4


def perturb_blocks(
    base: lewis.Checkpoint, blocks: set[int], scale: float, rng: np.random.Generator
) -> lewis.Checkpoint:
    """Add +/-scale deltas to every Q/K/V/O/MLP tensor of the given blocks."""
    roles = lewis.role_classifier("toy")
    tensors = {}
    for name in base.names():
        role = roles(name)
        arr = base[name].copy()
        if role.block_index in blocks and role.kind in {"Q", "K", "V", "O", "MLP"}:
            arr = arr + scale * rng.choice([-1.0, 1.0], size=arr.shape)
        tensors[name] = arr
    return lewis.Checkpoint(tensors, dict(base.dtypes))


def greedy_calibration(
    ckpt: lewis.Checkpoint, arch: lewis.ArchConfig, rng: np.random.Generator
) -> lewis.CalibrationSet:
    """Samples generated by the model itself: random prompt, greedy continuation."""
    samples = []
    for _ in range(CALIB_SAMPLES):
        tokens = [int(t) for t in rng.integers(0, arch.vocab_size, size=PROMPT_LEN)]
        while len(tokens) < SAMPLE_LEN:
            tokens.append(int(np.argmax(forward_logits(ckpt, arch, tokens)[-1])))
        samples.append(tokens)
    return lewis.CalibrationSet(samples=samples, source="greedy-from-A")


def trial_inputs(seed: int) -> tuple[lewis.Checkpoint, lewis.Checkpoint, lewis.Checkpoint, lewis.CalibrationSet]:
    """The trial's base, A, B and calibration set for `seed`: the only place they are drawn."""
    arch = EXPERIMENT_ARCH
    rng = np.random.default_rng(seed)
    base = lewis.random_checkpoint(arch, seed=seed, scale=0.08)
    model_a = perturb_blocks(base, {0, 1}, scale=0.3, rng=rng)
    model_b = perturb_blocks(base, {2, 3}, scale=0.08, rng=rng)
    return base, model_a, model_b, greedy_calibration(model_a, arch, rng)


def parameter_budget(plan: lewis.SparsityPlan) -> float:
    """The plan's keep-density weighted by each tensor's element count, as `lewis merge` reports it."""
    sizes = {name: math.prod(shape) for name, shape in tensor_shapes(EXPERIMENT_ARCH).items()}
    return plan.budget(sizes, lewis.role_classifier("toy"))


def reversed_plan(plan: lewis.SparsityPlan) -> lewis.SparsityPlan:
    """`plan` with its block densities in reverse rank: its densest block gets its sparsest density.

    Ties rank by block index. Every block has the same size, so the budget is unchanged.
    """
    ranked = sorted(plan.densities, key=lambda block: (plan.densities[block], block))
    return lewis.SparsityPlan(
        model_id=plan.model_id,
        mode=plan.mode,
        densities={block: plan.densities[other] for block, other in zip(ranked, reversed(ranked))},
        default_density=plan.default_density,
        bounds=plan.bounds,
    )


ARM_PLANS = {
    "guided": lambda plan: plan,
    "uniform": lambda plan: lewis.build_plan_uniform(0.5, plan.model_id),
    "matched": lambda plan: lewis.build_plan_uniform(parameter_budget(plan), plan.model_id),
    "reversed": reversed_plan,
}
ARMS = tuple(ARM_PLANS)


@dataclass
class Controls:
    """Per-model plans and merged calibration loss for each arm run."""

    plans: dict[str, list[lewis.SparsityPlan]]
    losses: dict[str, float]


def run_controls(seed: int, workdir: Path, method: str = "ties", arms: tuple[str, ...] = ARMS) -> Controls:
    """Write base/A/B.safetensors, plan once, then merge each arm by `method` to `<arm>.safetensors` and score it."""
    arch = EXPERIMENT_ARCH
    base, model_a, model_b, calib = trial_inputs(seed)
    profile_base = lewis.profile_model(base, arch, calib, model_id="base")
    guided = [
        lewis.build_plan_lewis(
            lewis.profile_model(model, arch, calib, model_id=model_id), profile_base, EXPERIMENT_BOUNDS, mode="minmax"
        )
        for model_id, model in (("A", model_a), ("B", model_b))
    ]
    paths = []
    for name, ckpt in (("base", base), ("A", model_a), ("B", model_b)):
        paths.append(workdir / f"{name}.safetensors")
        lewis.write_checkpoint(ckpt, paths[-1])
    recipe = lewis.MergeRecipe(
        base_path=str(paths[0]), model_paths=[str(p) for p in paths[1:]], method=method, seed=seed
    )
    plans = {arm: [ARM_PLANS[arm](plan) for plan in guided] for arm in arms}
    losses = {}
    for arm, arm_plans in plans.items():
        merged = lewis.merge(recipe, arm_plans)
        lewis.write_checkpoint(merged, workdir / f"{arm}.safetensors")
        losses[arm] = lewis.eval_loss(merged, arch, calib)
    return Controls(plans, losses)


@dataclass
class TrialResult:
    argmax_block: int
    guided_loss: float
    uniform_loss: float
    plan_a: lewis.SparsityPlan
    plan_b: lewis.SparsityPlan


def run_trial(seed: int, workdir: Path) -> TrialResult:
    """Criteria 8 and 9: the guided and uniform-0.5 arms by TIES, with the guided plans saved as plan_a/b.json."""
    controls = run_controls(seed, workdir, arms=("guided", "uniform"))
    plan_a, plan_b = controls.plans["guided"]
    plan_a.save(workdir / "plan_a.json")
    plan_b.save(workdir / "plan_b.json")
    return TrialResult(
        argmax_block=max(plan_a.densities, key=plan_a.densities.get),
        guided_loss=controls.losses["guided"],
        uniform_loss=controls.losses["uniform"],
        plan_a=plan_a,
        plan_b=plan_b,
    )
