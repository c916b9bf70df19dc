"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report including elapsed times against their runtime budgets.
"""

import math
import time

import numpy as np
import pytest

import lewis
from lewis import (
    Checkpoint,
    MergeRecipe,
    SparsityBounds,
    build_plan_layer_type,
    build_plan_topk,
    compute_task_vector,
    magnitude_trim,
    merge,
    normalize_and_clip,
    random_drop_rescale,
    ties_combine,
    write_checkpoint,
)
from lewis.pruning import trim_count
from lewis.roles import role_classifier

from conftest import random_fixture_checkpoint
from test_merge_methods import disjoint_mean, elect_oracle, elect_sign, mean_oracle
from test_pruning import trim_oracle
import toyexp


class _Timer:
    def __init__(self, number: int, name: str, limit: float):
        self.number, self.name, self.limit = number, name, limit

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.limit:.0f}s"
            )
            print(f"[PASS] criterion {self.number}: {self.name} ({elapsed:.2f}s < {self.limit:.0f}s)")
        else:
            print(f"[FAIL] criterion {self.number}: {self.name}")
        return False


def test_criterion_1_round_trip_fidelity(tmp_path):
    """100 randomized mixed-dtype checkpoints survive write-read bitwise."""
    with _Timer(1, "round-trip fidelity", 5.0):
        rng = np.random.default_rng(1001)
        for i in range(100):
            ckpt = random_fixture_checkpoint(rng, max_tensors=20)
            path = tmp_path / f"c{i}.safetensors"
            write_checkpoint(ckpt, path)
            loaded = lewis.read_checkpoint(path)
            assert loaded.names() == ckpt.names()
            assert loaded.dtypes == ckpt.dtypes
            for name in ckpt.names():
                assert loaded[name].shape == ckpt[name].shape
                np.testing.assert_array_equal(loaded[name], ckpt[name])


def test_criterion_2_trim_oracle():
    """1,000 random (tensor, density) pairs match the full-sort oracle exactly."""
    with _Timer(2, "magnitude-trim oracle", 10.0):
        rng = np.random.default_rng(1002)
        for _ in range(1000):
            n = int(rng.integers(1, 600))
            values = rng.standard_normal(n)
            if rng.random() < 0.2:  # inject magnitude ties and zeros
                values = np.round(values, 1)
            density = float(rng.uniform(0.005, 1.0))
            got = magnitude_trim(values, density)
            np.testing.assert_array_equal(got, trim_oracle(values, density))


def test_criterion_3_dare_unbiasedness():
    """Mean of 10,000 seeded draws on a constant tensor is unbiased."""
    with _Timer(3, "drop-rescale unbiasedness", 30.0):
        n, draws, density = 1000, 10000, 0.5
        values = np.ones(n)
        acc = np.zeros(n)
        for seed in range(draws):
            acc += random_drop_rescale(values, density, seed, "w")
        mean = acc / draws
        # single rescaled draw: E=1, E[x^2]=1/density=2, var=1
        aggregate_se = 1.0 / math.sqrt(n * draws)
        assert abs(mean.mean() - 1.0) < 3 * aggregate_se
        # per-entry screen at 5 SE to absorb the 1000-way multiple comparison
        per_entry_se = 1.0 / math.sqrt(draws)
        assert np.all(np.abs(mean - 1.0) < 5 * per_entry_se)
        # density 1.0 is the exact identity
        probe = np.linspace(-3, 3, 101)
        for seed in (0, 7, 123):
            np.testing.assert_array_equal(random_drop_rescale(probe, 1.0, seed, "w"), probe)


def test_criterion_4_ties_oracles(tmp_path, small_arch):
    """Election/mean match brute force; single-model merge is exact."""
    with _Timer(4, "sign election and disjoint mean oracles", 10.0):
        rng = np.random.default_rng(1004)
        for _ in range(10000):
            length = int(rng.integers(1, 6))
            values = list(rng.standard_normal(length))
            if rng.random() < 0.25:
                values[int(rng.integers(0, length))] = 0.0
            sign = elect_sign(values)
            assert sign == elect_oracle(values)
            assert disjoint_mean(values, sign) == pytest.approx(
                mean_oracle(values, sign), abs=1e-12
            )
            assert ties_combine(np.array(values)[:, None])[0] == pytest.approx(
                mean_oracle(values, elect_oracle(values)), abs=1e-12
            )

        base = lewis.random_checkpoint(small_arch, seed=1004)
        delta_rng = np.random.default_rng(1005)
        fine = Checkpoint(
            {n: base[n] + delta_rng.standard_normal(base[n].shape) for n in base.names()},
            dict(base.dtypes),
        )
        base_path, fine_path = tmp_path / "b.safetensors", tmp_path / "f.safetensors"
        write_checkpoint(base, base_path)
        write_checkpoint(fine, fine_path)
        merged = merge(
            MergeRecipe(base_path=str(base_path), model_paths=[str(fine_path)], method="ties")
        )
        for name in fine.names():
            np.testing.assert_array_equal(merged[name], fine[name])


def test_criterion_5_plan_bounds_and_monotonicity():
    """Lewis densities stay in bounds and track raw deviations."""
    with _Timer(5, "plan bounds and monotonicity", 5.0):
        rng = np.random.default_rng(1005)
        for _ in range(1000):
            n_layers = int(rng.integers(1, 16))
            raw = {l: float(rng.uniform(0, 100)) for l in range(n_layers)}
            gamma = float(rng.uniform(0.01, 0.95))
            epsilon = float(rng.uniform(gamma, 1.0))
            bounds = SparsityBounds(gamma, epsilon)
            mode = "literal" if rng.random() < 0.5 else "minmax"
            densities = normalize_and_clip(raw, bounds, mode)
            ordered = sorted(raw, key=raw.get)
            for l in ordered:
                assert gamma - 1e-12 <= densities[l] <= epsilon + 1e-12
            for l1, l2 in zip(ordered, ordered[1:]):
                assert densities[l2] >= densities[l1] - 1e-12
        worked = normalize_and_clip({0: 2, 1: 3, 2: 5}, SparsityBounds(0.3, 0.8), "literal")
        assert worked == {0: 0.3, 1: 0.3, 2: 0.5}


def test_criterion_6_partial_and_layer_type_modes(small_arch):
    """Top-k% counts over the reference grid; layer-type nonzero budgets."""
    with _Timer(6, "partial and layer-type plan modes", 5.0):
        rng = np.random.default_rng(1006)
        for k in (40.0, 50.0, 60.0, 70.0, 80.0):
            for n_layers in (4, 7, 18, 32):
                raw = {l: float(rng.uniform(0, 1)) for l in range(n_layers)}
                plan = build_plan_topk(raw, k)
                at_hi = sum(1 for d in plan.densities.values() if d == 1.0)
                assert at_hi == math.ceil(k / 100.0 * n_layers)
                assert all(d in (1.0, 0.1) for d in plan.densities.values())

        base = lewis.random_checkpoint(small_arch, seed=1006)
        fine = Checkpoint(
            {n: base[n] + rng.standard_normal(base[n].shape) for n in base.names()},
            dict(base.dtypes),
        )
        tv = compute_task_vector(base, fine, "m")
        roles = role_classifier("toy")
        plan = build_plan_layer_type("MLP")
        pruned = lewis.apply_plan(tv, plan, "magnitude", roles)
        for name in pruned.names():
            kind = roles(name).kind
            nonzeros = np.count_nonzero(pruned[name])
            if kind == "MLP":
                assert nonzeros == pruned[name].size
            else:
                assert nonzeros == trim_count(0.01, pruned[name].size)


def test_criterion_7_analytic_runtime_checks(small_arch):
    """Closed-form values for loss, activation norms, and the zero model."""
    with _Timer(7, "analytic runtime checks", 5.0):
        calib = lewis.CalibrationSet(samples=[[1, 2, 3, 4, 5], [10, 20, 30]])
        zero = lewis.zero_checkpoint(small_arch)
        assert lewis.eval_loss(zero, small_arch, calib) == pytest.approx(
            math.log(256), abs=1e-3
        )
        assert lewis.activation_norm(np.ones((5, 4))) == pytest.approx(2.0)
        profile = lewis.profile_model(zero, small_arch, calib)
        assert all(v == 0.0 for v in profile.layer_norms.values())


def test_criterion_8_directional_experiment(tmp_path):
    """Guided sparsity beats uniform 0.5 on the calibration task, 8/10 seeds."""
    with _Timer(8, "directional toy experiment", 120.0):
        wins = 0
        for seed in range(10):
            workdir = tmp_path / f"trial{seed}"
            workdir.mkdir()
            result = toyexp.run_trial(seed, workdir)
            assert result.argmax_block in (0, 1), (
                f"seed {seed}: guided plan peaked at block {result.argmax_block}"
            )
            wins += result.guided_loss <= result.uniform_loss
        assert wins >= 8, f"guided merge won only {wins}/10 trials"
        print(f"  guided-vs-uniform wins: {wins}/10")


def test_criterion_9_determinism(tmp_path):
    """Repeating one trial reproduces plan files and merged bytes exactly."""
    with _Timer(9, "pipeline determinism", 120.0):
        runs = []
        for tag in ("first", "second"):
            workdir = tmp_path / tag
            workdir.mkdir()
            toyexp.run_trial(3, workdir)
            runs.append(workdir)
        first, second = runs
        for name in ("guided.safetensors", "uniform.safetensors"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("plan_a.json", "plan_b.json"):
            assert (first / name).read_text() == (second / name).read_text()
