"""End-to-end command-line flows and exit-code contract."""

import json
import math

import numpy as np
import pytest

import lewis
from lewis.cli import main
from lewis.pruning import trim_count


@pytest.fixture
def workspace(tmp_path, small_arch):
    """Arch config, base/fine checkpoints, and a calibration file on disk."""
    small_arch.save(tmp_path / "arch.json")
    base = lewis.random_checkpoint(small_arch, seed=81)
    rng = np.random.default_rng(82)
    fine = lewis.Checkpoint(
        {n: base[n] + 0.2 * rng.standard_normal(base[n].shape) for n in base.names()},
        dict(base.dtypes),
    )
    lewis.write_checkpoint(base, tmp_path / "base.safetensors")
    lewis.write_checkpoint(fine, tmp_path / "fine.safetensors")
    calib = lewis.CalibrationSet(
        samples=[lewis.tokenize("the quick brown fox"), lewis.tokenize("0123456789abcdef")]
    )
    calib.save(tmp_path / "calib.jsonl")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestCapture:
    def test_writes_profile_and_prints_table(self, workspace, capsys):
        code = run([
            "capture", "--model", workspace / "base.safetensors",
            "--arch", workspace / "arch.json", "--calib", workspace / "calib.jsonl",
            "--out", workspace / "base.profile.json",
        ])
        assert code == 0
        profile = lewis.ActivationProfile.load(workspace / "base.profile.json")
        assert sorted(profile.layer_norms) == [0, 1]
        assert profile.num_samples == 2
        out = capsys.readouterr().out
        assert "block" in out and "norm" in out

    def test_base_and_fine_share_layer_ids(self, workspace):
        for tag in ("base", "fine"):
            run([
                "capture", "--model", workspace / f"{tag}.safetensors",
                "--arch", workspace / "arch.json", "--calib", workspace / "calib.jsonl",
                "--out", workspace / f"{tag}.profile.json",
            ])
        a = lewis.ActivationProfile.load(workspace / "base.profile.json")
        b = lewis.ActivationProfile.load(workspace / "fine.profile.json")
        assert sorted(a.layer_norms) == sorted(b.layer_norms)

    def test_missing_calib_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            run([
                "capture", "--model", workspace / "base.safetensors",
                "--arch", workspace / "arch.json", "--out", workspace / "p.json",
            ])
        assert exc.value.code == 2

    def test_fifteen_sample_calibration(self, workspace, small_arch):
        calib = lewis.CalibrationSet(samples=[[i + 1, i + 2, i + 3] for i in range(15)])
        calib.save(workspace / "c15.jsonl")
        code = run([
            "capture", "--model", workspace / "base.safetensors",
            "--arch", workspace / "arch.json", "--calib", workspace / "c15.jsonl",
            "--out", workspace / "p15.json",
        ])
        assert code == 0
        assert lewis.ActivationProfile.load(workspace / "p15.json").num_samples == 15


class TestPlan:
    def _profiles(self, workspace):
        for tag in ("base", "fine"):
            run([
                "capture", "--model", workspace / f"{tag}.safetensors",
                "--arch", workspace / "arch.json", "--calib", workspace / "calib.jsonl",
                "--out", workspace / f"{tag}.profile.json",
            ])

    def test_uniform_baseline(self, workspace):
        code = run([
            "plan", "--mode", "uniform", "--density", "0.5", "--out", workspace / "u.json",
        ])
        assert code == 0
        plan = lewis.SparsityPlan.load(workspace / "u.json")
        assert plan.default_density == 0.5
        assert plan.mode == "uniform"

    def test_lewis_literal_bounds(self, workspace):
        self._profiles(workspace)
        code = run([
            "plan", "--mode", "lewis-literal", "--profile", workspace / "fine.profile.json",
            "--base-profile", workspace / "base.profile.json",
            "--gamma", "0.5", "--epsilon", "0.8", "--out", workspace / "plan.json",
        ])
        assert code == 0
        plan = lewis.SparsityPlan.load(workspace / "plan.json")
        assert all(0.5 <= d <= 0.8 for d in plan.densities.values())

    def test_topk_70_percent(self, workspace):
        self._profiles(workspace)
        code = run([
            "plan", "--mode", "topk", "--k", "70",
            "--profile", workspace / "fine.profile.json",
            "--base-profile", workspace / "base.profile.json",
            "--out", workspace / "topk.json",
        ])
        assert code == 0
        plan = lewis.SparsityPlan.load(workspace / "topk.json")
        expected = math.ceil(0.7 * len(plan.densities))
        assert sum(1 for d in plan.densities.values() if d == 1.0) == expected

    def test_layer_type(self, workspace):
        code = run([
            "plan", "--mode", "layer-type", "--role", "MLP", "--out", workspace / "lt.json",
        ])
        assert code == 0
        plan = lewis.SparsityPlan.load(workspace / "lt.json")
        assert plan.role_overrides["MLP"] == 1.0
        assert plan.role_overrides["Q"] == 0.01

    def test_invalid_bounds_exit_one(self, workspace, capsys):
        self._profiles(workspace)
        code = run([
            "plan", "--mode", "lewis-minmax", "--profile", workspace / "fine.profile.json",
            "--base-profile", workspace / "base.profile.json",
            "--gamma", "0.9", "--epsilon", "0.5", "--out", workspace / "bad.json",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestMerge:
    def test_identity_pipeline(self, workspace):
        code = run([
            "merge", "--base", workspace / "base.safetensors",
            "--model", workspace / "fine.safetensors", "--method", "ties",
            "--out", workspace / "merged.safetensors",
        ])
        assert code == 0
        merged = lewis.read_checkpoint(workspace / "merged.safetensors")
        fine = lewis.read_checkpoint(workspace / "fine.safetensors")
        for name in fine.names():
            np.testing.assert_array_equal(merged[name], fine[name])

    def test_same_seed_byte_identical(self, workspace):
        for tag in ("m1", "m2"):
            run([
                "merge", "--base", workspace / "base.safetensors",
                "--model", workspace / "fine.safetensors", "--method", "dare-ties",
                "--density", "0.5", "--seed", "42",
                "--out", workspace / f"{tag}.safetensors",
            ])
        b1 = (workspace / "m1.safetensors").read_bytes()
        b2 = (workspace / "m2.safetensors").read_bytes()
        assert b1 == b2

    def test_dare_seeds_differ(self, workspace):
        for seed, tag in ((1, "s1"), (2, "s2")):
            run([
                "merge", "--base", workspace / "base.safetensors",
                "--model", workspace / "fine.safetensors", "--method", "dare-linear",
                "--density", "0.5", "--seed", str(seed),
                "--out", workspace / f"{tag}.safetensors",
            ])
        assert (workspace / "s1.safetensors").read_bytes() != (
            workspace / "s2.safetensors"
        ).read_bytes()

    def test_recipe_file(self, workspace):
        recipe = {
            "base_path": "base.safetensors",
            "model_paths": ["fine.safetensors"],
            "alphas": [1.0],
            "method": "ties",
            "plan_refs": 0.5,
            "seed": 7,
        }
        (workspace / "recipe.json").write_text(json.dumps(recipe))
        code = run([
            "merge", "--recipe", workspace / "recipe.json",
            "--out", workspace / "merged.safetensors",
        ])
        assert code == 0
        merged = lewis.read_checkpoint(workspace / "merged.safetensors")
        assert merged.metadata["merge.method"] == "ties"
        assert merged.metadata["merge.seed"] == "7"

    def test_summary_output(self, workspace, capsys):
        run([
            "merge", "--base", workspace / "base.safetensors",
            "--model", workspace / "fine.safetensors", "--density", "0.5",
            "--out", workspace / "merged.safetensors",
        ])
        out = capsys.readouterr().out
        assert "mean density" in out
        assert "0.5000" in out

    def test_same_stem_models_get_distinct_ids(self, workspace, capsys):
        for sub in ("a", "b"):
            (workspace / sub).mkdir()
            (workspace / sub / "m.safetensors").write_bytes(
                (workspace / "fine.safetensors").read_bytes()
            )
        code = run([
            "merge", "--base", workspace / "base.safetensors",
            "--model", workspace / "a" / "m.safetensors",
            "--model", workspace / "b" / "m.safetensors",
            "--density", "0.5", "--out", workspace / "merged.safetensors",
        ])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[3:5]
        assert [row.split()[0] for row in rows] == ["m", "m#1"]
        merged = lewis.read_checkpoint(workspace / "merged.safetensors")
        assert merged.metadata["merge.models"] == "m,m#1"

    def test_missing_base_is_error(self, workspace, capsys):
        code = run([
            "merge", "--model", workspace / "fine.safetensors",
            "--out", workspace / "m.safetensors",
        ])
        assert code == 1


class TestInspectAndEval:
    def test_inspect_trimmed_task_vector(self, workspace, small_arch):
        """Nonzero fractions reflect the per-block plan densities."""
        base = lewis.read_checkpoint(workspace / "base.safetensors")
        fine = lewis.read_checkpoint(workspace / "fine.safetensors")
        tv = lewis.compute_task_vector(base, fine, "m")
        plan = lewis.SparsityPlan(
            model_id="m", mode="lewis-minmax", densities={0: 0.5, 1: 0.75},
            default_density=1.0, bounds=lewis.SparsityBounds(0.5, 0.75),
        )
        pruned = lewis.apply_plan(tv, plan, "magnitude", lewis.role_classifier("toy"))
        trimmed = lewis.Checkpoint(pruned.deltas, dict(base.dtypes))
        lewis.write_checkpoint(trimmed, workspace / "tv.safetensors")

        code = run(["inspect", "--ckpt", workspace / "tv.safetensors"])
        assert code == 0
        roles = lewis.role_classifier("toy")
        for name in trimmed.names():
            role = roles(name)
            if role.block_index is not None:
                density = plan.densities[role.block_index]
                expected = trim_count(density, trimmed[name].size)
                assert abs(np.count_nonzero(trimmed[name]) - expected) <= 1

    def test_inspect_exit_zero(self, workspace, capsys):
        code = run(["inspect", "--ckpt", workspace / "base.safetensors"])
        assert code == 0
        out = capsys.readouterr().out
        assert "embed.weight" in out
        assert "Embedding" in out

    def test_inspect_missing_file(self, workspace):
        code = run(["inspect", "--ckpt", workspace / "nope.safetensors"])
        assert code == 1

    def test_eval_uniform_logits(self, workspace, small_arch, capsys):
        zero = lewis.zero_checkpoint(small_arch)
        lewis.write_checkpoint(zero, workspace / "zero.safetensors")
        code = run([
            "eval", "--ckpt", workspace / "zero.safetensors",
            "--arch", workspace / "arch.json", "--calib", workspace / "calib.jsonl",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        value = float(printed.split("mean cross-entropy:")[1].split()[0])
        assert value == pytest.approx(math.log(256), abs=1e-3)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
