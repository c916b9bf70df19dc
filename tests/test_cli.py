"""End-to-end command-line flows and exit-code contract."""

import json
import math

import numpy as np
import pytest

import lewis
from lewis.cli import main
from lewis.pruning import trim_count
from conftest import mismatched_model


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
        assert plan.model_id == lewis.ActivationProfile.load(workspace / "fine.profile.json").model_id
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

    @pytest.mark.parametrize("kind", ["missing", "extra", "shape"])
    def test_mismatched_model_is_named_error(self, workspace, capsys, kind):
        base = lewis.read_checkpoint(workspace / "base.safetensors")
        model, _, tensor = mismatched_model(base, kind)
        lewis.write_checkpoint(model, workspace / "odd.safetensors")
        before = sorted(p.name for p in workspace.iterdir())
        code = run([
            "merge", "--base", workspace / "base.safetensors",
            "--model", workspace / "fine.safetensors", "--model", workspace / "odd.safetensors",
            "--out", workspace / "m.safetensors",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: task vector for 'odd'") and f"'{tensor}'" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in workspace.iterdir()) == before

    @pytest.mark.parametrize("command", ["merge", "inspect"])
    def test_scheme_option_is_gone(self, workspace, command):
        """The naming scheme comes from the tensor names; no option sets it."""
        if command == "merge":
            args = ["merge", "--base", workspace / "base.safetensors",
                    "--model", workspace / "fine.safetensors", "--out", workspace / "m.safetensors"]
        else:
            args = ["inspect", "--ckpt", workspace / "base.safetensors"]
        with pytest.raises(SystemExit) as exc:
            run([*args, "--scheme", "toy"])
        assert exc.value.code == 2

    def test_plan_and_density_are_exclusive(self, workspace, capsys):
        lewis.build_plan_uniform(0.5).save(workspace / "u.json")
        with pytest.raises(SystemExit) as exc:
            run([
                "merge", "--base", workspace / "base.safetensors",
                "--model", workspace / "fine.safetensors", "--plan", workspace / "u.json",
                "--density", "0.9", "--out", workspace / "m.safetensors",
            ])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not (workspace / "m.safetensors").exists()

    def test_out_may_be_the_base(self, workspace):
        args = [
            "merge", "--base", workspace / "base.safetensors",
            "--model", workspace / "fine.safetensors",
            "--method", "dare-ties", "--density", "0.5", "--seed", "4", "--out",
        ]
        assert run([*args, workspace / "fresh.safetensors"]) == 0
        assert run([*args, workspace / "base.safetensors"]) == 0
        assert (workspace / "base.safetensors").read_bytes() == (
            workspace / "fresh.safetensors"
        ).read_bytes()


def _capture_args(ws, doc):
    return ["capture", "--model", ws / "fine.safetensors", "--arch", doc,
            "--calib", ws / "calib.jsonl", "--out", ws / "p.json"]


def _plan_args(ws, doc):
    return ["plan", "--mode", "lewis-minmax", "--profile", doc, "--base-profile", doc,
            "--out", ws / "plan.json"]


def _merge_plan_args(ws, doc):
    return ["merge", "--base", ws / "base.safetensors", "--model", ws / "fine.safetensors",
            "--plan", doc, "--out", ws / "m.safetensors"]


def _merge_recipe_args(ws, doc):
    return ["merge", "--recipe", doc, "--out", ws / "m.safetensors"]


def _recipe(**fields):
    return {"base_path": "base.safetensors", "model_paths": ["fine.safetensors"], **fields}


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "doc, field, args",
        [
            ({"vocab_size": 256, "depth": 3}, "depth", _capture_args),
            ({"model_id": "m", "layer_norms": {"0": 1.0}}, "num_samples", _plan_args),
            ({"mode": "uniform", "default_density": 0.5}, "model_id", _merge_plan_args),
            ({"model_paths": ["fine.safetensors"]}, "base_path", _merge_recipe_args),
            ({"num_heads": 2.0}, "num_heads", _capture_args),
            ({"max_seq_len": 16.0}, "max_seq_len", _capture_args),
            ({"num_blocks": True}, "num_blocks", _capture_args),
            (_recipe(plan_refs={"a": 1}), "plan_refs", _merge_recipe_args),
            (_recipe(plan_refs="x"), "plan_refs", _merge_recipe_args),
            (_recipe(model_paths="fine.safetensors"), "model_paths", _merge_recipe_args),
            (_recipe(model_paths=["fine.safetensors"] * 2, alphas="12"), "alphas", _merge_recipe_args),
            (_recipe(alphas=[True]), "alphas", _merge_recipe_args),
            (_recipe(alphas=[None]), "alphas", _merge_recipe_args),
            (_recipe(alphas=[10**400]), "alphas", _merge_recipe_args),
            (_recipe(seed=1.7), "seed", _merge_recipe_args),
            (_recipe(seed=True), "seed", _merge_recipe_args),
            (_recipe(seed="7"), "seed", _merge_recipe_args),
            (_recipe(alpha=[2.0]), "'alpha'", _merge_recipe_args),
            (_recipe(plan_ref=0.5), "'plan_ref'", _merge_recipe_args),
            (_recipe(sed=3), "'sed'", _merge_recipe_args),
            (_recipe(naming_scheme="toy"), "'naming_scheme'", _merge_recipe_args),
            ({"model_id": "m", "layer_norms": {"0": 1.0}, "num_samples": 2.7}, "num_samples", _plan_args),
            ({"model_id": "m", "layer_norms": {"0": 1.0}, "num_samples": True}, "num_samples", _plan_args),
            ({"model_id": "m", "layer_norms": {"0": True}, "num_samples": 1}, "layer_norms", _plan_args),
            ({"model_id": "m", "layer_norms": {"0": "2.5"}, "num_samples": 1}, "layer_norms", _plan_args),
            ({"model_id": "m", "layer_norms": {"x": 1.0}, "num_samples": 1}, "layer_norms", _plan_args),
            ({"model_id": 5, "layer_norms": {"0": 1.0}, "num_samples": 1}, "model_id", _plan_args),
            ({"model_id": "m", "layer_norms": {"0": 1.0}, "num_samples": 1, "norm_convention": "nuclear"},
             "norm_convention", _plan_args),
            ({"model_id": "m", "mode": "uniform", "default_density": True}, "default_density", _merge_plan_args),
            ({"model_id": "m", "mode": "layer-type", "default_density": 0.5, "role_overrides": {"Q": "0.5"}},
             "role_overrides", _merge_plan_args),
            ({"model_id": "m", "mode": "uniform", "default_density": 0.5, "bounds": [True, 1]},
             "bounds", _merge_plan_args),
            ({"model_id": "m", "mode": "uniform", "default_density": 0.5, "bounds": [0.5, 0.8, 0.9]},
             "bounds", _merge_plan_args),
            ({"model_id": "m", "mode": "lewis-minmax", "densities": {"0": True, "1": 0.5}},
             "densities", _merge_plan_args),
        ],
        ids=["arch-unknown-key", "profile-no-num_samples", "plan-no-model_id", "recipe-no-base_path",
             "arch-float-heads", "arch-float-seq-len", "arch-bool-blocks",
             "recipe-plan_refs-object", "recipe-plan_refs-str", "recipe-model_paths-str",
             "recipe-alphas-str", "recipe-alphas-bool", "recipe-alphas-null", "recipe-alphas-huge-int",
             "recipe-seed-float", "recipe-seed-bool", "recipe-seed-str",
             "recipe-unknown-alpha", "recipe-unknown-plan_ref", "recipe-unknown-sed", "recipe-unknown-naming_scheme",
             "profile-float-num_samples", "profile-bool-num_samples", "profile-bool-norm", "profile-str-norm",
             "profile-str-layer-id", "profile-int-model_id", "profile-unknown-convention", "plan-bool-default",
             "plan-str-role-override", "plan-bool-bounds", "plan-three-bounds", "plan-bool-density"],
    )
    def test_named_error_not_traceback(self, workspace, capsys, doc, field, args):
        path = workspace / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(args(workspace, path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(path) in err and field in err
        assert "Traceback" not in err


    def test_constructor_error_names_plan_file(self, workspace, capsys):
        path = workspace / "plan.json"
        path.write_text(json.dumps({"model_id": "m", "mode": "uniform", "default_density": 2.0}))
        assert run(_merge_plan_args(workspace, path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "default_density" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "content, where",
        [
            (b'{"tokens": [1, 2]}\n{"tokens": 5}\n', "line 2: field 'tokens'"),
            (b'{"tokens": [1, true]}\n', "line 1: field 'tokens'"),
            (b'{"tokens": [1, 2.5]}\n', "line 1: field 'tokens'"),
            (b'{"tokens": [1, 2]}\n{"tokens": [300]}\n', "line 2: token ids must lie in [0, 256)"),
            (b'\n{"text": 7}\n', "line 2: field 'text'"),
            (b'{"text": "ok"}\nnot json\n', "line 2: not valid JSON"),
            (b'[1, 2, 3]\n', "line 1: record must be an object"),
            (b'{"prompt": "nope"}\n', "line 1: record has neither 'text' nor 'tokens'"),
            (b'\n\n', "no calibration records"),
            (b'{"text": "\xff\xfe"}\n', "not UTF-8 text"),
        ],
        ids=["tokens-int", "tokens-bool", "tokens-float", "tokens-oov", "text-int", "not-json", "not-object",
             "no-field", "empty-file", "not-utf8"],
    )
    def test_malformed_calibration(self, workspace, capsys, content, where):
        path = workspace / "bad.jsonl"
        path.write_bytes(content)
        code = run(["capture", "--model", workspace / "fine.safetensors",
                    "--arch", workspace / "arch.json", "--calib", path, "--out", workspace / "p.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {where}")
        assert "Traceback" not in err


    def test_token_beyond_int64_is_named_error(self, workspace, capsys):
        path = workspace / "big.jsonl"
        path.write_text(json.dumps({"tokens": [1, 10**30]}) + "\n")
        code = run(["capture", "--model", workspace / "fine.safetensors",
                    "--arch", workspace / "arch.json", "--calib", path, "--out", workspace / "p.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 1: token ids must lie in [0, 256)")
        assert "Traceback" not in err


def _nonfinite_model(ws, value: float):
    """fine.safetensors with one weight set to `value`, saved as bad.safetensors."""
    fine = lewis.read_checkpoint(ws / "fine.safetensors")
    tensors = dict(fine.tensors)
    tensors["blocks.1.attn.wq.weight"] = tensors["blocks.1.attn.wq.weight"].copy()
    tensors["blocks.1.attn.wq.weight"][0, 1] = value
    path = ws / "bad.safetensors"
    lewis.write_checkpoint(lewis.Checkpoint(tensors, dict(fine.dtypes)), path)
    return path


class TestNonFiniteWeights:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("command", ["capture", "eval"])
    def test_rejected_naming_file_and_tensor(self, workspace, capsys, command, value):
        path = _nonfinite_model(workspace, value)
        common = ["--arch", workspace / "arch.json", "--calib", workspace / "calib.jsonl"]
        if command == "capture":
            args = ["capture", "--model", path, *common, "--out", workspace / "p.json"]
        else:
            args = ["eval", "--ckpt", path, *common]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: tensor 'blocks.1.attn.wq.weight'")
        assert "cross-entropy" not in captured.out
        assert not (workspace / "p.json").exists()

    @pytest.mark.parametrize("density", ["0.5", "1.0"])
    @pytest.mark.parametrize("method", ["ties", "task-arithmetic", "dare-linear", "dare-ties"])
    def test_merge_rejects_naming_file_and_tensor(self, workspace, capsys, method, density):
        path = _nonfinite_model(workspace, math.nan)
        code = run([
            "merge", "--base", workspace / "base.safetensors", "--model", workspace / "fine.safetensors",
            "--model", path, "--method", method, "--density", density, "--out", workspace / "m.safetensors",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: tensor 'blocks.1.attn.wq.weight'")
        assert "Traceback" not in err
        assert not (workspace / "m.safetensors").exists()

    def test_merge_rejects_non_finite_base(self, workspace, capsys):
        path = _nonfinite_model(workspace, math.inf)
        code = run([
            "merge", "--base", path, "--model", workspace / "fine.safetensors",
            "--out", workspace / "m.safetensors",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: tensor 'blocks.1.attn.wq.weight'")
        assert not (workspace / "m.safetensors").exists()

    def test_inspect_still_reports(self, workspace, capsys):
        path = _nonfinite_model(workspace, math.nan)
        assert run(["inspect", "--ckpt", path]) == 0
        assert "blocks.1.attn.wq.weight" in capsys.readouterr().out


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
