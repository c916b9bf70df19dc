"""End-to-end command-line flows and exit-code contract."""

import io
import json
import math
import os
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lewis
import lewis.cli
import lewis.merge_methods
import lewis.task_vectors
from lewis.cli import main
from lewis.pruning import trim_count
from conftest import mismatched_model, pin_machine


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

    def test_empty_model_id_is_the_id(self, workspace, capsys):
        """An empty --model-id that the user gave is the id, as `lewis plan` reads it."""
        for given, expected in ((["--model-id", ""], ""), ([], "base")):
            code = run([
                "capture", "--model", workspace / "base.safetensors", "--arch", workspace / "arch.json",
                "--calib", workspace / "calib.jsonl", "--out", workspace / "p.json", *given,
            ])
            assert code == 0
            assert lewis.ActivationProfile.load(workspace / "p.json").model_id == expected
            assert capsys.readouterr().out.startswith(f"profiled {expected!r} on 2 samples")

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


# Each plan mode's flags, as the README states them: those it needs, then those it may take.
PLAN_ROWS = {
    "lewis-literal": ({"--profile", "--base-profile"}, {"--gamma", "--epsilon"}),
    "lewis-minmax": ({"--profile", "--base-profile"}, {"--gamma", "--epsilon"}),
    "uniform": ({"--density"}, {"--model-id"}),
    "topk": ({"--profile", "--base-profile", "--k"}, {"--hi", "--lo"}),
    "layer-type": ({"--role"}, {"--hi", "--lo", "--model-id"}),
}
# Valid values for each plan flag but the two profile paths.
PLAN_VALUES = {
    "--gamma": [0.3, 0.5], "--epsilon": [0.8, 0.95], "--density": [0.25, 1.0], "--k": [25.0, 100.0],
    "--role": ["V", "MLP"], "--hi": [0.9, 1.0], "--lo": [0.01, 0.2], "--model-id": ["m7", "code model"],
}
PLAN_FLAGS = ["--profile", "--base-profile", *PLAN_VALUES]


def _expected_plan(workspace, mode, values):
    """The plan a direct builder call makes from `values` (flag -> value), with the defaults of the library."""
    kw = {flag.removeprefix("--").replace("-", "_"): values[flag] for flag in PLAN_ROWS[mode][1] if flag in values}
    if mode == "uniform":
        return lewis.build_plan_uniform(values["--density"], **kw)
    if mode == "layer-type":
        return lewis.build_plan_layer_type(values["--role"], **kw)
    fine = lewis.ActivationProfile.load(workspace / "fine.profile.json")
    base = lewis.ActivationProfile.load(workspace / "base.profile.json")
    if mode == "topk":
        return lewis.build_plan_topk(lewis.importance_deltas(fine, base), values["--k"], model_id=fine.model_id, **kw)
    return lewis.build_plan_lewis(fine, base, lewis.SparsityBounds(**kw), mode.removeprefix("lewis-"))


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

    @pytest.mark.parametrize("flags", [[], ["--hi", "0.9"], ["--lo", "0.2"], ["--hi", "0.7", "--lo", "0.3"]],
                             ids=["defaults", "hi", "lo", "both"])
    @pytest.mark.parametrize("mode", ["topk", "layer-type"])
    def test_unset_hi_and_lo_take_the_builder_defaults(self, workspace, mode, flags):
        kwargs = {flag.removeprefix("--"): float(value) for flag, value in zip(flags[::2], flags[1::2])}
        if mode == "topk":
            self._profiles(workspace)
            fine = lewis.ActivationProfile.load(workspace / "fine.profile.json")
            scores = lewis.importance_deltas(fine, lewis.ActivationProfile.load(workspace / "base.profile.json"))
            expected = lewis.build_plan_topk(scores, 50.0, model_id=fine.model_id, **kwargs)
            args = ["--k", "50", "--profile", workspace / "fine.profile.json",
                    "--base-profile", workspace / "base.profile.json"]
        else:
            expected = lewis.build_plan_layer_type("V", **kwargs)
            args = ["--role", "V"]
        assert run(["plan", "--mode", mode, *args, *flags, "--out", workspace / "p.json"]) == 0
        expected.save(workspace / "expected.json")
        assert (workspace / "p.json").read_bytes() == (workspace / "expected.json").read_bytes()

    def test_flags_follow_the_mode_table(self, workspace):
        """Exit 0 exactly when the flags hold every one the mode needs and none it does not read;
        then the plan's bytes are a direct builder call's. Else exit 1 naming each such flag."""
        self._profiles(workspace)
        paths = {"--profile": workspace / "fine.profile.json", "--base-profile": workspace / "base.profile.json"}

        @settings(max_examples=150, deadline=None)
        @given(mode=st.sampled_from(list(PLAN_ROWS)), flags=st.sets(st.sampled_from(PLAN_FLAGS)), data=st.data())
        def check(mode, flags, data):
            values = {f: paths[f] if f in paths else data.draw(st.sampled_from(PLAN_VALUES[f])) for f in flags}
            for out in ("p.json", "expected.json"):
                (workspace / out).unlink(missing_ok=True)
            argv = ["plan", "--mode", mode, *(str(x) for f in sorted(flags) for x in (f, values[f]))]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = run([*argv, "--out", workspace / "p.json"])
            needs, takes = PLAN_ROWS[mode]
            missing, unread = needs - flags, flags - needs - takes
            if not missing and not unread:
                assert code == 0
                _expected_plan(workspace, mode, values).save(workspace / "expected.json")
                assert (workspace / "p.json").read_bytes() == (workspace / "expected.json").read_bytes()
                return
            assert code == 1 and not (workspace / "p.json").exists()
            head = f"error: mode {mode} "
            assert err.getvalue().startswith(head) and err.getvalue().endswith("\n")
            said = {}
            for part in err.getvalue()[len(head):-1].split("; "):
                what, named = part.split(" --", 1)
                said[what] = set(("--" + named).split(", "))
            assert said == {what: fs for what, fs in (("needs", missing), ("does not read", unread)) if fs}

        check()

    @pytest.mark.parametrize(
        "mode, flag",
        [(mode, flag) for mode, (needs, takes) in PLAN_ROWS.items() for flag in PLAN_FLAGS if flag not in needs | takes],
    )
    def test_flag_outside_the_mode_row_is_named(self, workspace, capsys, mode, flag):
        paths = {"--profile": workspace / "fine.profile.json", "--base-profile": workspace / "base.profile.json"}
        values = {f: paths[f] if f in paths else PLAN_VALUES[f][0] for f in (*PLAN_ROWS[mode][0], flag)}
        self._profiles(workspace)
        capsys.readouterr()
        argv = ["plan", "--mode", mode, *(x for f, v in values.items() for x in (f, v)), "--out", workspace / "p.json"]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: mode {mode} does not read {flag}\n"
        assert not (workspace / "p.json").exists()

    @pytest.mark.parametrize("mode, flags", [("lewis-literal", []), ("lewis-minmax", []), ("topk", ["--k", "50"])])
    def test_profile_without_blocks_is_named_error(self, workspace, capsys, mode, flags):
        path = workspace / "empty.profile.json"
        path.write_text(json.dumps({"model_id": "m", "layer_norms": {}, "num_samples": 1}))
        code = run(["plan", "--mode", mode, "--profile", path, "--base-profile", path, *flags,
                    "--out", workspace / "plan.json"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: layer_norms must hold at least one block\n"

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

    @pytest.mark.parametrize(
        "inline, named",
        [
            (["--base", "base.safetensors"], "--base"),
            (["--model", "fine.safetensors"], "--model"),
            (["--alpha", "2"], "--alpha"),
            (["--method", "dare-ties"], "--method"),
            (["--plan", "p.json"], "--plan"),
            (["--density", "0.5"], "--density"),
            (["--seed", "0"], "--seed"),
            (["--model", "fine.safetensors", "--alpha", "1", "--seed", "3"], "--model, --alpha, --seed"),
        ],
        ids=["base", "model", "alpha", "method", "plan", "density", "seed", "several"],
    )
    def test_recipe_with_inline_flags_is_error(self, workspace, capsys, inline, named):
        lewis.MergeRecipe(base_path="base.safetensors", model_paths=["fine.safetensors"]).save(
            workspace / "recipe.json"
        )
        code = run(["merge", "--recipe", workspace / "recipe.json", *inline,
                    "--out", workspace / "merged.safetensors"])
        assert code == 1
        assert capsys.readouterr().err == f"error: --recipe sets the whole merge; drop {named}\n"
        assert not (workspace / "merged.safetensors").exists()

    def test_summary_output(self, workspace, capsys):
        run([
            "merge", "--base", workspace / "base.safetensors",
            "--model", workspace / "fine.safetensors", "--density", "0.5",
            "--out", workspace / "merged.safetensors",
        ])
        out = capsys.readouterr().out
        assert "mean density" in out
        assert "0.5000" in out

    def test_mean_density_weights_tensors_by_size(self, tmp_path, capsys):
        """A lewis plan gives block 0 (256 elements) 0.8 and block 1 (16) 0.5; the
        16-element embedding takes the default 0.65. The column is the parameter
        budget (16*0.65 + 256*0.8 + 16*0.5) / 288 = 0.775, not the per-tensor 0.65."""
        shapes = {"embed.weight": (4, 4), "blocks.0.mlp.up.weight": (16, 16), "blocks.1.mlp.up.weight": (4, 4)}
        rng = np.random.default_rng(3)
        for tag in ("base", "fine"):
            tensors = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            lewis.write_checkpoint(lewis.Checkpoint(tensors), tmp_path / f"{tag}.safetensors")
        for tag, norms in (("base", {0: 1.0, 1: 1.0}), ("fine", {0: 2.0, 1: 1.0})):
            lewis.ActivationProfile(tag, norms, num_samples=1).save(tmp_path / f"{tag}.profile.json")
        assert run(["plan", "--mode", "lewis-minmax", "--profile", tmp_path / "fine.profile.json",
                    "--base-profile", tmp_path / "base.profile.json", "--out", tmp_path / "plan.json"]) == 0
        capsys.readouterr()
        assert run(["merge", "--base", tmp_path / "base.safetensors", "--model", tmp_path / "fine.safetensors",
                    "--plan", tmp_path / "plan.json", "--out", tmp_path / "merged.safetensors"]) == 0
        assert capsys.readouterr().out.splitlines()[3].split() == ["fine", "lewis-minmax", "0.7750"]

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

    def test_comma_in_a_stem_becomes_an_underscore(self, workspace, capsys):
        """`merge.models` joins the ids with commas, so no id holds one; a clash counts on as usual."""
        paths = [workspace / "a,b.safetensors", workspace / "a_b.safetensors", workspace / "c.safetensors"]
        for path in paths:
            path.write_bytes((workspace / "fine.safetensors").read_bytes())
        code = run(["merge", "--base", workspace / "base.safetensors",
                    *[arg for path in paths for arg in ("--model", path)],
                    "--density", "0.5", "--out", workspace / "merged.safetensors"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[3:6]
        assert [row.split()[0] for row in rows] == ["a_b", "a_b#1", "c"]
        metadata = lewis.read_checkpoint(workspace / "merged.safetensors").metadata
        assert metadata["merge.models"] == "a_b,a_b#1,c"

    def test_stem_that_looks_like_a_suffixed_id_gets_its_own_id(self, workspace, capsys):
        """`x#2` is a stem here, so the second `x` counts on to `x#3`: three ids, three plan digests."""
        paths = [workspace / "x#2.safetensors", workspace / "x.safetensors", workspace / "d" / "x.safetensors"]
        (workspace / "d").mkdir()
        for path in paths:
            path.write_bytes((workspace / "fine.safetensors").read_bytes())
        code = run(["merge", "--base", workspace / "base.safetensors",
                    *[arg for path in paths for arg in ("--model", path)],
                    "--density", "0.5", "--out", workspace / "merged.safetensors"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[3:6]
        assert [row.split()[0] for row in rows] == ["x#2", "x", "x#3"]
        metadata = lewis.read_checkpoint(workspace / "merged.safetensors").metadata
        assert metadata["merge.models"] == "x#2,x,x#3"
        assert sorted(k for k in metadata if k.startswith("merge.plan_digest.")) == [
            "merge.plan_digest.x", "merge.plan_digest.x#2", "merge.plan_digest.x#3"]

    def test_plan_for_another_model_is_named_error(self, workspace, capsys):
        """A plan setting blocks 0-11 does not fit the 2-block base; blocks the plan leaves out take the default."""
        norms = {"base": [1.0] * 12, "fine": [1.0 + 0.1 * i for i in range(12)]}
        for tag, values in norms.items():
            lewis.ActivationProfile(tag, dict(enumerate(values)), 1).save(workspace / f"{tag}12.profile.json")
        assert run(["plan", "--mode", "lewis-minmax", "--profile", workspace / "fine12.profile.json",
                    "--base-profile", workspace / "base12.profile.json", "--out", workspace / "plan.json"]) == 0
        capsys.readouterr()
        assert run(_merge_plan_args(workspace, workspace / "plan.json")) == 1
        assert capsys.readouterr().err == (
            "error: plan for 'fine' sets blocks [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] "
            "that no tensor of the base belongs to\n"
        )
        assert not (workspace / "m.safetensors").exists()
        lewis.SparsityPlan("fine", "uniform", {0: 0.7}, 0.5).save(workspace / "part.json")
        assert run(_merge_plan_args(workspace, workspace / "part.json")) == 0

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

    @pytest.mark.parametrize("out", ["", "."], ids=["empty", "dot"])
    def test_out_that_names_no_file_is_named_error(self, workspace, capsys, monkeypatch, out):
        """pathlib's ValueError for these used to print `PosixPath('.') has an empty name`."""
        monkeypatch.chdir(workspace)
        before = sorted(p.name for p in workspace.iterdir())
        assert run(["merge", "--base", "base.safetensors", "--model", "fine.safetensors", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {out!r} names no file to write\n"
        assert sorted(p.name for p in workspace.iterdir()) == before

    def test_out_under_missing_directory_names_the_out_path(self, workspace, capsys, monkeypatch):
        """The error used to name the temp file beside it, `nodir/.m.safetensors.<hex>.tmp`."""
        monkeypatch.chdir(workspace)
        before = sorted(p.name for p in workspace.iterdir())
        code = run(["merge", "--base", "base.safetensors", "--model", "fine.safetensors", "--out", "nodir/m.safetensors"])
        assert code == 1
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'nodir/m.safetensors'\n"
        assert sorted(p.name for p in workspace.iterdir()) == before

    @pytest.mark.parametrize("density", ["1e-320", "5e-324"])
    def test_dare_density_without_finite_rescale_is_named_error(self, workspace, capsys, density):
        code = run([
            "merge", "--base", workspace / "base.safetensors", "--model", workspace / "fine.safetensors",
            "--method", "dare-linear", "--density", density, "--out", workspace / "m.safetensors",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: tensor 'blocks.0.attn.wk.weight': density {density} has no finite rescale 1/density in float64\n"
        )
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


def test_merge_calls_what_the_traced_benchmark_wraps(workspace, monkeypatch):
    """perfbench's traced run (perfbench/layers.py) measures `lewis merge` by wrapping these
    names and reading these arguments, on the calling thread only: each must be called there."""
    base = lewis.read_checkpoint(workspace / "base.safetensors")
    rng = np.random.default_rng(83)
    second = {n: base[n] - 0.2 * rng.standard_normal(base[n].shape) for n in base.names()}
    lewis.write_checkpoint(lewis.Checkpoint(second, dict(base.dtypes)), workspace / "second.safetensors")
    for model_id, density in (("fine", 0.6), ("second", 0.7)):
        lewis.build_plan_uniform(density, model_id).save(workspace / f"{model_id}.plan.json")
    wrapped = [
        (lewis.merge_methods, "compute_task_vector"),
        (lewis.merge_methods, "apply_plan"),
        (lewis.merge_methods, "ties_combine"),
        (lewis.merge_methods, "finalize_checkpoint"),
        (lewis.task_vectors, "Checkpoint"),
        (lewis.cli, "save_checkpoint"),
    ]
    calls: dict[str, list] = {name: [] for _, name in wrapped}

    def recorder(name, call):
        def recording(*args, **kwargs):
            result = call(*args, **kwargs)
            calls[name].append((threading.get_ident(), args, result))
            return result
        return recording

    for owner, name in wrapped:
        monkeypatch.setattr(owner, name, recorder(name, getattr(owner, name)))
    pin_machine(monkeypatch, cores=2)
    assert run([
        "merge", "--base", workspace / "base.safetensors",
        "--model", workspace / "fine.safetensors", "--model", workspace / "second.safetensors",
        "--plan", workspace / "fine.plan.json", "--plan", workspace / "second.plan.json",
        "--method", "ties", "--out", workspace / "merged.safetensors",
    ]) == 0
    me = threading.get_ident()
    assert [name for name, seen in calls.items() if me not in {thread for thread, _, _ in seen}] == []
    for _, args, result in calls["apply_plan"]:
        tv, plan, mode, roles = args[:4]
        assert isinstance(tv.deltas, dict) and isinstance(plan, lewis.SparsityPlan)
        assert isinstance(mode, str) and callable(roles) and isinstance(result.deltas, dict)
    for _, args, _ in calls["ties_combine"]:
        assert all(isinstance(delta, np.ndarray) for delta in args[0])
        assert len(args[0]) == 2 and len({delta.shape for delta in args[0]}) == 1


def test_consecutive_calls_keep_no_state(monkeypatch):
    """The parser is built once per process, and no flag's values carry from one call to the next,
    not even from a call that ends in a usage error."""
    seen = []

    def recording_recipe(base, models, **fields):
        seen.append([models, fields.get("alphas"), fields.get("plan_refs")])
        raise lewis.MergeError("recorded")

    monkeypatch.setattr(lewis.cli, "MergeRecipe", recording_recipe)
    merge = ["merge", "--base", "b", "--out", "o"]
    assert main([*merge, "--model", "a", "--model", "b", "--alpha", "1", "--alpha", "2", "--plan", "p", "--plan", "q"]) == 1
    assert main([*merge, "--model", "c", "--alpha", "3", "--plan", "r"]) == 1
    with pytest.raises(SystemExit) as usage:
        main([*merge, "--model", "d", "--alpha", "4", "--plan", "s", "--density", "0.5"])
    assert usage.value.code == 2
    assert main([*merge, "--model", "e"]) == 1
    assert seen == [[["a", "b"], [1.0, 2.0], ["p", "q"]], [["c"], [3.0], ["r"]], [["e"], None, None]]
    assert lewis.cli.build_parser() is lewis.cli.build_parser()


def test_runs_without_cpu_affinity(workspace, monkeypatch, capsys):
    """macOS and Windows have no os.sched_getaffinity; merge and a capture whose BLAS
    runs one thread count usable cores, and used to end in an AttributeError."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert run(["merge", "--base", workspace / "base.safetensors", "--model", workspace / "fine.safetensors",
                "--method", "dare-ties", "--density", "0.5", "--out", workspace / "m.safetensors"]) == 0
    assert run(["capture", "--model", workspace / "m.safetensors", "--arch", workspace / "arch.json",
                "--calib", workspace / "calib.jsonl", "--out", workspace / "m.profile.json"]) == 0
    assert run(["eval", "--ckpt", workspace / "m.safetensors", "--arch", workspace / "arch.json",
                "--calib", workspace / "calib.jsonl"]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        "capture --model {ws}/fine.safetensors --arch {ws}/arch.json --calib {nul} --out {ws}/p.json",
        "capture --model {nul} --arch {ws}/arch.json --calib {ws}/calib.jsonl --out {ws}/p.json",
        "plan --mode lewis-minmax --profile {nul} --base-profile {nul} --out {ws}/plan.json",
        "plan --mode uniform --density 0.5 --out {nul}",
        "merge --base {nul} --model {ws}/fine.safetensors --out {ws}/m.safetensors",
        "merge --recipe {nul} --out {ws}/m.safetensors",
        "inspect --ckpt {nul}",
        "eval --ckpt {ws}/base.safetensors --arch {nul} --calib {ws}/calib.jsonl",
    ],
    ids=["capture-calib", "capture-model", "plan-profile", "plan-out", "merge-base", "merge-recipe",
         "inspect", "eval-arch"],
)
def test_path_holding_nul_is_named_error(workspace, capsys, args):
    """Every path the library opens has one rule: a NUL in it is a MergeError and exit 1,
    not the OS call's ValueError traceback."""
    code = run([a.format(ws=workspace, nul=workspace / "a\x00b") for a in args.split()])
    err = capsys.readouterr().err
    assert code == 1 and "holds a NUL byte" in err and "Traceback" not in err


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
            ({"model_id": "m", "mode": "uniform", "default_density": 0.5, "provenance": 5},
             "provenance", _merge_plan_args),
            ({"model_id": "m", "mode": "uniform", "default_density": 0.5, "provenance": {"base_profile": 5}},
             "provenance", _merge_plan_args),
            ({"model_id": "m", "layer_norms": {"0": 10**400}, "num_samples": 1}, "layer_norms", _plan_args),
            ({"model_id": "m", "mode": "uniform", "default_density": 10**400}, "default_density", _merge_plan_args),
            ({"model_id": "m", "layer_norms": {"0": 1.0}, "num_samples": 1, "norm_conventon": "frobenius"},
             "unknown fields ['norm_conventon']", _plan_args),
            ({"model_id": "m", "mode": "lewis-minmax", "default_density": 0.5, "densites": {"0": 0.9}},
             "unknown fields ['densites']", _merge_plan_args),
            ({"hidden_dm": 8}, "unknown fields ['hidden_dm']", _capture_args),
            ({"naming_scheme": 5}, "naming_scheme must be 'toy', got 5", _capture_args),
            ({"naming_scheme": "llama-style"}, "naming_scheme must be 'toy', got 'llama-style'", _capture_args),
            ({"model_id": "m", "mode": "guided", "default_density": 0.5}, "unknown plan mode 'guided'",
             _merge_plan_args),
            ({"model_id": "m", "mode": "layer-type", "default_density": 0.5, "role_overrides": [["Q", 0.5]]},
             "role_overrides", _merge_plan_args),
            ({"model_id": "m", "mode": "layer-type", "default_density": 0.5, "role_overrides": {"Embedding": 0.5}},
             "non-block kind 'Embedding'", _merge_plan_args),
            (_recipe(plan_refs=["a.plan.json", "b.plan.json"]), "1 models but 2 plan refs", _merge_recipe_args),
        ],
        ids=["arch-unknown-key", "profile-no-num_samples", "plan-no-model_id", "recipe-no-base_path",
             "arch-float-heads", "arch-float-seq-len", "arch-bool-blocks",
             "recipe-plan_refs-object", "recipe-plan_refs-str", "recipe-model_paths-str",
             "recipe-alphas-str", "recipe-alphas-bool", "recipe-alphas-null", "recipe-alphas-huge-int",
             "recipe-seed-float", "recipe-seed-bool", "recipe-seed-str",
             "recipe-unknown-alpha", "recipe-unknown-plan_ref", "recipe-unknown-sed", "recipe-unknown-naming_scheme",
             "profile-float-num_samples", "profile-bool-num_samples", "profile-bool-norm", "profile-str-norm",
             "profile-str-layer-id", "profile-int-model_id", "profile-unknown-convention", "plan-bool-default",
             "plan-str-role-override", "plan-bool-bounds", "plan-three-bounds", "plan-bool-density",
             "plan-int-provenance", "plan-int-provenance-digest", "profile-huge-int-norm",
             "plan-huge-int-default", "profile-unknown-norm_conventon", "plan-unknown-densites",
             "arch-unknown-hidden_dm", "arch-int-naming_scheme", "arch-llama-naming_scheme",
             "plan-unknown-mode", "plan-list-role-overrides", "plan-non-block-role-override",
             "recipe-plan_refs-count"],
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

    @pytest.mark.parametrize("args", [_capture_args, _plan_args, _merge_plan_args, _merge_recipe_args],
                             ids=["arch", "profile", "plan", "recipe"])
    def test_deep_nesting_is_named_error(self, workspace, capsys, args):
        path = workspace / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run(args(workspace, path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, where",
        [
            (b'{"tokens": [1, 2]}\n{"tokens": 5}\n', "line 2: field 'tokens'"),
            (b'{"tokens": [1, true]}\n', "line 1: field 'tokens'"),
            (b'{"tokens": [1, 2.5]}\n', "line 1: field 'tokens'"),
            (b'{"tokens": [1, 2]}\n{"tokens": [300]}\n', "line 2: token ids must lie in [0, 256)"),
            (b'\n{"text": 7}\n', "line 2: field 'text'"),
            (b'{"text": "ok"}\nnot json\n', "line 2: not valid JSON"),
            (b'[1, 2, 3]\n', "line 1: must be a JSON object"),
            (b'{"prompt": "nope"}\n', "line 1: record has neither 'text' nor 'tokens'"),
            (b'\n\n', "no calibration records"),
            (b'{"text": "\xff\xfe"}\n', "line 1: not valid JSON"),
            (b'{"text": "ok"}\n' + b"[" * 100_000 + b"]" * 100_000 + b"\n", "line 2: not valid JSON"),
        ],
        ids=["tokens-int", "tokens-bool", "tokens-float", "tokens-oov", "text-int", "not-json", "not-object",
             "no-field", "empty-file", "not-utf8", "deep-nesting"],
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


class TestCheckpointLayout:
    """capture and eval check the checkpoint against the arch before any forward."""

    def _run(self, ws, command, path):
        common = ["--arch", ws / "arch.json", "--calib", ws / "calib.jsonl"]
        if command == "capture":
            return run(["capture", "--model", path, *common, "--out", ws / "p.json"])
        return run(["eval", "--ckpt", path, *common])

    def _write(self, ws, name, tensors):
        path = ws / name
        lewis.write_checkpoint(lewis.Checkpoint(tensors), path)
        return path

    @pytest.mark.parametrize("command", ["capture", "eval"])
    def test_missing_tensor_names_file_tensor_and_shape(self, workspace, capsys, command):
        base = lewis.read_checkpoint(workspace / "base.safetensors")
        tensors = {n: base[n] for n in base.names() if n != "blocks.1.mlp.up.weight"}
        path = self._write(workspace, "lacks.safetensors", tensors)
        assert self._run(workspace, command, path) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: missing tensor 'blocks.1.mlp.up.weight', expected shape [16, 8]\n"
        assert captured.out == ""
        assert not (workspace / "p.json").exists()

    @pytest.mark.parametrize("command", ["capture", "eval"])
    def test_wrong_shape_names_file_tensor_and_both_shapes(self, workspace, capsys, command):
        base = lewis.read_checkpoint(workspace / "base.safetensors")
        tensors = {n: base[n] for n in base.names()}
        tensors["blocks.0.attn.wk.weight"] = np.zeros((8, 4))
        path = self._write(workspace, "shape.safetensors", tensors)
        assert self._run(workspace, command, path) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: tensor 'blocks.0.attn.wk.weight' has shape [8, 4], expected [8, 8]\n"
        )

    def test_capture_needs_no_output_layers(self, workspace, capsys):
        base = lewis.read_checkpoint(workspace / "base.safetensors")
        tensors = {n: base[n] for n in base.names() if n not in ("final_norm.weight", "head.weight")}
        path = self._write(workspace, "body.safetensors", tensors)
        assert self._run(workspace, "capture", path) == 0
        capsys.readouterr()
        assert self._run(workspace, "eval", path) == 1
        assert capsys.readouterr().err == f"error: {path}: missing tensor 'final_norm.weight', expected shape [8]\n"


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

    def test_inspect_lists_merge_metadata(self, workspace, capsys):
        assert run(["merge", "--base", workspace / "base.safetensors", "--model", workspace / "fine.safetensors",
                    "--density", "0.5", "--seed", "3", "--out", workspace / "merged.safetensors"]) == 0
        capsys.readouterr()
        assert run(["inspect", "--ckpt", workspace / "merged.safetensors"]) == 0
        out = capsys.readouterr().out
        plan_digest = lewis.build_plan_uniform(0.5, "fine").digest()
        assert out[out.index("metadata:"):].splitlines() == [
            "metadata:",
            "  merge.alphas = [1.0]",
            "  merge.bounds = [null]",
            "  merge.method = ties",
            "  merge.models = fine",
            f"  merge.plan_digest.fine = {plan_digest}",
            "  merge.seed = 3",
        ]

    def test_inspect_holds_one_tensor_at_a_time(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        tensors = {f"blocks.{i}.mlp.up.weight": rng.standard_normal((512, 512)) for i in range(16)}
        lewis.write_checkpoint(lewis.Checkpoint(tensors), tmp_path / "big.safetensors")
        float64_bytes = sum(arr.nbytes for arr in tensors.values())
        del tensors
        tracemalloc.start()
        try:
            assert run(["inspect", "--ckpt", tmp_path / "big.safetensors"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < float64_bytes / 4
        assert "blocks.15.mlp.up.weight" in capsys.readouterr().out

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

    def test_eval_one_token_sample_names_calib_file(self, workspace, small_arch, capsys):
        arch = workspace / "arch1.json"
        lewis.ArchConfig(**{**vars(small_arch), "max_seq_len": 1}).save(arch)
        calib = workspace / "calib.jsonl"
        code = run(["eval", "--ckpt", workspace / "base.safetensors", "--arch", arch, "--calib", calib])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {calib}: sample 1 has 1 tokens, need >= 2\n"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
