"""Sign election, disjoint mean, and the four merge methods.

`elect_sign` and `disjoint_mean` are scalar reference implementations of
TIES's elect-then-mean rule; `ties_combine` must agree with them.
"""

import re
import tracemalloc
from typing import Sequence

import numpy as np
import pytest

import lewis
import lewis.checkpoint
from lewis import (
    Checkpoint,
    MergeRecipe,
    build_plan_uniform,
    merge,
    ties_combine,
    write_checkpoint,
)
from lewis.errors import RecipeError
from lewis.pruning import mix_seed
from lewis.task_vectors import MERGE_METHODS, finalize_checkpoint
from conftest import mismatched_model, reverse_data_region


def elect_sign(values: Sequence[float]) -> int:
    """Sign of the side with greater total magnitude; ties go positive."""
    if len(values) == 0:
        raise ValueError("elect_sign needs at least one value")
    pos = sum(v for v in values if v > 0)
    neg = sum(-v for v in values if v < 0)
    return 1 if pos >= neg else -1


def disjoint_mean(values: Sequence[float], sign: int) -> float:
    """Mean of the values matching `sign` (zeros excluded); 0 if none match."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    agreeing = [v for v in values if v * sign > 0]
    if not agreeing:
        return 0.0
    return float(sum(agreeing) / len(agreeing))


def elect_oracle(values):
    pos = sum(v for v in values if v > 0)
    neg = sum(-v for v in values if v < 0)
    return 1 if pos >= neg else -1


def mean_oracle(values, sign):
    agreeing = [v for v in values if (v > 0 and sign > 0) or (v < 0 and sign < 0)]
    return sum(agreeing) / len(agreeing) if agreeing else 0.0


class TestElectSign:
    def test_majority_magnitude(self):
        assert elect_sign([0.5, -0.2, 0.1]) == 1

    def test_single_negative(self):
        assert elect_sign([-1.0]) == -1

    def test_tie_goes_positive(self):
        assert elect_sign([0.3, -0.3]) == 1

    def test_all_zero(self):
        assert elect_sign([0.0, 0.0]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            elect_sign([])


class TestDisjointMean:
    def test_mean_of_agreeing(self):
        assert disjoint_mean([0.5, -0.2, 0.1], 1) == pytest.approx(0.3)

    def test_empty_agreement_set(self):
        assert disjoint_mean([-0.4], 1) == 0.0

    def test_duplicates(self):
        assert disjoint_mean([0.2, 0.2], 1) == pytest.approx(0.2)

    def test_zeros_excluded(self):
        assert disjoint_mean([0.0, 0.4], 1) == pytest.approx(0.4)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            disjoint_mean([1.0], 0)


class TestAgainstBruteForce:
    def test_scalar_ops_match_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            length = int(rng.integers(1, 6))
            values = list(rng.standard_normal(length))
            if rng.random() < 0.3:
                values[int(rng.integers(0, length))] = 0.0
            sign = elect_sign(values)
            assert sign == elect_oracle(values)
            assert disjoint_mean(values, sign) == pytest.approx(mean_oracle(values, sign))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((4, 250))
        stack[rng.random(stack.shape) < 0.3] = 0.0
        combined = ties_combine(stack)
        for i in range(stack.shape[1]):
            column = list(stack[:, i])
            sign = elect_sign(column)
            assert combined[i] == pytest.approx(mean_oracle(column, sign), abs=1e-12)


def _write_pair(tmp_path, small_arch, delta_scale=0.5, seed=31):
    base = lewis.random_checkpoint(small_arch, seed=seed)
    rng = np.random.default_rng(seed + 1)
    fine = Checkpoint(
        {n: base[n] + delta_scale * rng.standard_normal(base[n].shape) for n in base.names()},
        dict(base.dtypes),
    )
    base_path = tmp_path / "base.safetensors"
    fine_path = tmp_path / "fine.safetensors"
    write_checkpoint(base, base_path)
    write_checkpoint(fine, fine_path)
    return base, fine, base_path, fine_path


class TestMerge:
    def test_single_model_full_density_identity(self, tmp_path, small_arch):
        _, fine, base_path, fine_path = _write_pair(tmp_path, small_arch)
        recipe = MergeRecipe(base_path=str(base_path), model_paths=[str(fine_path)], method="ties")
        merged = merge(recipe)
        for name in fine.names():
            np.testing.assert_array_equal(merged[name], fine[name])

    def test_duplicate_finetunes_match_single(self, tmp_path, small_arch):
        _, fine, base_path, fine_path = _write_pair(tmp_path, small_arch)
        one = merge(
            MergeRecipe(
                base_path=str(base_path), model_paths=[str(fine_path)],
                method="ties", plan_refs=0.5,
            )
        )
        two = merge(
            MergeRecipe(
                base_path=str(base_path), model_paths=[str(fine_path), str(fine_path)],
                method="ties", plan_refs=0.5,
            )
        )
        for name in fine.names():
            np.testing.assert_allclose(two[name], one[name], atol=1e-12)

    def test_identical_vectors_idempotent(self, tmp_path, small_arch):
        base, fine, base_path, fine_path = _write_pair(tmp_path, small_arch)
        merged = merge(
            MergeRecipe(
                base_path=str(base_path), model_paths=[str(fine_path), str(fine_path)],
                method="ties",
            )
        )
        for name in fine.names():
            np.testing.assert_allclose(merged[name], fine[name], atol=1e-12)

    def test_unanimous_signs_equal_plain_mean(self, tmp_path, small_arch):
        base = lewis.random_checkpoint(small_arch, seed=41)
        rng = np.random.default_rng(42)
        d1 = {n: np.abs(rng.standard_normal(base[n].shape)) + 0.1 for n in base.names()}
        d2 = {n: np.abs(rng.standard_normal(base[n].shape)) + 0.1 for n in base.names()}
        f1 = Checkpoint({n: base[n] + d1[n] for n in base.names()}, dict(base.dtypes))
        f2 = Checkpoint({n: base[n] + d2[n] for n in base.names()}, dict(base.dtypes))
        paths = []
        for tag, ck in (("base", base), ("f1", f1), ("f2", f2)):
            p = tmp_path / f"{tag}.safetensors"
            write_checkpoint(ck, p)
            paths.append(p)
        merged = merge(
            MergeRecipe(base_path=str(paths[0]), model_paths=[str(paths[1]), str(paths[2])],
                        method="ties")
        )
        for name in base.names():
            expected = base[name] + (f1[name] - base[name] + f2[name] - base[name]) / 2
            np.testing.assert_allclose(merged[name], expected, atol=1e-6)

    def test_deterministic_given_seed(self, tmp_path, small_arch):
        _, _, base_path, fine_path = _write_pair(tmp_path, small_arch)
        recipe = MergeRecipe(
            base_path=str(base_path), model_paths=[str(fine_path)],
            method="dare-ties", plan_refs=0.5, seed=77,
        )
        assert merge(recipe) == merge(recipe)

    def test_dare_seed_changes_result(self, tmp_path, small_arch):
        _, _, base_path, fine_path = _write_pair(tmp_path, small_arch)
        kwargs = dict(
            base_path=str(base_path), model_paths=[str(fine_path)],
            method="dare-linear", plan_refs=0.5,
        )
        a = merge(MergeRecipe(seed=1, **kwargs))
        b = merge(MergeRecipe(seed=2, **kwargs))
        assert any(not np.array_equal(a[n], b[n]) for n in a.names())

    def test_dare_models_get_independent_streams(self, tmp_path, small_arch):
        _, fine, base_path, fine_path = _write_pair(tmp_path, small_arch)
        merged = merge(
            MergeRecipe(
                base_path=str(base_path), model_paths=[str(fine_path), str(fine_path)],
                method="dare-linear", plan_refs=0.5, alphas=[1.0, -1.0], seed=3,
            )
        )
        base = lewis.read_checkpoint(base_path)
        # identical inputs with opposite alphas cancel only if drop masks matched
        assert any(not np.array_equal(merged[n], base[n]) for n in merged.names())

    def test_methods_dispatch_differently(self, tmp_path, small_arch):
        _, _, base_path, fine_path = _write_pair(tmp_path, small_arch)
        results = {}
        for method in ("task-arithmetic", "ties", "dare-linear", "dare-ties"):
            recipe = MergeRecipe(
                base_path=str(base_path), model_paths=[str(fine_path)],
                method=method, plan_refs=0.5, seed=5,
            )
            results[method] = merge(recipe)
        assert any(
            not np.array_equal(results["ties"][n], results["dare-linear"][n])
            for n in results["ties"].names()
        )
        # magnitude trim then elect-of-one equals plain add of the trimmed delta
        for name in results["ties"].names():
            np.testing.assert_array_equal(
                results["ties"][name], results["task-arithmetic"][name]
            )

    def test_output_keyset_and_shapes_match_base(self, tmp_path, small_arch):
        base, _, base_path, fine_path = _write_pair(tmp_path, small_arch)
        merged = merge(
            MergeRecipe(base_path=str(base_path), model_paths=[str(fine_path)], plan_refs=0.5)
        )
        assert merged.names() == base.names()
        assert merged.shapes() == base.shapes()
        assert merged.dtypes == base.dtypes

    def test_metadata_records_run(self, tmp_path, small_arch):
        _, _, base_path, fine_path = _write_pair(tmp_path, small_arch)
        merged = merge(
            MergeRecipe(
                base_path=str(base_path), model_paths=[str(fine_path)],
                method="dare-ties", plan_refs=0.5, seed=123,
            )
        )
        meta = merged.metadata
        assert meta["merge.method"] == "dare-ties"
        assert meta["merge.seed"] == "123"
        assert "merge.bounds" in meta
        assert any(key.startswith("merge.plan_digest.") for key in meta)

    def test_plan_count_mismatch(self, tmp_path, small_arch):
        _, _, base_path, fine_path = _write_pair(tmp_path, small_arch)
        recipe = MergeRecipe(base_path=str(base_path), model_paths=[str(fine_path)])
        with pytest.raises(RecipeError, match="plans"):
            merge(recipe, [build_plan_uniform(0.5, "a"), build_plan_uniform(0.5, "b")])

    def test_two_model_nonzero_budgets_follow_each_plan(self, tmp_path, small_arch):
        """Uniform-0.5 and guided plans both yield valid merges whose pruned
        deltas carry exactly the per-tensor budgets their plan dictates."""
        base = lewis.random_checkpoint(small_arch, seed=91)
        rng = np.random.default_rng(92)
        fts = []
        for _ in range(2):
            fts.append(Checkpoint(
                {n: base[n] + rng.standard_normal(base[n].shape) for n in base.names()},
                dict(base.dtypes),
            ))
        roles = lewis.role_classifier("toy")
        guided = lewis.SparsityPlan(
            model_id="g", mode="lewis-minmax", densities={0: 0.5, 1: 0.8},
            default_density=0.65, bounds=lewis.SparsityBounds(0.5, 0.8),
        )
        uniform = build_plan_uniform(0.5, "u")
        for plan in (guided, uniform):
            for ft in fts:
                tv = lewis.compute_task_vector(base, ft, "m")
                pruned = lewis.apply_plan(tv, plan, "magnitude", roles)
                for name in pruned.names():
                    density = plan.density_for(roles(name), name)
                    from lewis.pruning import trim_count
                    assert np.count_nonzero(pruned[name]) == trim_count(
                        density, pruned[name].size
                    )
        paths = [tmp_path / "base.safetensors"]
        write_checkpoint(base, paths[0])
        for i, ft in enumerate(fts):
            paths.append(tmp_path / f"f{i}.safetensors")
            write_checkpoint(ft, paths[-1])
        recipe = MergeRecipe(
            base_path=str(paths[0]), model_paths=[str(paths[1]), str(paths[2])],
            method="ties",
        )
        for plans in ([guided, guided], [uniform, uniform]):
            merged = merge(recipe, plans)
            assert merged.names() == base.names()
            assert all(np.all(np.isfinite(merged[n])) for n in merged.names())

    @pytest.mark.parametrize("method", MERGE_METHODS)
    def test_merge_matches_public_recomposition(self, tmp_path, small_arch, method):
        """merge() writes the bytes of task vector -> prune -> combine -> finalize."""
        base = lewis.random_checkpoint(small_arch, seed=61)
        rng = np.random.default_rng(62)
        paths = []
        for i in range(2):
            fine = Checkpoint(
                {n: base[n] + rng.standard_normal(base[n].shape) for n in base.names()},
                dict(base.dtypes),
            )
            paths.append(tmp_path / f"f{i}.safetensors")
            write_checkpoint(fine, paths[-1])
        write_checkpoint(base, tmp_path / "base.safetensors")
        plans = [
            build_plan_uniform(0.5, "f0"),
            lewis.SparsityPlan(model_id="f1", mode="lewis-minmax", densities={0: 0.4, 1: 0.9},
                               default_density=0.65),
        ]
        recipe = MergeRecipe(
            base_path=str(tmp_path / "base.safetensors"), model_paths=[str(p) for p in paths],
            alphas=[0.7, -1.3], method=method, seed=17,
        )
        merged = merge(recipe, plans)

        base = lewis.read_checkpoint(recipe.base_path)
        roles = lewis.role_classifier("toy")
        mode = "magnitude" if method in ("task-arithmetic", "ties") else "random"
        pruned = [
            lewis.apply_plan(
                lewis.compute_task_vector(base, lewis.read_checkpoint(path), f"f{p}"),
                plan, mode, roles, seed=mix_seed(recipe.seed, f"model-{p}"),
            )
            for p, (path, plan) in enumerate(zip(paths, plans))
        ]
        if method in ("task-arithmetic", "dare-linear"):
            expected = lewis.assemble_merged(base, pruned, recipe.alphas, merged.metadata)
        else:
            tensors = {
                n: base[n] + ties_combine(
                    np.stack([a * tv[n] for tv, a in zip(pruned, recipe.alphas)])
                )
                for n in base.names()
            }
            expected = finalize_checkpoint(tensors, base, merged.metadata)
        write_checkpoint(merged, tmp_path / "merged.safetensors")
        write_checkpoint(expected, tmp_path / "expected.safetensors")
        assert (tmp_path / "merged.safetensors").read_bytes() == (
            tmp_path / "expected.safetensors"
        ).read_bytes()


class TestStreamedMerge:
    @pytest.mark.parametrize("kind", ["missing", "extra", "shape"])
    def test_mismatched_model_named_before_any_tensor_read(
        self, tmp_path, small_arch, monkeypatch, kind
    ):
        base = lewis.random_checkpoint(small_arch, seed=41)
        model, error, tensor = mismatched_model(base, kind)
        for name, ckpt in (("base", base), ("good", base), ("fine", model)):
            write_checkpoint(ckpt, tmp_path / f"{name}.safetensors")
        recipe = MergeRecipe(
            base_path=str(tmp_path / "base.safetensors"),
            model_paths=[str(tmp_path / "good.safetensors"), str(tmp_path / "fine.safetensors")],
        )

        def no_read(self, name):
            raise AssertionError(f"tensor {name!r} read before the inputs were checked")

        monkeypatch.setattr(lewis.checkpoint.CheckpointFile, "__getitem__", no_read)
        with pytest.raises(error, match=rf"'fine'.*'{re.escape(tensor)}'"):
            merge(recipe)

    @pytest.mark.parametrize("form", ["reversed"])
    def test_input_layout_does_not_change_merged_bytes(self, tmp_path, small_arch, form):
        """Inputs whose data regions store tensors in reverse name order merge
        to the bytes of canonical inputs."""
        _write_pair(tmp_path, small_arch)
        (tmp_path / "r").mkdir()
        for name in ("base", "fine"):
            reverse_data_region(tmp_path / f"{name}.safetensors", tmp_path / "r" / f"{name}.safetensors")
        outputs = []
        for d in (tmp_path, tmp_path / "r"):
            recipe = MergeRecipe(
                base_path=str(d / "base.safetensors"), model_paths=[str(d / "fine.safetensors")],
                method="dare-ties", plan_refs=0.5, seed=5,
            )
            write_checkpoint(merge(recipe), d / "merged.safetensors")
            outputs.append((d / "merged.safetensors").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("method", ["ties", "dare-linear"])
    def test_peak_memory_below_two_and_a_half_base_copies(self, tmp_path, method):
        """merge + write of 3 models holds the output and one tensor of each input,
        never a whole-model copy of an input."""
        arch = lewis.ArchConfig(hidden_dim=128, num_blocks=6, num_heads=4, mlp_dim=512)
        base = lewis.random_checkpoint(arch, seed=51)
        assert base.num_elements() >= 1_000_000
        base_f64_bytes = 8 * base.num_elements()
        rng = np.random.default_rng(52)
        write_checkpoint(base, tmp_path / "base.safetensors")
        for i in range(3):
            fine = Checkpoint(
                {n: base[n] + 0.01 * rng.standard_normal(base[n].shape) for n in base.names()}
            )
            write_checkpoint(fine, tmp_path / f"f{i}.safetensors")
        del base, fine
        recipe = MergeRecipe(
            base_path=str(tmp_path / "base.safetensors"),
            model_paths=[str(tmp_path / f"f{i}.safetensors") for i in range(3)],
            method=method, plan_refs=0.6, seed=3,
        )
        tracemalloc.start()
        try:
            write_checkpoint(merge(recipe), tmp_path / "merged.safetensors")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * base_f64_bytes, f"peak {peak / base_f64_bytes:.2f} base copies"
