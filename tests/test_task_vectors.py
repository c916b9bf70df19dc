"""Task-vector extraction, merged assembly, and recipe validation."""

import numpy as np
import pytest

from lewis import (
    Checkpoint,
    MergeRecipe,
    TaskVector,
    assemble_merged,
    compute_task_vector,
)
from lewis.errors import KeysetMismatchError, RecipeError, ShapeMismatchError


class TestComputeTaskVector:
    def test_identity_gives_zeros(self, toy_pair):
        base, _ = toy_pair
        tv = compute_task_vector(base, base, "self")
        assert all(np.all(tv[n] == 0) for n in tv.names())

    def test_elementwise_difference(self):
        base = Checkpoint({"w": np.array([1.0, 2.0])})
        fine = Checkpoint({"w": np.array([1.5, 1.0])})
        tv = compute_task_vector(base, fine, "m")
        np.testing.assert_array_equal(tv["w"], [0.5, -1.0])

    def test_reconstruction(self, toy_pair):
        base, fine = toy_pair
        tv = compute_task_vector(base, fine, "m")
        for name in base.names():
            rebuilt = base[name] + tv[name]
            np.testing.assert_allclose(rebuilt, fine[name], rtol=1e-6)

    def test_keyset_mismatch_lists_names(self):
        base = Checkpoint({"a": np.ones(2), "b": np.ones(2)})
        fine = Checkpoint({"a": np.ones(2), "c": np.ones(2)})
        with pytest.raises(KeysetMismatchError, match=r"\['b'\].*\['c'\]"):
            compute_task_vector(base, fine, "m")

    def test_shape_mismatch_names_shapes(self):
        base = Checkpoint({"w": np.ones(2)})
        fine = Checkpoint({"w": np.ones(3)})
        with pytest.raises(ShapeMismatchError, match=r"\[2\].*\[3\]"):
            compute_task_vector(base, fine, "m")

    def test_keyset_matches_base(self, toy_pair):
        base, fine = toy_pair
        tv = compute_task_vector(base, fine, "m")
        assert tv.names() == base.names()


class TestAssembleMerged:
    def test_alpha_one(self):
        base = Checkpoint({"w": np.array([1.0])})
        tv = compute_task_vector(base, Checkpoint({"w": np.array([1.2])}), "m")
        merged = assemble_merged(base, [tv], [1.0])
        np.testing.assert_allclose(merged["w"], [1.2])

    def test_alpha_half(self):
        base = Checkpoint({"w": np.array([1.0])})
        tv = compute_task_vector(base, Checkpoint({"w": np.array([1.2])}), "m")
        merged = assemble_merged(base, [tv], [0.5])
        np.testing.assert_allclose(merged["w"], [1.1])

    def test_cancellation(self):
        base = Checkpoint({"w": np.array([1.0])})
        up = compute_task_vector(base, Checkpoint({"w": np.array([1.2])}), "a")
        down = compute_task_vector(base, Checkpoint({"w": np.array([0.8])}), "b")
        merged = assemble_merged(base, [up, down], [1.0, 1.0])
        np.testing.assert_allclose(merged["w"], [1.0])

    def test_linearity_in_alpha(self, toy_pair):
        base, fine = toy_pair
        tv = compute_task_vector(base, fine, "m")
        scale = 0.37
        merged_scaled = assemble_merged(base, [tv], [scale])
        merged_full = assemble_merged(base, [tv], [1.0])
        for name in base.names():
            lhs = merged_scaled[name]
            rhs = base[name] + scale * (merged_full[name] - base[name])
            np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_inputs_not_modified(self, toy_pair):
        base, fine = toy_pair
        tv = compute_task_vector(base, fine, "m")
        snapshot = {n: base[n].copy() for n in base.names()}
        delta_snapshot = {n: tv[n].copy() for n in tv.names()}
        assemble_merged(base, [tv], [2.0])
        for name in base.names():
            np.testing.assert_array_equal(base[name], snapshot[name])
            np.testing.assert_array_equal(tv[name], delta_snapshot[name])

    def test_full_density_identity(self, toy_pair):
        base, fine = toy_pair
        tv = compute_task_vector(base, fine, "m")
        merged = assemble_merged(base, [tv], [1.0])
        for name in base.names():
            np.testing.assert_array_equal(merged[name], fine[name])

    def test_non_finite_reported(self):
        base = Checkpoint({"w": np.array([1.0])})
        huge = Checkpoint({"w": np.array([3.0e38])})  # snaps to f32 inf - f32 max
        tv = compute_task_vector(base, huge, "m")
        with pytest.raises(RecipeError, match="'w'"):
            assemble_merged(base, [tv], [1e30])

    def test_length_mismatch(self):
        base = Checkpoint({"w": np.ones(2)})
        tv = compute_task_vector(base, base, "m")
        with pytest.raises(RecipeError):
            assemble_merged(base, [tv], [1.0, 2.0])

    def test_broadcastable_delta_shape_rejected(self):
        base = Checkpoint({"w": np.ones(3)})
        tv = TaskVector(deltas={"w": np.ones(1)}, source_model_id="m")
        with pytest.raises(ShapeMismatchError, match=r"\[3\].*\[1\]"):
            assemble_merged(base, [tv], [1.0])

    def test_metadata_attached(self):
        base = Checkpoint({"w": np.ones(2)})
        tv = compute_task_vector(base, base, "m")
        merged = assemble_merged(base, [tv], [1.0], metadata={"merge.method": "ties"})
        assert merged.metadata == {"merge.method": "ties"}


class TestMergeRecipe:
    def test_alphas_default_to_one(self):
        recipe = MergeRecipe(base_path="b", model_paths=["m1", "m2"])
        assert recipe.alphas == [1.0, 1.0]

    def test_rejects_empty_models(self):
        with pytest.raises(RecipeError):
            MergeRecipe(base_path="b", model_paths=[])

    def test_rejects_alpha_count_mismatch(self):
        with pytest.raises(RecipeError):
            MergeRecipe(base_path="b", model_paths=["m"], alphas=[1.0, 2.0])

    def test_rejects_nonfinite_alpha(self):
        with pytest.raises(RecipeError):
            MergeRecipe(base_path="b", model_paths=["m"], alphas=[float("nan")])

    def test_rejects_unknown_method(self):
        with pytest.raises(RecipeError):
            MergeRecipe(base_path="b", model_paths=["m"], method="fisher")

    def test_rejects_bad_uniform_density(self):
        with pytest.raises(RecipeError):
            MergeRecipe(base_path="b", model_paths=["m"], plan_refs=0.0)

    def test_file_round_trip_resolves_relative_paths(self, tmp_path):
        recipe = MergeRecipe(
            base_path="base.safetensors",
            model_paths=["fine.safetensors"],
            alphas=[0.7],
            method="dare-ties",
            plan_refs=["plan.json"],
            seed=99,
        )
        recipe.save(tmp_path / "recipe.json")
        loaded = MergeRecipe.load(tmp_path / "recipe.json")
        assert loaded.base_path == str(tmp_path / "base.safetensors")
        assert loaded.model_paths == [str(tmp_path / "fine.safetensors")]
        assert loaded.plan_refs == [str(tmp_path / "plan.json")]
        assert loaded.alphas == [0.7]
        assert loaded.method == "dare-ties"
        assert loaded.seed == 99

    def test_load_rejects_missing_field(self, tmp_path):
        (tmp_path / "r.json").write_text('{"model_paths": ["m"]}')
        with pytest.raises(RecipeError, match="base_path"):
            MergeRecipe.load(tmp_path / "r.json")
