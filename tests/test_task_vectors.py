"""Task-vector extraction, merged assembly, and recipe validation."""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lewis import (
    Checkpoint,
    MergeRecipe,
    TaskVector,
    assemble_merged,
    compute_task_vector,
)
from lewis.errors import KeysetMismatchError, MergeError, RecipeError, ShapeMismatchError
from lewis.task_vectors import linear_combine


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

    def test_numpy_float_alpha_is_the_decimal_it_prints(self):
        """float(np.float32(0.3)) is 0.30000001192092896; the recipe rule reads it as 0.3."""
        assert linear_combine(np.zeros(1), [np.ones(1)], [np.float32(0.3)])[0] == 0.3

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

    @pytest.mark.parametrize(
        "deltas, error, match",
        [
            ({"w": np.ones(3), "x": np.ones(2)}, KeysetMismatchError, r"'m'.*\['x'\]"),
            ({"w": np.ones((3, 1))}, ShapeMismatchError, r"'m'.*'w'.*\[3\].*\[3, 1\]"),
        ],
        ids=["keyset", "shape"],
    )
    def test_mismatch_names_model_tensor_and_shapes(self, deltas, error, match):
        base = Checkpoint({"w": np.ones(3)})
        tv = TaskVector(deltas=deltas, source_model_id="m")
        with pytest.raises(error, match=match):
            assemble_merged(base, [tv], [1.0])

    def test_metadata_attached(self):
        base = Checkpoint({"w": np.ones(2)})
        tv = compute_task_vector(base, base, "m")
        merged = assemble_merged(base, [tv], [1.0], metadata={"merge.method": "ties"})
        assert merged.metadata == {"merge.method": "ties"}


_ALPHA = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**1100), 2**1100),  # past the float range at both ends
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.fractions(max_denominator=10**6),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from([np.inf, -np.inf, np.nan, Fraction(10**400, 3), sys.float_info.max]),
)


class TestAlphaRule:
    """One rule reads alphas for MergeRecipe, `assemble_merged` and `linear_combine`."""

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(_ALPHA, min_size=n, max_size=n))))
    def test_entry_points_agree(self, case):
        """Lists of n alphas for n = 1-4 models: the three entry points accept or refuse alike, and
        scale by the same Python floats (one-hot deltas give each alpha back; zero task
        vectors keep `assemble_merged`'s snap finite whatever the alphas)."""
        models, alphas = case
        base = Checkpoint({"w": np.zeros(models)})
        zeros = [TaskVector({"w": np.zeros(models)}, f"m{p}") for p in range(models)]
        one_hot = list(np.eye(models))
        results = []
        for read in (
            lambda: MergeRecipe("b", [f"m{p}" for p in range(models)], alphas=list(alphas)).alphas,
            lambda: list(linear_combine(np.zeros(models), one_hot, list(alphas))),
            lambda: assemble_merged(base, zeros, list(alphas)) and None,
        ):
            try:
                results.append(read())
            except RecipeError as exc:
                results.append(exc)
        verdicts = [isinstance(r, RecipeError) for r in results]
        assert verdicts in ([True] * 3, [False] * 3), results
        if not verdicts[0]:
            floats, scaled, _ = results
            assert all(type(a) is float for a in floats) and scaled == floats

    @pytest.mark.parametrize("alphas", [[1.0], [1.0, 1.0, 5.0]])
    def test_linear_combine_needs_one_alpha_per_delta(self, alphas):
        with pytest.raises(RecipeError, match=f"2 deltas but {len(alphas)} alphas"):
            linear_combine(np.zeros(3), [np.ones(3)] * 2, alphas)

    @pytest.mark.parametrize("alpha", [float("inf"), "x", True, 10**400, None], ids=["inf", "str", "bool", "huge-int", "none"])
    def test_linear_combine_names_a_bad_alpha(self, alpha):
        with pytest.raises(RecipeError, match=f"alphas .*{re.escape(repr(alpha))}"):
            linear_combine(np.zeros(2), [np.ones(2)], [alpha])

    def test_assemble_merged_names_a_non_finite_alpha(self):
        base = Checkpoint({"w": np.ones(2)})
        with pytest.raises(RecipeError, match=r"alphas .*\[inf\]"):
            assemble_merged(base, [compute_task_vector(base, base, "m")], [float("inf")])

    def test_linear_combine_refuses_a_delta_of_another_shape(self):
        with pytest.raises(ShapeMismatchError, match=r"linear_combine: delta 0 has shape \[2\], not \[2, 2\]"):
            linear_combine(np.zeros((2, 2)), [np.array([1.0, 2.0])], [1.0])

    @pytest.mark.parametrize(
        "base, deltas, out, match",
        [
            ([0.0, 0.0], [np.ones(2)], None, "base must be an array"),
            (np.zeros(2), [np.ones(2).astype(complex)], None, "delta 0 must be an array of real numbers"),
            (np.zeros(2), [np.ones(2)], np.empty(3), r"out has shape \[3\]"),
            (np.zeros(2), [np.ones(2)], [0.0, 0.0], "out must be an array"),
        ],
        ids=["list-base", "complex-delta", "out-shape", "list-out"],
    )
    def test_linear_combine_refuses_what_is_not_a_real_array_of_the_base_shape(self, base, deltas, out, match):
        with pytest.raises(MergeError, match=match):
            linear_combine(base, deltas, [1.0], out=out)


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

    @pytest.mark.parametrize("base_path", [5, None, ["b"]], ids=["int", "null", "list"])
    def test_rejects_non_str_base_path(self, base_path):
        with pytest.raises(RecipeError, match="base_path"):
            MergeRecipe(base_path=base_path, model_paths=["m"])

    def test_paths_may_be_path_like(self, tmp_path):
        recipe = MergeRecipe(Path("b"), [Path("m1"), "m2"], plan_refs=[Path("p1"), Path("p2")])
        assert (recipe.base_path, recipe.model_paths, recipe.plan_refs) == ("b", ["m1", "m2"], ["p1", "p2"])
        recipe.save(tmp_path / "recipe.json")
        assert MergeRecipe.load(tmp_path / "recipe.json").model_paths == [str(tmp_path / "m1"), str(tmp_path / "m2")]

    @pytest.mark.parametrize("refs", [np.float32(0.5), np.float16(0.5), 0.5, 1, np.int64(1)],
                             ids=["float32", "float16", "float", "int", "numpy-int"])
    def test_uniform_density_is_kept_as_a_float(self, tmp_path, refs):
        recipe = MergeRecipe("b", ["m"], alphas=[np.float32(0.3)], plan_refs=refs, seed=np.uint64(2**64 - 1))
        assert type(recipe.plan_refs) is float and recipe.plan_refs == refs
        assert recipe.alphas == [0.3] and type(recipe.seed) is int
        recipe.save(tmp_path / "recipe.json")
        doc = json.loads((tmp_path / "recipe.json").read_text())
        assert type(doc["plan_refs"]) is float and doc["alphas"] == [0.3] and doc["seed"] == 2**64 - 1
        loaded = MergeRecipe.load(tmp_path / "recipe.json")
        assert (loaded.alphas, loaded.plan_refs, loaded.seed) == (recipe.alphas, recipe.plan_refs, recipe.seed)

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
