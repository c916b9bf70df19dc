"""Sign election, disjoint mean, and the four merge methods.

`elect_sign` and `disjoint_mean` are scalar reference implementations of
TIES's elect-then-mean rule; `ties_combine` must agree with them.
"""

import contextlib
import os
import re
import sys
import threading
import time
import tracemalloc
from typing import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lewis
import lewis.checkpoint
import lewis.merge_methods
from lewis import (
    Checkpoint,
    MergeRecipe,
    build_plan_uniform,
    merge,
    ties_combine,
    write_checkpoint,
)
from lewis.errors import MergeError, NonFiniteTensorError, RecipeError
from lewis.pruning import mix_seed
from lewis.task_vectors import MERGE_METHODS, finalize_checkpoint, linear_combine
from conftest import header_keys, mismatched_model, pin_machine, relayout, reverse_data_region


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


class TestTiesCombine:
    def test_empty_input_rejected(self):
        # A recipe needs at least one model, so no merge passes an empty input.
        with pytest.raises(ValueError, match="at least one delta"):
            ties_combine(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="at least one delta"):
            ties_combine([])

    def test_sums_run_in_model_order_for_one_element_rows(self):
        # In float16, 2048 + 1 rounds back to 2048, so three more 1s add
        # nothing; a sum widened to float32 would give 2051 -> 2052.
        rows = np.array([[2048.0], [1.0], [1.0], [1.0]], dtype=np.float16)
        for deltas in (rows, list(rows), np.repeat(rows, 2, axis=1)):
            assert np.all(ties_combine(deltas) == 512.0)

    def test_memory_does_not_grow_with_model_count(self):
        n = 200_000

        def peak(models: int) -> int:
            deltas = [np.random.default_rng(m).standard_normal(n) for m in range(models)]
            tracemalloc.start()
            try:
                ties_combine(deltas)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        two, eight = peak(2), peak(8)
        assert eight <= 1.1 * two, f"peak {eight / (8 * n):.1f} vs {two / (8 * n):.1f} x n*8 bytes"


class TestCombineOut:
    """`ties_combine` and `linear_combine` write into an `out` that shares no memory with a delta."""

    @staticmethod
    def _combines(base):
        return [
            lambda deltas, out=None: ties_combine(deltas, out=out),
            lambda deltas, out=None: linear_combine(base, deltas, [0.5, 2.0, 1.0], out=out),
        ]

    @pytest.mark.parametrize("which", [0, 1], ids=["ties", "linear"])
    def test_out_gives_the_bytes_of_a_fresh_result(self, which):
        rng = np.random.default_rng(7)
        base, stack = rng.standard_normal(64), rng.standard_normal((3, 64)) * (rng.random((3, 64)) < 0.6)
        combine = self._combines(base)[which]
        fresh, before = combine(stack), stack.tobytes()
        out = np.full(64, np.nan)
        assert combine(list(stack), out) is out
        assert out.tobytes() == fresh.tobytes() and stack.tobytes() == before

    @pytest.mark.parametrize("which", [0, 1], ids=["ties", "linear"])
    def test_out_sharing_a_delta_is_rejected(self, which):
        rng = np.random.default_rng(8)
        base, stack = rng.standard_normal(64), rng.standard_normal((3, 64))
        before = stack.tobytes()
        combine = self._combines(base)[which]
        for out in (stack[1], stack.reshape(-1)[32:96], stack[2, ::-1]):
            with pytest.raises(MergeError, match="out shares memory with a delta"):
                combine(list(stack), out)
        assert stack.tobytes() == before


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

    def test_numpy_float_bounds_merge_as_python_floats(self, tmp_path):
        """A plan built from float32 bounds writes the same merged file as one built from the Python floats."""
        arch = lewis.ArchConfig(vocab_size=16, hidden_dim=8, num_blocks=4, num_heads=2, mlp_dim=16, max_seq_len=8)
        _, _, base_path, fine_path = _write_pair(tmp_path, arch)
        fine = lewis.ActivationProfile("fine", {0: 1.3, 1: 1.0, 2: 1.9, 3: 1.1}, 1)
        base = lewis.ActivationProfile("base", {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, 1)
        recipe = MergeRecipe(base_path=str(base_path), model_paths=[str(fine_path)], method="ties")
        files = []
        for gamma, epsilon in ((np.float32(0.5), np.float32(0.8)), (0.5, 0.8)):
            plan = lewis.build_plan_lewis(fine, base, lewis.SparsityBounds(gamma, epsilon), "minmax")
            files.append(tmp_path / f"{type(gamma).__name__}.safetensors")
            write_checkpoint(merge(recipe, [plan]), files[-1])
        assert files[0].read_bytes() == files[1].read_bytes()

    @pytest.mark.parametrize("method", MERGE_METHODS)
    def test_numpy_float_alphas_merge_as_the_recipe_reads_them(self, tmp_path, small_arch, method):
        """Alphas set after the recipe checked them still scale by its rule, in the linear and the TIES branch."""
        _, _, base_path, fine_path = _write_pair(tmp_path, small_arch)
        recipe = MergeRecipe(base_path=str(base_path), model_paths=[str(fine_path)], alphas=[0.3], method=method)
        expected = merge(recipe)
        recipe.alphas = [np.float32(0.3)]
        assert merge(recipe) == expected

    @pytest.mark.parametrize("density", [1e-320, 5e-324])
    def test_dare_density_without_finite_rescale_names_tensor(self, tmp_path, small_arch, density):
        _, _, base_path, fine_path = _write_pair(tmp_path, small_arch)
        recipe = MergeRecipe(str(base_path), [str(fine_path)], method="dare-linear", plan_refs=density)
        first = sorted(lewis.random_checkpoint(small_arch, seed=0).names())[0]
        message = f"^tensor {re.escape(repr(first))}: density {density} has no finite rescale 1/density in float64$"
        with pytest.raises(MergeError, match=message):
            merge(recipe)

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
    def test_merge_matches_public_recomposition(self, tmp_path, monkeypatch, small_arch, method):
        """merge() writes the bytes of task vector -> prune -> combine -> finalize, at 1, 2
        and 4 workers, on inputs whose runs hold tensors of odd sizes and mixed dtypes."""
        base = run_edges_checkpoint(small_arch, seed=61)
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
        outputs = set()
        for cores in (1, 2, 4):
            pin_machine(monkeypatch, cores=cores)
            write_checkpoint(merge(recipe, plans), tmp_path / "merged.safetensors")
            outputs.add((tmp_path / "merged.safetensors").read_bytes())
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
        write_checkpoint(expected, tmp_path / "expected.safetensors")
        assert outputs == {(tmp_path / "expected.safetensors").read_bytes()}


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

        def no_read(self, names, out=None):
            raise AssertionError(f"tensors {names!r} read before the inputs were checked")

        monkeypatch.setattr(lewis.checkpoint.CheckpointFile, "read", no_read)
        with pytest.raises(error, match=rf"'fine'.*'{re.escape(tensor)}'"):
            merge(recipe)

    def test_each_input_is_opened_a_fixed_number_of_times(self, tmp_path):
        """A merge opens each input as often with 19 tensors as with 67: for its
        header and for one descriptor that every read shares."""
        counts = []
        for blocks in (2, 8):
            (tmp_path / str(blocks)).mkdir()
            arch = lewis.ArchConfig(hidden_dim=16, num_blocks=blocks, num_heads=2, mlp_dim=32)
            recipe = _write_models(tmp_path / str(blocks), arch, 2)
            with _recording_opens() as opened:
                merge(recipe)
            counts.append([opened.count(path) for path in (recipe.base_path, *recipe.model_paths)])
        assert counts[0] == counts[1] and max(counts[0]) <= 2, counts

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

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), method=st.sampled_from(MERGE_METHODS))
    def test_any_header_and_data_order_merges_to_same_bytes(self, tmp_path_factory, small_arch, data, method):
        """Hand-built inputs whose headers list the tensors, and whose data
        regions store them, in any order merge to the bytes of canonical inputs."""
        tmp = tmp_path_factory.mktemp("order")
        base = lewis.random_checkpoint(small_arch, seed=61)
        rng = np.random.default_rng(62)
        inputs = {"base": base}
        for i in range(2):
            inputs[f"f{i}"] = Checkpoint(
                {n: base[n] + 0.5 * rng.standard_normal(base[n].shape) for n in base.names()}
            )
        (tmp / "x").mkdir()
        for name, ckpt in inputs.items():
            canonical = tmp / f"{name}.safetensors"
            write_checkpoint(ckpt, canonical)
            keys = header_keys(canonical)
            relayout(
                canonical, tmp / "x" / f"{name}.safetensors",
                data.draw(st.permutations(keys)),
                data.draw(st.permutations([k for k in keys if k != "__metadata__"])),
            )
        outputs = []
        for d in (tmp, tmp / "x"):
            recipe = MergeRecipe(
                base_path=str(d / "base.safetensors"),
                model_paths=[str(d / "f0.safetensors"), str(d / "f1.safetensors")],
                method=method, plan_refs=0.5, seed=5,
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

    @pytest.mark.parametrize("cores", [1, 2, 8, 32])
    @pytest.mark.parametrize("method", ["ties", "dare-linear"])
    def test_peak_memory_bound_holds_at_any_core_count(self, tmp_path, monkeypatch, method, cores):
        """The in-flight budget keeps the same 2.5x bound however many workers run."""
        pin_machine(monkeypatch, cores=cores)
        self.test_peak_memory_below_two_and_a_half_base_copies(tmp_path, method)


def run_edges_checkpoint(arch, seed: int) -> Checkpoint:
    """A toy model of `arch` (its largest tensors the embedding and the head) plus tensors
    whose sizes are not multiples of 8, so the 64-byte pieces of a block leave gaps, and
    one that makes the blocks' tensors add up to exactly the largest tensor's size, so
    their run closes there. Stored dtypes cycle F32, F32, BF16, F16 in name order, so
    consecutive names differ in dtype, or share it."""
    base = lewis.random_checkpoint(arch, seed=seed)
    rng = np.random.default_rng(seed)
    tensors = dict(base.tensors)
    tensors["blocks.0.mlp.odd"] = rng.standard_normal((3, 5))
    tensors["blocks.1.attn_norm.odd"] = rng.standard_normal(7)
    fill = tensors["embed.weight"].size - sum(arr.size for name, arr in tensors.items() if name.startswith("blocks."))
    assert fill > 0 and fill % 8
    tensors["blocks.1.zfill"] = rng.standard_normal(fill)  # the last of the blocks' tensors in name order
    cycle = ("F32", "F32", "BF16", "F16")
    return Checkpoint(tensors, {name: cycle[i % 4] for i, name in enumerate(sorted(tensors))})


_open_logs: list[list[str]] = []  # paths opened while a _recording_opens block runs


def _log_open(event: str, args: tuple) -> None:
    if event == "open" and _open_logs and isinstance(args[0], (str, bytes, os.PathLike)):
        _open_logs[-1].append(os.fsdecode(args[0]))


@contextlib.contextmanager
def _recording_opens() -> Iterator[list[str]]:
    """Inside the block, every file open in the process (open(), os.open and the rest
    raise the "open" audit event) appends its path to the list yielded."""
    if not getattr(_log_open, "hooked", False):
        sys.addaudithook(_log_open)  # an audit hook cannot be removed, so it is added once
        _log_open.hooked = True
    _open_logs.append([])
    try:
        yield _open_logs[-1]
    finally:
        _open_logs.pop()


def _write_models(tmp_path, arch, count: int, bad: Sequence[str] = (), base: Checkpoint | None = None) -> MergeRecipe:
    """A base (random of `arch` if not given) and `count` fine-tunes of it, stored in the base's
    dtypes, on disk; the last fine-tune holds NaN in the `bad` tensors."""
    base = lewis.random_checkpoint(arch, seed=91) if base is None else base
    rng = np.random.default_rng(92)
    write_checkpoint(base, tmp_path / "base.safetensors")
    paths = []
    for i in range(count):
        tensors = {n: base[n] + 0.5 * rng.standard_normal(base[n].shape) for n in base.names()}
        if i == count - 1:
            for name in bad:
                tensors[name][(0,) * tensors[name].ndim] = np.nan
        paths.append(tmp_path / f"f{i}.safetensors")
        write_checkpoint(Checkpoint(tensors, dict(base.dtypes)), paths[-1])
    return MergeRecipe(
        base_path=str(tmp_path / "base.safetensors"), model_paths=[str(p) for p in paths],
        plan_refs=0.5, seed=5,
    )


class TestThreadedMerge:
    """`merge` runs its runs on min(usable cores, 2) workers; cores are pinned with
    a patched `os.sched_getaffinity`, so these run the threaded path on any machine."""

    @pytest.mark.parametrize("method", MERGE_METHODS)
    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch, small_arch, method):
        recipe = _write_models(tmp_path, small_arch, 2, base=run_edges_checkpoint(small_arch, seed=91))
        recipe.method = method
        outputs = []
        for cores in (1, 2, 4):
            pin_machine(monkeypatch, cores=cores)
            write_checkpoint(merge(recipe), tmp_path / f"merged{cores}.safetensors")
            outputs.append((tmp_path / f"merged{cores}.safetensors").read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_first_failing_tensor_in_name_order_is_raised(self, tmp_path, monkeypatch, small_arch):
        names = sorted(lewis.random_checkpoint(small_arch, seed=0).names())
        first, later = names[1], names[-1]  # in the first run (the blocks' tensors) and in the last (the head)
        recipe = _write_models(tmp_path, small_arch, 1, bad=[first, later])
        later_failed = threading.Event()
        read = lewis.checkpoint.CheckpointFile.read

        def slow_first_read(self, run, out=None):
            # The run holding the earlier bad tensor fails only after the later one has.
            if first in run:
                later_failed.wait(timeout=10)
            try:
                return read(self, run, out)
            except NonFiniteTensorError:
                if later in run:
                    later_failed.set()
                raise

        monkeypatch.setattr(lewis.checkpoint.CheckpointFile, "read", slow_first_read)
        pin_machine(monkeypatch, cores=4)
        with pytest.raises(NonFiniteTensorError, match=f"tensor {re.escape(repr(first))} holds NaN"):
            merge(recipe)
        assert later_failed.is_set()

    @pytest.mark.parametrize("cores", [1, 4])
    def test_nan_inside_a_run_names_its_file_and_tensor(self, tmp_path, monkeypatch, small_arch, cores):
        """A NaN in the middle of a run is named by file and tensor; of two in one run, the one
        first in name order, even when the other is in an input read before it."""
        names = sorted(lewis.random_checkpoint(small_arch, seed=0).names())
        middle = names[5]  # the blocks' 16 tensors make the first run
        recipe = _write_models(tmp_path, small_arch, 2, bad=[middle, names[9]])
        pin_machine(monkeypatch, cores=cores)
        named = rf"^{re.escape(recipe.model_paths[-1])}: tensor {re.escape(repr(middle))} holds NaN"
        with pytest.raises(NonFiniteTensorError, match=named):
            merge(recipe)
        base = lewis.read_checkpoint(recipe.base_path)
        base.tensors[names[7]][0] = np.inf
        write_checkpoint(base, recipe.base_path)
        with pytest.raises(NonFiniteTensorError, match=named):
            merge(recipe)
        base.tensors[names[3]][0] = np.nan
        write_checkpoint(base, recipe.base_path)
        with pytest.raises(NonFiniteTensorError, match=rf"^{re.escape(recipe.base_path)}: tensor {re.escape(repr(names[3]))} "):
            merge(recipe)

    @pytest.mark.parametrize("cores", [1, 4])
    def test_prune_error_of_the_first_failing_tensor_is_raised(self, tmp_path, monkeypatch, small_arch, cores):
        """Of two models whose plans fail the drop at different tensors of one run, the error
        names the tensor first in name order, though the other model is pruned first."""
        recipe = _write_models(tmp_path, small_arch, 2)
        recipe.method = "dare-linear"
        plans = [
            lewis.SparsityPlan(model_id="f0", mode="lewis-minmax", densities={0: 0.5, 1: 1e-320}, default_density=0.5),
            lewis.SparsityPlan(model_id="f1", mode="lewis-minmax", densities={0: 1e-320, 1: 0.5}, default_density=0.5),
        ]
        first = sorted(lewis.random_checkpoint(small_arch, seed=0).names())[0]  # block 0's, in the run of both blocks
        pin_machine(monkeypatch, cores=cores)
        with pytest.raises(MergeError, match=f"^tensor {re.escape(repr(first))}: density 1e-320 has no finite rescale"):
            merge(recipe, plans)

    def test_no_tensor_starts_after_a_failure(self, tmp_path, monkeypatch, small_arch):
        recipe = _write_models(tmp_path, small_arch, 1)
        base = lewis.random_checkpoint(small_arch, seed=0)
        sizes = [base[name].size for name in base.names()]
        firsts = [base.names()[run.start] for run in lewis.merge_methods._runs(sizes, max(sizes))]
        assert len(firsts) == 4  # each run's first tensor; two runs are in flight at most
        started = []
        both_running = threading.Barrier(2, timeout=10)
        compute = lewis.merge_methods.compute_task_vector

        def failing_compute(base, finetuned, model_id, **kwargs):
            name = base.names()[0]
            started.append(name)
            if name in firsts[:2]:
                both_running.wait()  # the first two runs run side by side
            if name == firsts[0]:
                raise RuntimeError("task vector failed")
            time.sleep(0.2)  # the failure is recorded before this one finishes
            return compute(base, finetuned, model_id, **kwargs)

        monkeypatch.setattr(lewis.merge_methods, "compute_task_vector", failing_compute)
        pin_machine(monkeypatch, cores=4)
        with pytest.raises(RuntimeError, match="task vector failed"):
            merge(recipe)
        assert sorted(started) == sorted(firsts[:2])

    def test_a_merge_at_32_cores_starts_one_helper_thread(self, tmp_path, monkeypatch, small_arch):
        recipe = _write_models(tmp_path, small_arch, 1)
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        pin_machine(monkeypatch, cores=32)
        merge(recipe)
        assert len(started) == 1  # of 4 runs: the calling thread is the other worker

    def test_calling_thread_merges_a_tensor(self, tmp_path, monkeypatch, small_arch):
        recipe = _write_models(tmp_path, small_arch, 2)
        threads = set()
        apply_plan = lewis.merge_methods.apply_plan

        def recording_apply_plan(*args, **kwargs):
            threads.add(threading.get_ident())
            return apply_plan(*args, **kwargs)

        monkeypatch.setattr(lewis.merge_methods, "apply_plan", recording_apply_plan)
        pin_machine(monkeypatch, cores=4)
        merge(recipe)
        assert threading.get_ident() in threads

    @pytest.mark.parametrize(
        "blas", [{}, {"OMP_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "4"}, {"MKL_NUM_THREADS": "8"}],
        ids=["unset", "omp-1", "openblas-4", "mkl-more-than-cores"],
    )
    def test_worker_count_ignores_blas_variables(self, tmp_path, monkeypatch, blas):
        """min(cores, 2) workers, which a count the BLAS variables lower (as the forward
        workers' is) would miss at 4 cores."""
        # 13 runs, more than the 4 pinned cores and than any BLAS variable's value
        arch = lewis.ArchConfig(vocab_size=16, hidden_dim=8, num_blocks=4, num_heads=2, mlp_dim=64, max_seq_len=16)
        recipe = _write_models(tmp_path, arch, 1)
        workers, items = [], []
        map_in_order = lewis.merge_methods.map_in_order

        def recording_map(fn, runs, count):
            workers.append(min(count, len(runs)))
            items.append(len(runs))
            return map_in_order(fn, runs, count)

        monkeypatch.setattr(lewis.merge_methods, "map_in_order", recording_map)
        for cores in (1, 4, 64):
            pin_machine(monkeypatch, cores=cores, **blas)
            merge(recipe)
        assert items[0] > 8 and workers == [1, 2, 2]

    def test_runs_pack_the_pipeline_models_tensors(self, tmp_path, monkeypatch):
        """On the benchmark pipeline's arch the merge hands out fewer items than tensors: runs
        of consecutive tensors in name order, none over the largest tensor's elements."""
        arch = lewis.ArchConfig(hidden_dim=128, num_blocks=6, num_heads=4, mlp_dim=512, max_seq_len=128)
        recipe = _write_models(tmp_path, arch, 1)
        seen = []
        map_in_order = lewis.merge_methods.map_in_order

        def recording_map(fn, runs, count):
            seen.extend(runs)
            return map_in_order(fn, runs, count)

        monkeypatch.setattr(lewis.merge_methods, "map_in_order", recording_map)
        merge(recipe)
        shapes = lewis.checkpoint.CheckpointFile(recipe.base_path).shapes()
        sizes = [int(np.prod(shapes[name])) for name in sorted(shapes)]
        assert 0 < len(seen) < len(sizes)
        assert [i for run in seen for i in run] == list(range(len(sizes)))
        assert max(sum(sizes[i] for i in run) for run in seen) == max(sizes)
