"""Magnitude trim, random drop-with-rescale, and plan application."""

import math
import re

import numpy as np
import pytest

import lewis
from lewis import (
    Checkpoint,
    SparsityPlan,
    apply_plan,
    build_plan_uniform,
    compute_task_vector,
    magnitude_trim,
    random_drop_rescale,
    role_classifier,
)
from lewis.errors import MergeError, PlanError
from lewis.pruning import mix_seed, trim_count


def trim_oracle(values: np.ndarray, density: float) -> np.ndarray:
    """Brute force: full sort by (|value| desc, flat index asc), keep the head."""
    flat = values.ravel()
    k = math.ceil(density * flat.size)
    keep = sorted(range(flat.size), key=lambda i: (-abs(flat[i]), i))[:k]
    out = np.zeros_like(flat)
    out[keep] = flat[keep]
    return out.reshape(values.shape)


class TestMagnitudeTrim:
    def test_worked_example(self):
        out = magnitude_trim(np.array([0.1, -0.5, 0.3, 0.05]), 0.5)
        np.testing.assert_array_equal(out, [0.0, -0.5, 0.3, 0.0])

    def test_density_one_is_identity(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(magnitude_trim(values, 1.0), values)

    def test_tie_broken_by_flat_index(self):
        out = magnitude_trim(np.array([2.0, -2.0, 1.0]), 1 / 3)
        np.testing.assert_array_equal(out, [2.0, 0.0, 0.0])

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 1001))
            values = rng.standard_normal(n)
            density = float(rng.uniform(0.01, 1.0))
            got = magnitude_trim(values, density)
            expected = trim_oracle(values, density)
            np.testing.assert_array_equal(got, expected)
            assert np.count_nonzero(got) <= trim_count(density, n)

    def test_nonzero_count_exact_for_distinct_nonzero_values(self):
        # exact count needs no zero entries and no magnitude ties
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 500))
            values = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            density = float(rng.uniform(0.01, 1.0))
            assert np.count_nonzero(magnitude_trim(values, density)) == trim_count(density, n)

    def test_survivors_bit_exact(self):
        rng = np.random.default_rng(15)
        values = rng.standard_normal(100)
        out = magnitude_trim(values, 0.3)
        mask = out != 0
        np.testing.assert_array_equal(out[mask], values[mask])

    def test_keeps_at_least_one(self):
        out = magnitude_trim(np.array([5.0, 1.0, 2.0, 3.0]), 0.01)
        assert np.count_nonzero(out) == 1
        assert out[0] == 5.0

    @pytest.mark.parametrize("density", [0.0, -0.1, 1.5])
    def test_invalid_density(self, density):
        with pytest.raises(ValueError):
            magnitude_trim(np.ones(3), density)


class TestRandomDropRescale:
    def test_density_one_identity_any_seed(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(50)
        for seed in (0, 1, 12345):
            np.testing.assert_array_equal(random_drop_rescale(values, 1.0, seed, "t"), values)

    def test_deterministic(self):
        values = np.arange(1.0, 33.0)
        a = random_drop_rescale(values, 0.5, 7, "w")
        b = random_drop_rescale(values, 0.5, 7, "w")
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_output(self):
        values = np.ones(512)
        a = random_drop_rescale(values, 0.5, 1, "w")
        b = random_drop_rescale(values, 0.5, 2, "w")
        assert not np.array_equal(a, b)

    def test_name_changes_stream(self):
        values = np.ones(512)
        a = random_drop_rescale(values, 0.5, 1, "w1")
        b = random_drop_rescale(values, 0.5, 1, "w2")
        assert not np.array_equal(a, b)

    def test_survivors_rescaled(self):
        values = np.full(256, 3.0)
        out = random_drop_rescale(values, 0.5, 3, "w")
        kept = out[out != 0]
        assert kept.size > 0
        np.testing.assert_array_equal(kept, np.full(kept.size, 6.0))

    def test_unbiased_aggregate_mean(self):
        """Fixed seed schedule; aggregate mean within 3 standard errors."""
        n, draws, density = 200, 1000, 0.5
        values = np.ones(n)
        acc = np.zeros(n)
        for seed in range(draws):
            acc += random_drop_rescale(values, density, seed, "w")
        # one rescaled draw: var = 1/density - 1 = 1
        se = 1.0 / math.sqrt(n * draws)
        assert abs(acc.mean() / draws - 1.0) < 3 * se

    def test_shape_preserved(self):
        values = np.ones((4, 8))
        out = random_drop_rescale(values, 0.25, 0, "w")
        assert out.shape == (4, 8)

    @pytest.mark.parametrize("density", [0.0, 1.0001])
    def test_invalid_density(self, density):
        with pytest.raises(ValueError):
            random_drop_rescale(np.ones(3), density, 0)

    def test_kept_overflow_raises(self):
        # 10 / 1e-4 = 1e5 is past float16's largest finite value, 65504.
        values = np.full(200_000, 10.0, dtype=np.float16)
        with pytest.raises(ValueError, match="'w'.*overflows float16"):
            random_drop_rescale(values, 1e-4, 0, "w")

    @pytest.mark.parametrize("density", [1e-320, 5e-324], ids=["1e-320", "smallest-subnormal"])
    def test_density_without_finite_rescale_names_tensor(self, density):
        """1/density overflows float64; the error used to name neither the tensor nor a MergeError."""
        with pytest.raises(MergeError, match=f"^tensor 'w': density {density} has no finite rescale 1/density in float64$"):
            random_drop_rescale(np.ones(3), density, 0, "w")

    @pytest.mark.parametrize("seed", ["3", 3.7, 3.0, True, None], ids=["str", "float", "integral-float", "bool", "none"])
    @pytest.mark.parametrize("density", [0.5, 1.0], ids=["drop", "identity"])
    def test_seed_must_be_an_int(self, seed, density):
        """`int(seed)` used to read "3" and 3.7 as seed 3."""
        with pytest.raises(MergeError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
            random_drop_rescale(np.ones(8), density, seed, "w")
        with pytest.raises(MergeError, match="^seed must be an int"):
            mix_seed(seed, "model-0")

    def test_numpy_int_seed_is_the_int(self):
        values = np.ones(64)
        for seed in (np.int64(3), np.uint8(3)):
            np.testing.assert_array_equal(random_drop_rescale(values, 0.5, seed, "w"), random_drop_rescale(values, 0.5, 3, "w"))
            assert mix_seed(seed, "model-0") == mix_seed(3, "model-0")

    def test_dropped_overflow_is_discarded(self):
        density = 0.5
        keep = random_drop_rescale(np.ones(64), density, 2, "w") != 0
        assert keep.any() and not keep.all()
        # Only the dropped entries would overflow when rescaled.
        values = np.where(keep, 1.0, 60000.0).astype(np.float16)
        out = random_drop_rescale(values, density, 2, "w")
        np.testing.assert_array_equal(out, np.where(keep, 2.0, 0.0))


def _toy_tv(arch, seed=21):
    base = lewis.random_checkpoint(arch, seed=seed)
    rng = np.random.default_rng(seed + 1)
    fine = Checkpoint(
        {n: base[n] + rng.standard_normal(base[n].shape) for n in base.names()},
        dict(base.dtypes),
    )
    return compute_task_vector(base, fine, "m")


class TestApplyPlan:
    def test_all_ones_identity_both_modes(self, small_arch):
        tv = _toy_tv(small_arch)
        plan = build_plan_uniform(1.0, "m")
        roles = role_classifier("toy")
        for mode in ("magnitude", "random"):
            out = apply_plan(tv, plan, mode, roles, seed=5)
            for name in tv.names():
                np.testing.assert_array_equal(out[name], tv[name])

    def test_per_block_densities(self, small_arch):
        tv = _toy_tv(small_arch)
        roles = role_classifier("toy")
        plan = SparsityPlan(
            model_id="m",
            mode="lewis-minmax",
            densities={0: 0.5, 1: 1.0},
            default_density=1.0,
            bounds=lewis.SparsityBounds(0.5, 1.0),
        )
        out = apply_plan(tv, plan, "magnitude", roles)
        for name in tv.names():
            role = roles(name)
            nonzeros = np.count_nonzero(out[name])
            if role.block_index == 0:
                assert nonzeros == trim_count(0.5, out[name].size), name
            else:
                np.testing.assert_array_equal(out[name], tv[name])

    def test_uniform_half_is_baseline(self, small_arch):
        """The unguided baseline: density 0.5 on every tensor."""
        tv = _toy_tv(small_arch)
        out = apply_plan(tv, build_plan_uniform(0.5, "m"), "magnitude", role_classifier("toy"))
        for name in tv.names():
            assert np.count_nonzero(out[name]) == trim_count(0.5, out[name].size)

    def test_role_override_beats_block_density(self, small_arch):
        tv = _toy_tv(small_arch)
        roles = role_classifier("toy")
        plan = SparsityPlan(
            model_id="m",
            mode="layer-type",
            densities={0: 1.0, 1: 1.0},
            default_density=1.0,
            role_overrides={"MLP": 0.25},
        )
        out = apply_plan(tv, plan, "magnitude", roles)
        for name in tv.names():
            if roles(name).kind == "MLP":
                assert np.count_nonzero(out[name]) == trim_count(0.25, out[name].size)
            else:
                np.testing.assert_array_equal(out[name], tv[name])

    def test_missing_block_density_raises(self, small_arch):
        tv = _toy_tv(small_arch)
        plan = SparsityPlan(model_id="m", mode="uniform", densities={0: 0.5})
        with pytest.raises(PlanError, match="block 1"):
            apply_plan(tv, plan, "magnitude", role_classifier("toy"))

    def test_invalid_mode(self, small_arch):
        tv = _toy_tv(small_arch)
        with pytest.raises(ValueError):
            apply_plan(tv, build_plan_uniform(1.0, "m"), "structured", role_classifier("toy"))

    def test_random_mode_uses_per_tensor_streams(self, small_arch):
        tv = _toy_tv(small_arch)
        out1 = apply_plan(tv, build_plan_uniform(0.5, "m"), "random", role_classifier("toy"), seed=9)
        out2 = apply_plan(tv, build_plan_uniform(0.5, "m"), "random", role_classifier("toy"), seed=9)
        for name in tv.names():
            np.testing.assert_array_equal(out1[name], out2[name])
