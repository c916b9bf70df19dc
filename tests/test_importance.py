"""Importance scoring, normalization rules, and all plan modes."""

import hashlib
import json
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import lewis
from lewis import (
    ActivationProfile,
    CalibrationSet,
    Checkpoint,
    SparsityBounds,
    SparsityPlan,
    build_plan_layer_type,
    build_plan_lewis,
    build_plan_topk,
    build_plan_uniform,
    TensorRole,
    importance_deltas,
    normalize_and_clip,
)
from lewis.errors import PlanError, ProfileMismatchError
from lewis.runtime import forward_capture


def _profile(norms, model_id="m", convention="mean-token-l2", n=1):
    return ActivationProfile(
        model_id=model_id,
        layer_norms=dict(enumerate(norms)),
        num_samples=n,
        norm_convention=convention,
    )


class TestImportanceDeltas:
    def test_identical_profiles_zero(self):
        scores = importance_deltas(_profile([1.0, 2.0]), _profile([1.0, 2.0], "base"))
        assert scores == {0: 0.0, 1: 0.0}

    def test_absolute_difference(self):
        scores = importance_deltas(_profile([5.0, 2.0]), _profile([3.0, 3.0], "base"))
        assert scores == {0: 2.0, 1: 1.0}

    def test_layer_set_mismatch(self):
        with pytest.raises(ProfileMismatchError):
            importance_deltas(_profile([1.0, 2.0]), _profile([1.0], "base"))

    def test_convention_mismatch(self):
        with pytest.raises(ProfileMismatchError, match="convention"):
            importance_deltas(
                _profile([1.0]), _profile([1.0], "base", convention="frobenius")
            )

    def test_matches_recomputation_from_activations(self, small_arch):
        """Deltas recomputed independently from captured activations agree."""
        base = lewis.random_checkpoint(small_arch, seed=51)
        rng = np.random.default_rng(52)
        fine = Checkpoint(
            {n: base[n] + 0.2 * rng.standard_normal(base[n].shape) for n in base.names()},
            dict(base.dtypes),
        )
        calib = CalibrationSet(samples=[[1, 2, 3, 4], [9, 8, 7], [100, 200]])
        pb = lewis.profile_model(base, small_arch, calib, model_id="base")
        pf = lewis.profile_model(fine, small_arch, calib, model_id="fine")
        scores = importance_deltas(pf, pb)

        for layer in range(small_arch.num_blocks):
            norm_f = np.mean([
                np.mean(np.linalg.norm(forward_capture(fine, small_arch, s)[layer], axis=-1))
                for s in calib.samples
            ])
            norm_b = np.mean([
                np.mean(np.linalg.norm(forward_capture(base, small_arch, s)[layer], axis=-1))
                for s in calib.samples
            ])
            assert scores[layer] == pytest.approx(abs(norm_f - norm_b), abs=1e-12)


class TestNormalizeAndClip:
    def test_literal_worked_example(self):
        out = normalize_and_clip({0: 2, 1: 3, 2: 5}, SparsityBounds(0.3, 0.8), "literal")
        assert out == {0: 0.3, 1: 0.3, 2: 0.5}

    def test_minmax_worked_example(self):
        out = normalize_and_clip({0: 2, 1: 3, 2: 5}, SparsityBounds(0.3, 0.8), "minmax")
        assert out[0] == pytest.approx(0.3, abs=1e-4)
        assert out[1] == pytest.approx(0.4667, abs=1e-4)
        assert out[2] == pytest.approx(0.8, abs=1e-4)

    def test_literal_all_zero_degenerates_to_gamma(self):
        out = normalize_and_clip({0: 0.0, 1: 0.0}, SparsityBounds(0.4, 0.9), "literal")
        assert out == {0: 0.4, 1: 0.4}

    def test_minmax_all_equal_midpoint(self):
        out = normalize_and_clip({0: 3.0, 1: 3.0}, SparsityBounds(0.4, 0.8), "minmax")
        assert out == {0: pytest.approx(0.6), 1: pytest.approx(0.6)}

    @pytest.mark.parametrize("mode", ["literal", "minmax"])
    def test_bounds_and_monotonicity(self, mode):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n_layers = int(rng.integers(1, 12))
            raw = {l: float(rng.uniform(0, 10)) for l in range(n_layers)}
            gamma = float(rng.uniform(0.01, 0.9))
            epsilon = float(rng.uniform(gamma, 1.0))
            out = normalize_and_clip(raw, SparsityBounds(gamma, epsilon), mode)
            for l in raw:
                assert gamma - 1e-12 <= out[l] <= epsilon + 1e-12
            for l1 in raw:
                for l2 in raw:
                    if raw[l1] >= raw[l2]:
                        assert out[l1] >= out[l2] - 1e-12

    @pytest.mark.parametrize("mode", ["literal", "minmax"])
    def test_scale_invariance(self, mode):
        rng = np.random.default_rng(7)
        raw = {l: float(rng.uniform(0, 5)) for l in range(6)}
        bounds = SparsityBounds(0.3, 0.8)
        for c in (0.01, 3.0, 1e4):
            scaled = {l: c * v for l, v in raw.items()}
            a = normalize_and_clip(raw, bounds, mode)
            b = normalize_and_clip(scaled, bounds, mode)
            for l in raw:
                assert a[l] == pytest.approx(b[l], abs=1e-9)

    def test_negative_raw_rejected(self):
        with pytest.raises(PlanError):
            normalize_and_clip({0: -1.0}, SparsityBounds(0.3, 0.8), "literal")

    def test_unknown_mode(self):
        with pytest.raises(PlanError):
            normalize_and_clip({0: 1.0}, SparsityBounds(0.3, 0.8), "softmax")


# Each breach of the score rule, and the block its message names.
BAD_SCORES = {
    "nan": ({0: math.nan, 1: 1.0, 2: 0.5}, "raw score for layer 0 must be a finite number >= 0, got nan"),
    "inf": ({0: 1.0, 1: math.inf}, "raw score for layer 1 must be a finite number >= 0, got inf"),
    "str": ({0: "x"}, "raw score for layer 0 must be a finite number >= 0, got 'x'"),
    "none": ({0: 1.0, 1: None}, "raw score for layer 1 must be a finite number >= 0, got None"),
    "bool": ({0: True}, "raw score for layer 0 must be a finite number >= 0, got True"),
    "huge-int": ({0: 10**400}, "raw score for layer 0 must be a finite number >= 0, got 1000"),
    "int-past-float-max": ({0: int(sys.float_info.max) + 1},  # float() would round it to the max
                           "raw score for layer 0 must be a finite number >= 0, got 1797"),
    "huge-fraction": ({0: Fraction(10**400, 3)},
                      "raw score for layer 0 must be a finite number >= 0, got Fraction(1000"),
    "numpy-inf": ({0: np.float32("inf")}, "raw score for layer 0 must be a finite number >= 0, got np.float32(inf)"),
    "negative": ({0: 1.0, 1: -1.0}, "raw score for layer 1 must be >= 0, got -1.0"),
    "empty": ({}, "importance scores are empty"),
    "str-block-id": ({0: 1.0, "a": 2.0}, "block id 'a' must be an int"),
}
SCORE_READERS = {
    "literal": lambda scores: normalize_and_clip(scores, SparsityBounds(0.3, 0.8), "literal"),
    "minmax": lambda scores: normalize_and_clip(scores, SparsityBounds(0.3, 0.8), "minmax"),
    "topk": lambda scores: build_plan_topk(scores, 34.0),
}


class TestScoreRule:
    @pytest.mark.parametrize("reader", list(SCORE_READERS))
    @pytest.mark.parametrize("case", list(BAD_SCORES))
    def test_breach_is_plan_error_naming_the_block(self, reader, case):
        scores, message = BAD_SCORES[case]
        with pytest.raises(PlanError) as info:
            SCORE_READERS[reader](scores)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("reader", list(SCORE_READERS))
    def test_numpy_float_scores_read_without_warning(self, reader):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SCORE_READERS[reader]({0: np.float32(1.0), 1: np.float32(3e38), 2: np.float16(0.5)})

    @pytest.mark.parametrize("k", ["5", None, True], ids=["str", "none", "bool"])
    def test_k_percent_must_be_a_number(self, k):
        with pytest.raises(PlanError, match=r"^k_percent must be a number in \(0, 100\], got "):
            build_plan_topk({0: 1.0}, k)


class TestSparsityBounds:
    @pytest.mark.parametrize("gamma,epsilon", [(0.0, 0.5), (-0.1, 0.5), (0.6, 0.5), (0.5, 1.1),
                                               (Fraction(1, 10**400), 0.5)])  # a gamma stored as 0.0
    def test_invalid(self, gamma, epsilon):
        with pytest.raises(PlanError):
            SparsityBounds(gamma, epsilon)

    @pytest.mark.parametrize("gamma,epsilon", [(0.5, 0.8), (0.3, 0.8), (0.5, 1.0), (1.0, 1.0),
                                               pytest.param(Fraction(1, 2), 1, id="fraction-int"),
                                               pytest.param(np.float64(0.5), np.float64(0.8), id="numpy-float64")])
    def test_valid_configurations(self, gamma, epsilon):
        bounds = SparsityBounds(gamma, epsilon)
        assert bounds.gamma == gamma
        assert bounds.epsilon == epsilon

    @pytest.mark.parametrize("gamma,epsilon", [(np.float32(0.5), np.float32(0.8)), (Fraction(1, 2), Fraction(4, 5)),
                                               (np.float16(0.5), np.float16(0.8))])
    def test_kept_as_the_python_floats_they_print(self, gamma, epsilon):
        bounds = SparsityBounds(gamma, epsilon)
        assert bounds == SparsityBounds(0.5, 0.8)
        assert type(bounds.gamma) is float and type(bounds.epsilon) is float


class TestBuildPlanLewis:
    @pytest.mark.parametrize("gamma,epsilon", [(0.5, 0.8), (0.3, 0.8)])
    def test_reference_bounds_produce_valid_plans(self, gamma, epsilon):
        plan = build_plan_lewis(
            _profile([4.0, 1.0, 2.5]), _profile([1.0, 1.0, 1.0], "base"),
            SparsityBounds(gamma, epsilon), mode="minmax",
        )
        assert all(gamma <= d <= epsilon for d in plan.densities.values())
        assert plan.mode == "lewis-minmax"
        assert plan.bounds == SparsityBounds(gamma, epsilon)

    def test_dominant_layer_gets_max_density(self):
        plan = build_plan_lewis(
            _profile([1.1, 9.0, 1.3, 1.0]), _profile([1.0, 1.0, 1.0, 1.0], "base"),
            SparsityBounds(0.5, 0.8), mode="minmax",
        )
        assert max(plan.densities, key=plan.densities.get) == 1
        assert plan.densities[1] == pytest.approx(0.8)

    def test_default_density_is_mean(self):
        plan = build_plan_lewis(
            _profile([2.0, 4.0]), _profile([1.0, 1.0], "base"),
            SparsityBounds(0.5, 0.8), mode="minmax",
        )
        assert plan.default_density == pytest.approx(np.mean(list(plan.densities.values())))

    def test_provenance_digests_recorded(self):
        model, base = _profile([2.0]), _profile([1.0], "base")
        plan = build_plan_lewis(model, base, SparsityBounds(0.5, 0.8))
        assert plan.provenance == {
            "model_profile": model.digest(),
            "base_profile": base.digest(),
        }

    def test_literal_mode_default(self):
        plan = build_plan_lewis(
            _profile([2.0, 3.0]), _profile([1.0, 1.0], "base"), SparsityBounds(0.3, 0.8)
        )
        assert plan.mode == "lewis-literal"


class TestBuildPlanTopk:
    def test_worked_example(self):
        scores = {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
        plan = build_plan_topk(scores, 50.0)
        assert plan.densities == {0: 1.0, 2: 1.0, 1: 0.1, 3: 0.1}

    def test_k_100_all_hi(self):
        scores = {0: 1.0, 1: 2.0, 2: 0.5}
        plan = build_plan_topk(scores, 100.0)
        assert all(d == 1.0 for d in plan.densities.values())

    @pytest.mark.parametrize("k", [40.0, 50.0, 60.0, 70.0, 80.0])
    def test_reference_grid_counts(self, k):
        rng = np.random.default_rng(int(k))
        for n_layers in (4, 10, 26):
            scores = {l: float(rng.uniform(0, 1)) for l in range(n_layers)}
            plan = build_plan_topk(scores, k)
            expected = math.ceil(k / 100.0 * n_layers)
            assert sum(1 for d in plan.densities.values() if d == 1.0) == expected

    def test_ties_prefer_lower_index(self):
        scores = {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}
        plan = build_plan_topk(scores, 50.0)
        assert plan.densities == {0: 1.0, 1: 1.0, 2: 0.1, 3: 0.1}

    def test_invalid_k(self):
        scores = {0: 1.0}
        for k in (0.0, -5.0, 101.0):
            with pytest.raises(PlanError):
                build_plan_topk(scores, k)

    def test_empty_scores(self):
        with pytest.raises(PlanError):
            build_plan_topk({}, 50.0)


class TestBuildPlanLayerType:
    def test_mlp_selection(self):
        plan = build_plan_layer_type("MLP")
        assert plan.role_overrides["MLP"] == 1.0
        for kind in ("Q", "K", "V", "O"):
            assert plan.role_overrides[kind] == 0.01
        assert plan.default_density == 0.01

    def test_q_selection(self):
        plan = build_plan_layer_type("Q")
        assert plan.role_overrides["Q"] == 1.0
        assert plan.role_overrides["MLP"] == 0.01

    def test_hi_equals_lo_degenerates_to_uniform(self):
        plan = build_plan_layer_type("V", hi=0.3, lo=0.3)
        assert set(plan.role_overrides.values()) == {0.3}

    def test_invalid_role(self):
        with pytest.raises(PlanError):
            build_plan_layer_type("Embedding")


class TestBudget:
    def test_weights_each_tensor_density_by_its_size(self):
        """Role override (MLP 1.0) over block density, block densities, default for the embedding."""
        plan = SparsityPlan("m", "lewis-minmax", {0: 0.8, 1: 0.5}, default_density=0.6, role_overrides={"MLP": 1.0})
        sizes = {"embed.weight": 16, "blocks.0.attn.wq.weight": 64, "blocks.1.mlp.up.weight": 32,
                 "blocks.1.attn.wk.weight": 8}
        expected = (16 * 0.6 + 64 * 0.8 + 32 * 1.0 + 8 * 0.5) / 120
        assert plan.budget(sizes, lewis.role_classifier("toy")) == pytest.approx(expected, abs=1e-15)

    def test_non_block_tensor_needs_a_default(self):
        plan = SparsityPlan("m", "topk", {0: 0.5})
        assert plan.density_for(TensorRole("Q", 0)) == 0.5
        message = r"^plan has no default_density for non-block tensor \(tensor 'embed\.weight'\)$"
        with pytest.raises(PlanError, match=message):
            plan.density_for(TensorRole("Embedding"), "embed.weight")

    def test_no_tensors_is_zero(self):
        assert build_plan_uniform(0.5).budget({}, lewis.role_classifier("toy")) == 0.0


class TestPlanAndProfileFiles:
    def test_plan_round_trip(self, tmp_path):
        plan = build_plan_lewis(
            _profile([2.0, 4.0]), _profile([1.0, 1.0], "base"), SparsityBounds(0.5, 0.8), "minmax"
        )
        plan.save(tmp_path / "plan.json")
        loaded = SparsityPlan.load(tmp_path / "plan.json")
        assert loaded.model_id == plan.model_id
        assert loaded.mode == plan.mode
        assert loaded.densities == plan.densities
        assert loaded.bounds == plan.bounds
        assert loaded.default_density == plan.default_density
        assert loaded.digest() == plan.digest()

    def test_profile_round_trip(self, tmp_path):
        profile = _profile([1.5, 0.25], n=15)
        profile.save(tmp_path / "p.json")
        loaded = ActivationProfile.load(tmp_path / "p.json")
        assert loaded == profile

    def test_numpy_int_num_samples_saves_as_int(self, tmp_path):
        profile = ActivationProfile("m", {0: 1.0}, np.int64(3))
        assert type(profile.num_samples) is int
        profile.save(tmp_path / "p.json")
        assert ActivationProfile.load(tmp_path / "p.json") == profile

    def test_numpy_float_norm_is_kept_as_a_float(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = ActivationProfile("m", {0: np.float32(1.0), 1: np.float32(0.1)}, 1)
        assert profile.layer_norms == {0: 1.0, 1: 0.1}
        profile.save(tmp_path / "p.json")
        assert ActivationProfile.load(tmp_path / "p.json") == profile

    @pytest.mark.parametrize("bounds", [SparsityBounds(np.float32(0.5), np.float32(0.8)),
                                        SparsityBounds(Fraction(1, 2), 0.8)], ids=["float32", "fraction"])
    def test_plan_bounds_save_as_python_floats(self, tmp_path, bounds):
        fine, base = _profile([4.0, 1.0, 2.5, 2.0]), _profile([1.0, 1.0, 1.0, 1.0], "base")
        plan = build_plan_lewis(fine, base, bounds, "minmax")
        assert plan.digest() == build_plan_lewis(fine, base, SparsityBounds(0.5, 0.8), "minmax").digest()
        plan.save(tmp_path / "plan.json")
        assert SparsityPlan.load(tmp_path / "plan.json") == plan

    def test_int_reals_save_as_floats(self, tmp_path):
        plan = SparsityPlan("m", "uniform", default_density=1, bounds=[1, 1])
        plan.save(tmp_path / "plan.json")
        doc = json.loads((tmp_path / "plan.json").read_text())
        assert doc["bounds"] == [1.0, 1.0] and type(doc["bounds"][0]) is float
        assert type(doc["default_density"]) is float

    def test_digests_match_pinned_values(self):
        """Digests reach merged metadata and plan provenance, so they must not drift.

        Twelve blocks put block 10 between blocks 1 and 2 in the canonical
        (string-sorted) key order.
        """
        base = ActivationProfile("base", {i: 1.0 + 0.1 * i for i in range(12)}, 24)
        fine = ActivationProfile("ft0", {i: 1.0 + 0.1 * i + 0.01 * ((7 * i) % 12) for i in range(12)}, 24)
        plan = build_plan_lewis(fine, base, SparsityBounds(0.5, 0.8), "minmax")
        assert base.digest() == "8fc6c61dfd61106446119c0ed1b2389c41bac96e8e3c9f7854265274abd08925"
        assert fine.digest() == "9f1a8cc9231e8fd0f319184d4d855282cc47c3e8b129f860895d3144361a8683"
        assert plan.digest() == "07c0ddfa2db85e5249d9636fd13e1e86c4952068780ad23a451a24ed2a9cf314"
        assert build_plan_layer_type("V").digest() == (
            "6c928a8dd218e2df882c114dfb7208e05790bd45dff14092240ed543d7562b2b"
        )

    def test_digest_is_sha256_of_saved_file(self, tmp_path):
        plan = build_plan_lewis(
            _profile([2.0, 4.0]), _profile([1.0, 1.0], "base"), SparsityBounds(0.5, 0.8), "minmax"
        )
        recipe = lewis.MergeRecipe(base_path="b", model_paths=["m"])
        for doc in (plan, _profile([1.5, 0.25]), lewis.ArchConfig(), recipe):
            doc.save(tmp_path / "doc.json")
            assert hashlib.sha256((tmp_path / "doc.json").read_bytes()).hexdigest() == doc.digest()

    def test_plans_deterministic(self):
        a = build_plan_lewis(
            _profile([2.0, 4.0]), _profile([1.0, 1.0], "base"), SparsityBounds(0.5, 0.8)
        )
        b = build_plan_lewis(
            _profile([2.0, 4.0]), _profile([1.0, 1.0], "base"), SparsityBounds(0.5, 0.8)
        )
        assert a.digest() == b.digest()

    def test_uniform_plan(self):
        plan = build_plan_uniform(0.5)
        assert plan.default_density == 0.5
        assert plan.densities == {}
        with pytest.raises(PlanError):
            build_plan_uniform(1.5)

    def test_profile_needs_a_block(self, tmp_path):
        with pytest.raises(ProfileMismatchError, match="^layer_norms must hold at least one block$"):
            ActivationProfile("m", {}, 1)
        path = tmp_path / "p.json"
        path.write_text('{"model_id": "m", "layer_norms": {}, "num_samples": 1}')
        with pytest.raises(ProfileMismatchError, match=f"^{re.escape(str(path))}: layer_norms must hold at least one block$"):
            ActivationProfile.load(path)

    def test_profile_validation(self):
        with pytest.raises(ProfileMismatchError):
            ActivationProfile("m", {0: 1.0, 2: 1.0}, 1)  # gap in layer ids
        with pytest.raises(ProfileMismatchError):
            ActivationProfile("m", {0: -1.0}, 1)
        with pytest.raises(ProfileMismatchError):
            ActivationProfile("m", {0: 1.0}, 0)
