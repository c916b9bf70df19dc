"""Activation-guided layer importance and sparsity-plan construction.

The guidance signal is the per-block deviation of mean activation norms
between a fine-tuned model and its base, measured on a shared calibration
set. Blocks that deviate more are deemed more important and receive a
higher keep-density when the task vector is pruned before merging.

Two normalizations turn raw deviations into densities inside the sparsity
bounds [gamma, epsilon]:

  literal  density = clip(raw / sum(raw), gamma, epsilon); all gamma when
           the sum is zero. Matches the stated rule exactly, but with many
           blocks every raw/sum falls below gamma and the plan degenerates
           to uniform gamma.
  minmax   affine map of raw onto [gamma, epsilon]; all-equal raws map to
           the midpoint. Scale-free and non-degenerate, the practically
           useful mode.

Both normalizations and topk read per-block scores under one rule
(`_check_scores`): at least one block, each block id an int, and each score
a finite real >= 0, read as a Python float.

Plan modes beyond the two lewis ones: uniform (single density everywhere),
topk (top k% most-deviating blocks at a high density, rest low) and
layer-type (one of Q/K/V/O/MLP kept dense, every other block tensor at a
token density).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .checkpoint import _is_int, _is_str_map
from .documents import Document
from .errors import MergeError, PlanError, ProfileMismatchError
from .roles import BLOCK_KINDS, TensorRole

PLAN_MODES = ("lewis-literal", "lewis-minmax", "uniform", "topk", "layer-type")

NORM_CONVENTIONS = ("mean-token-l2", "frobenius")


def _is_real(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _float(value: object) -> float:
    """The one stored form of a real: the Python float of a finite real, else NaN (which fails every range check).
    Ints and fractions meet the float range exactly, unrounded; a numpy float becomes the decimal it prints, with
    no overflow warning (np.float32(0.8) gives 0.8, not 0.800000011920929, and 0.8 narrows back to that float32)."""
    if isinstance(value, numbers.Rational):  # ints, numpy ints and fractions
        fits = not isinstance(value, bool) and -sys.float_info.max <= value <= sys.float_info.max
        return float(value) if fits else math.nan
    if isinstance(value, np.floating):
        value = float(str(value))
    return float(value) if isinstance(value, numbers.Real) and math.isfinite(value) else math.nan


def _is_finite_real(value: object) -> bool:
    """A real (not a bool) of magnitude at most float max: fails NaN, inf, and ints or fractions past that."""
    return not math.isnan(_float(value))


def _check_density(value: float, what: str = "density", error: type[MergeError] = MergeError) -> float:
    """`value` as a float if it is a keep-density in (0, 1], else raise `error` naming `what`."""
    if not _is_real(value):
        raise error(f"{what} must be a number, got {value!r}")
    density = _float(value)
    if not 0.0 < density <= 1.0:  # NaN fails too
        raise error(f"{what} must lie in (0, 1], got {value}")
    return density


def _check_convention(convention: object) -> None:
    """Raise ProfileMismatchError unless `convention` is a known norm convention."""
    if convention not in NORM_CONVENTIONS:
        raise ProfileMismatchError(f"unknown norm_convention {convention!r}; known: {list(NORM_CONVENTIONS)}")


def _by_block(mapping: Mapping, what: str, error: type[MergeError]) -> dict:
    """`mapping` with int keys, the exact inverse of `documents._json_value`'s str(k): a key must be an int or the
    text str() gives for one ("01", "+1", True and 1.0 are not), one key per block; else raise `error` naming `what`."""
    try:
        blocks = {int(k): v for k, v in mapping.items() if str(int(k)) == str(k)}
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must map block ids to values: {exc}") from exc
    if len(blocks) < len(mapping):
        raise error(f"{what}: block ids must be ints as str() writes them, no block twice; got keys {list(mapping)}")
    return blocks


def _check_scores(scores: Mapping[int, float]) -> dict[int, float]:
    """The one rule for per-block scores: at least one, each an int block id to a finite real >= 0; else PlanError.
    Returns them as Python ints to floats, so no arithmetic on them runs at a narrower numpy precision."""
    if not scores:
        raise PlanError("importance scores are empty")
    for layer, value in scores.items():
        if not _is_int(layer):  # ids sort and index as ints
            raise PlanError(f"block id {layer!r} must be an int")
        if _is_real(value) and value < 0:
            raise PlanError(f"raw score for layer {layer} must be >= 0, got {value}")
        if not _is_finite_real(value):
            raise PlanError(f"raw score for layer {layer} must be a finite number >= 0, got {value!r}")
    return {int(layer): _float(value) for layer, value in scores.items()}


@dataclass(frozen=True)
class SparsityBounds:
    """Keep-density bounds: 0 < gamma <= epsilon <= 1."""

    gamma: float = 0.5
    epsilon: float = 0.8

    def __post_init__(self):
        gamma, epsilon = _float(self.gamma), _float(self.epsilon)
        if not 0.0 < gamma <= epsilon <= 1.0:
            raise PlanError(
                f"bounds must satisfy 0 < gamma <= epsilon <= 1, got [{self.gamma}, {self.epsilon}]"
            )
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "epsilon", epsilon)


@dataclass
class ActivationProfile(Document, error=ProfileMismatchError):
    """Per-block mean activation norms for one model on one calibration set."""

    model_id: str
    layer_norms: dict[int, float]
    num_samples: int
    norm_convention: str = "mean-token-l2"

    def __post_init__(self):
        if not isinstance(self.model_id, str):
            raise ProfileMismatchError(f"model_id must be a string, got {self.model_id!r}")
        n = self.num_samples
        if not _is_int(n) or n < 1:
            raise ProfileMismatchError(f"num_samples must be an int >= 1, got {n!r}")
        self.num_samples = int(n)
        _check_convention(self.norm_convention)
        self.layer_norms = _by_block(self.layer_norms, "layer_norms", ProfileMismatchError)
        if not self.layer_norms:  # a plan needs at least one block to set densities from
            raise ProfileMismatchError("layer_norms must hold at least one block")
        ids = sorted(self.layer_norms)
        if ids != list(range(len(ids))):
            raise ProfileMismatchError(f"layer ids must be contiguous 0..L-1, got {ids}")
        for layer, value in self.layer_norms.items():
            if not (_is_finite_real(value) and value >= 0.0):
                raise ProfileMismatchError(
                    f"layer_norms: layer {layer} norm must be a finite number >= 0, got {value!r}"
                )
            self.layer_norms[layer] = _float(value)


@dataclass
class SparsityPlan(Document, error=PlanError):
    """Per-block keep-densities plus a default for tensors outside blocks.

    `role_overrides`, when present, wins over block densities: any tensor
    whose role kind appears there is pruned at that density regardless of
    its block. `bounds` may be given as a [gamma, epsilon] list, the form
    it takes in a plan file.
    """

    model_id: str
    mode: str
    densities: dict[int, float] = field(default_factory=dict)
    default_density: float | None = None
    bounds: SparsityBounds | None = None
    role_overrides: dict[str, float] | None = None
    provenance: dict[str, str] | None = None

    def __post_init__(self):
        if not isinstance(self.model_id, str):
            raise PlanError(f"model_id must be a string, got {self.model_id!r}")
        if self.mode not in PLAN_MODES:
            raise PlanError(f"unknown plan mode {self.mode!r}; known: {list(PLAN_MODES)}")
        self.densities = {
            k: _check_density(v, f"densities: density for block {k}", PlanError)
            for k, v in _by_block(self.densities, "densities", PlanError).items()
        }
        if self.bounds is not None and not isinstance(self.bounds, SparsityBounds):
            if not (isinstance(self.bounds, list) and len(self.bounds) == 2):
                raise PlanError(f"bounds must be [gamma, epsilon], got {self.bounds!r}")
            self.bounds = SparsityBounds(*self.bounds)
        if self.default_density is not None:
            self.default_density = _check_density(self.default_density, "default_density", PlanError)
        if self.role_overrides is not None:
            if not isinstance(self.role_overrides, Mapping):
                raise PlanError(f"role_overrides must map role kinds to densities, got {self.role_overrides!r}")
            for kind in self.role_overrides:
                if kind not in BLOCK_KINDS:
                    raise PlanError(f"role override for non-block kind {kind!r}")
            self.role_overrides = {
                kind: _check_density(value, f"role_overrides: density for role {kind}", PlanError)
                for kind, value in self.role_overrides.items()
            }
        if self.provenance is not None and not _is_str_map(self.provenance):
            raise PlanError(f"provenance must map strings to strings, got {self.provenance!r}")

    def density_for(self, role: TensorRole, name: str = "") -> float:
        """Keep-density for a tensor with the given role.

        Resolution order: role override, then block density, then default.
        """
        if self.role_overrides and role.kind in self.role_overrides:
            return self.role_overrides[role.kind]
        if role.block_index is not None and role.block_index in self.densities:
            return self.densities[role.block_index]
        if self.default_density is None:
            where = f" (tensor {name!r})" if name else ""
            if role.block_index is not None:
                raise PlanError(
                    f"no density for block {role.block_index}{where} and plan has no default_density"
                )
            raise PlanError(f"plan has no default_density for non-block tensor{where}")
        return self.default_density

    def budget(self, sizes: Mapping[str, int], roles: Callable[[str], TensorRole]) -> float:
        """Parameter budget Σ dₜnₜ / Σ nₜ over the tensors in `sizes` (name -> element count); 0 for none."""
        kept = sum(self.density_for(roles(name), name) * size for name, size in sizes.items())
        return kept / (sum(sizes.values()) or 1)


# --------------------------------------------------------------------------- #
# scoring and normalization
# --------------------------------------------------------------------------- #

def importance_deltas(
    model_profile: ActivationProfile, base_profile: ActivationProfile
) -> dict[int, float]:
    """Absolute per-block norm deviation |model - base|, keyed by block."""
    if sorted(model_profile.layer_norms) != sorted(base_profile.layer_norms):
        raise ProfileMismatchError(
            f"layer sets differ: {sorted(model_profile.layer_norms)} vs {sorted(base_profile.layer_norms)}"
        )
    if model_profile.norm_convention != base_profile.norm_convention:
        raise ProfileMismatchError(
            f"norm conventions differ: {model_profile.norm_convention!r} vs {base_profile.norm_convention!r}"
        )
    return {
        layer: abs(model_profile.layer_norms[layer] - base_profile.layer_norms[layer])
        for layer in sorted(model_profile.layer_norms)
    }


def normalize_and_clip(
    raw: Mapping[int, float], bounds: SparsityBounds, mode: str = "literal"
) -> dict[int, float]:
    """Map raw deviations to keep-densities in [gamma, epsilon].

    literal: clip(raw/S, gamma, epsilon) with S the per-model sum of raws;
    S == 0 sends every block to gamma. minmax: affine map of the raw range
    onto [gamma, epsilon]; an all-equal profile maps to the midpoint.
    """
    if mode not in ("literal", "minmax"):
        raise PlanError(f"unknown normalization mode {mode!r}")
    raw = _check_scores(raw)
    layers = sorted(raw)
    if mode == "literal":
        total = sum(raw[l] for l in layers)
        if total == 0.0:
            return {l: bounds.gamma for l in layers}
        return {l: min(max(raw[l] / total, bounds.gamma), bounds.epsilon) for l in layers}
    lo = min(raw[l] for l in layers)
    hi = max(raw[l] for l in layers)
    if hi == lo:
        mid = (bounds.gamma + bounds.epsilon) / 2.0
        return {l: mid for l in layers}
    span = bounds.epsilon - bounds.gamma
    return {l: bounds.gamma + (raw[l] - lo) / (hi - lo) * span for l in layers}


# --------------------------------------------------------------------------- #
# plan builders
# --------------------------------------------------------------------------- #

def build_plan_lewis(
    model_profile: ActivationProfile,
    base_profile: ActivationProfile,
    bounds: SparsityBounds,
    mode: str = "literal",
) -> SparsityPlan:
    """Activation-guided plan: deviation-proportional densities within bounds."""
    densities = normalize_and_clip(importance_deltas(model_profile, base_profile), bounds, mode)
    return SparsityPlan(
        model_id=model_profile.model_id,
        mode=f"lewis-{mode}",
        densities=densities,
        default_density=sum(densities.values()) / len(densities),
        bounds=bounds,
        provenance={
            "model_profile": model_profile.digest(),
            "base_profile": base_profile.digest(),
        },
    )


def build_plan_topk(
    scores: Mapping[int, float],
    k_percent: float,
    hi: float = 1.0,
    lo: float = 0.1,
    model_id: str = "",
) -> SparsityPlan:
    """Top k% most-deviating blocks (by per-block `scores`) at density `hi`, the rest at `lo`.

    Ties broken toward the lower block index.
    """
    scores = _check_scores(scores)
    k = _float(k_percent)
    if not 0.0 < k <= 100.0:
        raise PlanError(f"k_percent must be a number in (0, 100], got {k_percent!r}")
    hi, lo = _check_density(hi, "hi density", PlanError), _check_density(lo, "lo density", PlanError)
    layers = sorted(scores)
    count = math.ceil(k / 100.0 * len(layers))
    ranked = sorted(layers, key=lambda l: (-scores[l], l))
    top = set(ranked[:count])
    densities = {l: (hi if l in top else lo) for l in layers}
    return SparsityPlan(
        model_id=model_id,
        mode="topk",
        densities=densities,
        default_density=sum(densities.values()) / len(densities),
    )


def build_plan_layer_type(
    role_kind: str,
    hi: float = 1.0,
    lo: float = 0.01,
    model_id: str = "",
) -> SparsityPlan:
    """Keep one role kind (Q/K/V/O/MLP) at `hi`; every other block tensor at `lo`."""
    if role_kind not in BLOCK_KINDS:
        raise PlanError(f"role must be one of {sorted(BLOCK_KINDS)}, got {role_kind!r}")
    hi, lo = _check_density(hi, "hi density", PlanError), _check_density(lo, "lo density", PlanError)
    overrides = {kind: (hi if kind == role_kind else lo) for kind in sorted(BLOCK_KINDS)}
    return SparsityPlan(
        model_id=model_id or f"only-{role_kind.lower()}",
        mode="layer-type",
        densities={},
        default_density=lo,
        role_overrides=overrides,
    )


def build_plan_uniform(density: float, model_id: str = "uniform") -> SparsityPlan:
    """One density for every tensor; density 0.5 is the unguided baseline."""
    return SparsityPlan(
        model_id=model_id,
        mode="uniform",
        densities={},
        default_density=_check_density(density, "density", PlanError),
    )
