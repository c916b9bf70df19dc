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

Plan modes beyond the two lewis ones: uniform (single density everywhere),
topk (top k% most-deviating blocks at a high density, rest low) and
layer-type (one of Q/K/V/O/MLP kept dense, every other block tensor at a
token density).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .checkpoint import _write_atomic
from .errors import PlanError, ProfileMismatchError, load_document
from .roles import BLOCK_KINDS, TensorRole

PLAN_MODES = ("lewis-literal", "lewis-minmax", "uniform", "topk", "layer-type")

NORM_CONVENTIONS = ("mean-token-l2", "frobenius")


def _is_real(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_density(value: float, what: str = "density", error: type[Exception] = ValueError) -> float:
    """`value` as a float if it is a keep-density in (0, 1], else raise `error` naming `what`."""
    if not _is_real(value):
        raise error(f"{what} must be a number, got {value!r}")
    value = float(value)
    if not (0.0 < value <= 1.0) or math.isnan(value):
        raise error(f"{what} must lie in (0, 1], got {value}")
    return value


def _by_block(mapping: Mapping, what: str, error: type[Exception]) -> dict:
    """`mapping` with its block-id keys (ints or decimal strings) made ints, else raise `error` naming `what`."""
    try:
        return {int(k): v for k, v in mapping.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise error(f"{what} must map block ids to values: {exc}") from exc


@dataclass(frozen=True)
class SparsityBounds:
    """Keep-density bounds: 0 < gamma <= epsilon <= 1."""

    gamma: float
    epsilon: float

    def __post_init__(self):
        if not (_is_real(self.gamma) and _is_real(self.epsilon)) or not (
            0.0 < self.gamma <= self.epsilon <= 1.0
        ):
            raise PlanError(
                f"bounds must satisfy 0 < gamma <= epsilon <= 1, got [{self.gamma}, {self.epsilon}]"
            )


@dataclass
class ActivationProfile:
    """Per-block mean activation norms for one model on one calibration set."""

    model_id: str
    layer_norms: dict[int, float]
    num_samples: int
    norm_convention: str = "mean-token-l2"

    def __post_init__(self):
        if not isinstance(self.model_id, str):
            raise ProfileMismatchError(f"model_id must be a string, got {self.model_id!r}")
        n = self.num_samples
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ProfileMismatchError(f"num_samples must be an int >= 1, got {n!r}")
        if self.norm_convention not in NORM_CONVENTIONS:
            raise ProfileMismatchError(
                f"unknown norm_convention {self.norm_convention!r}; known: {list(NORM_CONVENTIONS)}"
            )
        self.layer_norms = _by_block(self.layer_norms, "layer_norms", ProfileMismatchError)
        ids = sorted(self.layer_norms)
        if ids != list(range(len(ids))):
            raise ProfileMismatchError(f"layer ids must be contiguous 0..L-1, got {ids}")
        for layer, value in self.layer_norms.items():
            if not _is_real(value) or not math.isfinite(value) or value < 0:
                raise ProfileMismatchError(
                    f"layer_norms: layer {layer} norm must be a finite number >= 0, got {value!r}"
                )
            self.layer_norms[layer] = float(value)

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "norm_convention": self.norm_convention,
            "num_samples": self.num_samples,
            "layer_norms": {str(k): self.layer_norms[k] for k in sorted(self.layer_norms)},
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ActivationProfile":
        return cls(
            model_id=doc["model_id"],
            layer_norms=doc["layer_norms"],
            num_samples=doc["num_samples"],
            norm_convention=doc.get("norm_convention", "mean-token-l2"),
        )

    def save(self, path: str | Path) -> None:
        _write_atomic(path, [canonical_json(self.to_dict()).encode()])

    @classmethod
    def load(cls, path: str | Path) -> "ActivationProfile":
        return load_document(path, cls.from_dict, ProfileMismatchError)

    def digest(self) -> str:
        return sha256_hex(canonical_json(self.to_dict()))


@dataclass
class SparsityPlan:
    """Per-block keep-densities plus a default for tensors outside blocks.

    `role_overrides`, when present, wins over block densities: any tensor
    whose role kind appears there is pruned at that density regardless of
    its block.
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

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "mode": self.mode,
            "bounds": None if self.bounds is None else [self.bounds.gamma, self.bounds.epsilon],
            "default_density": self.default_density,
            "densities": {str(k): self.densities[k] for k in sorted(self.densities)},
            "role_overrides": self.role_overrides,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SparsityPlan":
        bounds = doc.get("bounds")
        if bounds is not None and not (isinstance(bounds, list) and len(bounds) == 2):
            raise PlanError(f"bounds must be [gamma, epsilon], got {bounds!r}")
        return cls(
            model_id=doc["model_id"],
            mode=doc["mode"],
            densities=doc.get("densities", {}),
            default_density=doc.get("default_density"),
            bounds=None if bounds is None else SparsityBounds(*bounds),
            role_overrides=doc.get("role_overrides"),
            provenance=doc.get("provenance"),
        )

    def save(self, path: str | Path) -> None:
        _write_atomic(path, [canonical_json(self.to_dict()).encode()])

    @classmethod
    def load(cls, path: str | Path) -> "SparsityPlan":
        return load_document(path, cls.from_dict, PlanError)

    def digest(self) -> str:
        return sha256_hex(canonical_json(self.to_dict()))


def canonical_json(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    for layer, value in raw.items():
        if value < 0 or math.isnan(value):
            raise PlanError(f"raw score for layer {layer} must be >= 0, got {value}")
    layers = sorted(raw)
    if mode == "literal":
        total = float(sum(raw[l] for l in layers))
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
        default_density=float(sum(densities.values()) / len(densities)),
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
    if not scores:
        raise PlanError("importance scores are empty")
    if not (0.0 < k_percent <= 100.0):
        raise PlanError(f"k_percent must lie in (0, 100], got {k_percent}")
    _check_density(hi, "hi density", PlanError)
    _check_density(lo, "lo density", PlanError)
    layers = sorted(scores)
    count = math.ceil(k_percent / 100.0 * len(layers))
    ranked = sorted(layers, key=lambda l: (-scores[l], l))
    top = set(ranked[:count])
    densities = {l: (hi if l in top else lo) for l in layers}
    return SparsityPlan(
        model_id=model_id,
        mode="topk",
        densities=densities,
        default_density=float(sum(densities.values()) / len(densities)),
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
    _check_density(hi, "hi density", PlanError)
    _check_density(lo, "lo density", PlanError)
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
