"""Desk-scale activation capture: a minimal deterministic decoder runtime.

The architecture is the smallest pre-norm decoder that exposes the
Q/K/V/O/MLP weight roles: token embedding, then per block [RMS norm,
causal multi-head attention, residual, RMS norm, two-matrix GELU MLP,
residual], then a final RMS norm and an untied output head. Tokenization
is byte-level (one token per byte, vocab 256), so no external tokenizer is
involved. All arithmetic runs in float64.

Attention runs as batched matmuls over heads: scores are q (heads, T, dh)
@ k (heads, dh, T) and the output is the causal softmax (heads, T, T) @ v
(heads, T, dh), so BLAS does the work. Results are bitwise deterministic
for a given numpy and BLAS build. Given the same input, each block agrees
with the reference block that tests/test_runtime.py keeps (the earlier
form, which contracted the heads outside BLAS) within rtol=1e-12 plus
atol=1e-12 times the largest |value| of its output; the order of the sums
is all that differs. Run end to end, the gap grows with depth and weight
scale, because each block amplifies the rounding it is handed (about 15x
per block at weight scale ~1).

Activation capture returns, per block, the post-residual block output as a
(tokens, hidden) matrix; profiles reduce those to one scalar per block
under a recorded norm convention so profiles from different conventions
can never be compared silently.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf

from .checkpoint import Checkpoint, _write_atomic
from .errors import ArchError, CalibrationError, load_document
from .importance import NORM_CONVENTIONS, ActivationProfile

_RMS_EPS = 1e-6


@dataclass(frozen=True)
class ArchConfig:
    """Shape of the toy decoder; vocab defaults to byte-level 256."""

    vocab_size: int = 256
    hidden_dim: int = 32
    num_blocks: int = 2
    num_heads: int = 2
    mlp_dim: int = 64
    max_seq_len: int = 128
    naming_scheme: str = "toy"

    def __post_init__(self):
        fields = ("vocab_size", "hidden_dim", "num_blocks", "num_heads", "mlp_dim", "max_seq_len")
        for name in fields:
            value = getattr(self, name)
            if type(value) is not int:  # a float or bool size breaks shapes later
                raise ArchError(f"{name} must be an int, got {value!r}")
            if value <= 0:
                raise ArchError(f"{name} must be positive, got {value}")
        if self.hidden_dim % self.num_heads != 0:
            raise ArchError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )

    @classmethod
    def load(cls, path: str | Path) -> "ArchConfig":
        return load_document(path, lambda doc: cls(**doc), ArchError)

    def save(self, path: str | Path) -> None:
        _write_atomic(path, [json.dumps(asdict(self), indent=1, sort_keys=True).encode()])


def tensor_shapes(arch: ArchConfig) -> dict[str, tuple[int, ...]]:
    """Expected tensor names and shapes for a checkpoint of this architecture."""
    d, v, m = arch.hidden_dim, arch.vocab_size, arch.mlp_dim
    shapes: dict[str, tuple[int, ...]] = {"embed.weight": (v, d)}
    for i in range(arch.num_blocks):
        shapes[f"blocks.{i}.attn_norm.weight"] = (d,)
        shapes[f"blocks.{i}.attn.wq.weight"] = (d, d)
        shapes[f"blocks.{i}.attn.wk.weight"] = (d, d)
        shapes[f"blocks.{i}.attn.wv.weight"] = (d, d)
        shapes[f"blocks.{i}.attn.wo.weight"] = (d, d)
        shapes[f"blocks.{i}.mlp_norm.weight"] = (d,)
        shapes[f"blocks.{i}.mlp.up.weight"] = (m, d)
        shapes[f"blocks.{i}.mlp.down.weight"] = (d, m)
    shapes["final_norm.weight"] = (d,)
    shapes["head.weight"] = (v, d)
    return shapes


def zero_checkpoint(arch: ArchConfig) -> Checkpoint:
    return Checkpoint({name: np.zeros(shape) for name, shape in tensor_shapes(arch).items()})


def random_checkpoint(arch: ArchConfig, seed: int, scale: float = 0.05) -> Checkpoint:
    """Random toy model; norm gains start at 1, everything else at N(0, scale)."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in tensor_shapes(arch).items():
        noise = scale * rng.standard_normal(shape)
        tensors[name] = 1.0 + noise if name.endswith("norm.weight") else noise
    return Checkpoint(tensors)


# --------------------------------------------------------------------------- #
# tokens and calibration data
# --------------------------------------------------------------------------- #

def tokenize(text: str | bytes, max_seq_len: int | None = None) -> list[int]:
    """Byte-level tokens (one per byte), truncated to max_seq_len."""
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    if len(data) == 0:
        raise ValueError("cannot tokenize empty input")
    if max_seq_len is not None:
        data = data[:max_seq_len]
    return list(data)


def detokenize(tokens: list[int]) -> bytes:
    return bytes(tokens)


@dataclass
class CalibrationSet:
    """Token-id sequences the models are profiled on."""

    samples: list[list[int]]
    source: str = ""

    def __post_init__(self):
        if len(self.samples) == 0:
            raise ValueError("calibration set must contain at least one sample")
        for i, sample in enumerate(self.samples):
            if len(sample) == 0:
                raise ValueError(f"calibration sample {i} is empty")

    def __len__(self) -> int:
        return len(self.samples)

    @classmethod
    def from_file(
        cls, path: str | Path, max_seq_len: int | None = None, vocab_size: int | None = None
    ) -> "CalibrationSet":
        """Line-delimited records, each {"text": str} or {"tokens": [ints]}.

        A malformed record, a token id outside [0, vocab_size) when a vocab
        size is given, or a file without any record raises CalibrationError
        naming the path, the 1-based line number and the field.
        """
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise CalibrationError(f"{path}: not UTF-8 text: {exc}") from exc
        samples: list[list[int]] = []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CalibrationError(f"{where}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise CalibrationError(f"{where}: record must be an object, got {type(record).__name__}")
            if "tokens" in record:
                tokens = record["tokens"]
                if not isinstance(tokens, list) or not tokens or not all(
                    isinstance(t, int) and not isinstance(t, bool) for t in tokens
                ):
                    raise CalibrationError(f"{where}: field 'tokens' must be a non-empty list of ints")
                sample = tokens[:max_seq_len]
            elif "text" in record:
                text = record["text"]
                if not isinstance(text, str) or not text:
                    raise CalibrationError(f"{where}: field 'text' must be a non-empty string")
                sample = tokenize(text, max_seq_len)
            else:
                raise CalibrationError(f"{where}: record has neither 'text' nor 'tokens'")
            if vocab_size is not None and not all(0 <= t < vocab_size for t in sample):
                raise CalibrationError(f"{where}: token ids must lie in [0, {vocab_size})")
            samples.append(sample)
        if not samples:
            raise CalibrationError(f"{path}: no calibration records")
        return cls(samples=samples, source=str(path))

    def save(self, path: str | Path) -> None:
        lines = [json.dumps({"tokens": sample}) for sample in self.samples]
        _write_atomic(path, [("\n".join(lines) + "\n").encode()])


# --------------------------------------------------------------------------- #
# forward pass
# --------------------------------------------------------------------------- #

def _get_weight(ckpt: Checkpoint, name: str, shape: tuple[int, ...]) -> np.ndarray:
    if name not in ckpt:
        raise ArchError(f"checkpoint is missing tensor {name!r}")
    arr = ckpt[name]
    if arr.shape != shape:
        raise ArchError(f"tensor {name!r} has shape {list(arr.shape)}, expected {list(shape)}")
    return arr


def _rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _RMS_EPS)
    return x / scale * gain


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_tokens(arch: ArchConfig, tokens: list[int]) -> np.ndarray:
    vocab_error = f"token ids must lie in [0, {arch.vocab_size})"
    try:
        toks = np.asarray(tokens, dtype=np.int64)
    except OverflowError as exc:
        raise ArchError(vocab_error) from exc
    if toks.ndim != 1 or toks.size == 0:
        raise ArchError("token sequence must be a nonempty 1-d list")
    if toks.size > arch.max_seq_len:
        raise ArchError(f"sequence length {toks.size} exceeds max_seq_len {arch.max_seq_len}")
    if toks.min() < 0 or toks.max() >= arch.vocab_size:
        raise ArchError(vocab_error)
    return toks


def _block_forward(ckpt: Checkpoint, arch: ArchConfig, i: int, h: np.ndarray) -> np.ndarray:
    d = arch.hidden_dim
    dh = d // arch.num_heads
    T = h.shape[0]
    shapes = {"norm": (d,), "proj": (d, d)}

    x = _rms_norm(h, _get_weight(ckpt, f"blocks.{i}.attn_norm.weight", shapes["norm"]))
    q = x @ _get_weight(ckpt, f"blocks.{i}.attn.wq.weight", shapes["proj"]).T
    k = x @ _get_weight(ckpt, f"blocks.{i}.attn.wk.weight", shapes["proj"]).T
    v = x @ _get_weight(ckpt, f"blocks.{i}.attn.wv.weight", shapes["proj"]).T
    # Per-head views, no copies: q and v as (heads, T, dh), k as (heads, dh, T).
    q = q.reshape(T, arch.num_heads, dh).transpose(1, 0, 2)
    k = k.reshape(T, arch.num_heads, dh).transpose(1, 2, 0)
    v = v.reshape(T, arch.num_heads, dh).transpose(1, 0, 2)
    scores = (q @ k) / np.sqrt(dh)
    causal = np.tril(np.ones((T, T), dtype=bool))
    scores = np.where(causal[None, :, :], scores, -np.inf)
    attn = (_softmax(scores) @ v).transpose(1, 0, 2).reshape(T, d)
    h = h + attn @ _get_weight(ckpt, f"blocks.{i}.attn.wo.weight", shapes["proj"]).T

    x = _rms_norm(h, _get_weight(ckpt, f"blocks.{i}.mlp_norm.weight", shapes["norm"]))
    up = _gelu(x @ _get_weight(ckpt, f"blocks.{i}.mlp.up.weight", (arch.mlp_dim, d)).T)
    h = h + up @ _get_weight(ckpt, f"blocks.{i}.mlp.down.weight", (d, arch.mlp_dim)).T
    return h


def forward_capture(ckpt: Checkpoint, arch: ArchConfig, tokens: list[int]) -> list[np.ndarray]:
    """Run the decoder and return each block's output, a (tokens, hidden) matrix."""
    toks = _check_tokens(arch, tokens)
    embed = _get_weight(ckpt, "embed.weight", (arch.vocab_size, arch.hidden_dim))
    h = embed[toks]
    captures: list[np.ndarray] = []
    for i in range(arch.num_blocks):
        h = _block_forward(ckpt, arch, i, h)  # a new array: blocks never write into their input
        captures.append(h)
    return captures


def forward_logits(ckpt: Checkpoint, arch: ArchConfig, tokens: list[int]) -> np.ndarray:
    """Next-token logits at every position, shape (tokens, vocab)."""
    h = forward_capture(ckpt, arch, tokens)[-1]
    h = _rms_norm(h, _get_weight(ckpt, "final_norm.weight", (arch.hidden_dim,)))
    return h @ _get_weight(ckpt, "head.weight", (arch.vocab_size, arch.hidden_dim)).T


# --------------------------------------------------------------------------- #
# profiles and evaluation
# --------------------------------------------------------------------------- #

def activation_norm(block_output: np.ndarray, convention: str = "mean-token-l2") -> float:
    """Scalar summary of one block-output matrix under a norm convention."""
    if convention == "mean-token-l2":
        return float(np.mean(np.linalg.norm(block_output, axis=-1)))
    if convention == "frobenius":
        return float(np.linalg.norm(block_output))
    raise ValueError(f"unknown norm convention {convention!r}; known: {list(NORM_CONVENTIONS)}")


def profile_model(
    ckpt: Checkpoint,
    arch: ArchConfig,
    calib: CalibrationSet,
    convention: str = "mean-token-l2",
    model_id: str = "",
) -> ActivationProfile:
    """Mean activation norm per block over the calibration samples."""
    totals = np.zeros(arch.num_blocks)
    for sample in calib.samples:
        for layer, block_output in enumerate(forward_capture(ckpt, arch, sample)):
            totals[layer] += activation_norm(block_output, convention)
    norms = totals / len(calib.samples)
    return ActivationProfile(
        model_id=model_id,
        layer_norms={layer: float(norms[layer]) for layer in range(arch.num_blocks)},
        num_samples=len(calib.samples),
        norm_convention=convention,
    )


def eval_loss(ckpt: Checkpoint, arch: ArchConfig, calib: CalibrationSet) -> float:
    """Mean next-token cross-entropy over all positions of all samples."""
    total = 0.0
    count = 0
    for i, sample in enumerate(calib.samples):
        if len(sample) < 2:
            raise ValueError(f"calibration sample {i} has {len(sample)} tokens, need >= 2")
        logits = forward_logits(ckpt, arch, sample)[:-1]
        targets = np.asarray(sample[1:], dtype=np.int64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1))
        nll = log_z - shifted[np.arange(targets.size), targets]
        total += float(nll.sum())
        count += targets.size
    return total / count
