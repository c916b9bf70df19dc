"""Desk-scale activation capture: a minimal deterministic decoder runtime.

The architecture is the smallest pre-norm decoder that exposes the
Q/K/V/O/MLP weight roles: token embedding, then per block [RMS norm,
causal multi-head attention, residual, RMS norm, two-matrix GELU MLP,
residual], then a final RMS norm and an untied output head. Tokenization
is byte-level (one token per byte, vocab 256), so no external tokenizer is
involved. All arithmetic runs in float64.

Attention runs as batched matmuls over heads: scores are q (heads, T, dh)
@ k (heads, dh, T) and the output is the causal softmax (heads, T, T) @ v
(heads, T, dh), so BLAS does the work. The softmax computes only the
causal lower triangle (`where=` on the max, the shift and the exp, into a
zeroed array), and each block does its other elementwise work in place on
arrays it has just made, never on its input or a weight. Every entry gets
the same IEEE operations as in the earlier out-of-place form, which
computed all of softmax(where(causal, s, -inf)), so the bytes are the same;
tests/test_runtime.py keeps that form as a byte oracle. Results are
bitwise deterministic for a given numpy and BLAS build. Given the same
input, each block also agrees with the einsum block that the tests keep
(an older form, which contracted the heads outside BLAS) within rtol=1e-12
plus atol=1e-12 times the largest |value| of its output; the order of the
sums is all that differs. Run end to end, the gap grows with depth and
weight scale, because each block amplifies the rounding it is handed
(about 15x per block at weight scale ~1).

Activation capture returns, per block, the post-residual block output as a
(tokens, hidden) matrix; profiles reduce those to one scalar per block
under a recorded norm convention so profiles from different conventions
can never be compared silently.

Inputs are checked once per call, before any arithmetic. `forward_capture`
checks the tensors it reads (`check_checkpoint`, the one weight rule) and
the tokens (`_check_tokens`, the one token rule); `forward_logits` makes
the same two checks, with `final_norm` and `head` in the first. Both then
run the blocks through `_blocks`, which reads the weights unchecked.
`profile_model` and `eval_loss` differ only in their
per-sample function; both run it through one calibration pass
(`_sample_sum`). The pass checks every sample with the same token rule,
naming the first bad one, before any forward runs (`profile_model` checks
its norm convention before that). Then it runs one sample's forward per
worker thread on the cores BLAS leaves idle (numpy's matmuls and
elementwise loops release the GIL); the calling thread is one of the
workers (`parallel.map_in_order`). Each worker returns that sample's block
norms or summed loss, and the calling thread adds them up in sample order,
exactly as a one-worker loop would, so results do not depend on the worker
count or on which worker finishes first.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterator
from dataclasses import InitVar, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.special import erf

from .checkpoint import Checkpoint, _is_int, _json_object, _os_path, _write_atomic
from .documents import Document
from .errors import ArchError, CalibrationError, MergeError
from .importance import ActivationProfile, _check_convention
from .parallel import map_in_order, usable_cores

_RMS_EPS = 1e-6
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class ArchConfig(Document, error=ArchError):
    """Shape of the toy decoder; vocab defaults to byte-level 256."""

    vocab_size: int = 256
    hidden_dim: int = 32
    num_blocks: int = 2
    num_heads: int = 2
    mlp_dim: int = 64
    max_seq_len: int = 128
    naming_scheme: InitVar[str] = "toy"  # read from older files, never saved: the runtime reads toy names only

    def __post_init__(self, naming_scheme):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not _is_int(value):  # a float or bool size breaks shapes later
                raise ArchError(f"{name} must be an int, got {value!r}")
            if value <= 0:
                raise ArchError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, int(value))
        if naming_scheme != "toy":
            raise ArchError(f"naming_scheme must be 'toy', got {naming_scheme!r}")
        if self.hidden_dim % self.num_heads != 0:
            raise ArchError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )


def _block_shapes(arch: ArchConfig) -> dict[str, tuple[int, ...]]:
    """One block's weights in forward order: `blocks.{i}.<part>.weight` -> shape."""
    d, m = arch.hidden_dim, arch.mlp_dim
    return {
        "attn_norm": (d,), "attn.wq": (d, d), "attn.wk": (d, d), "attn.wv": (d, d), "attn.wo": (d, d),
        "mlp_norm": (d,), "mlp.up": (m, d), "mlp.down": (d, m),
    }


def _tensor_layout(arch: ArchConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Tensor names and shapes in forward order, lazily: a huge num_blocks costs nothing until walked."""
    d, v = arch.hidden_dim, arch.vocab_size
    yield "embed.weight", (v, d)
    block = _block_shapes(arch)
    for i in range(arch.num_blocks):
        for part, shape in block.items():
            yield f"blocks.{i}.{part}.weight", shape
    yield "final_norm.weight", (d,)
    yield "head.weight", (v, d)


def tensor_shapes(arch: ArchConfig) -> dict[str, tuple[int, ...]]:
    """Expected tensor names and shapes for a checkpoint of this architecture."""
    return dict(_tensor_layout(arch))


def check_checkpoint(ckpt: Checkpoint, arch: ArchConfig, source: str, output_layers: bool = True) -> None:
    """Raise ArchError naming `source` unless `ckpt` holds each tensor the forward reads, at its shape.

    `output_layers=False` skips `final_norm` and `head`, which activation
    capture does not read. The first mismatch in forward order is named.
    """
    shapes = ckpt.shapes()
    for name, shape in _tensor_layout(arch):
        if not output_layers and name in ("final_norm.weight", "head.weight"):
            continue
        if name not in shapes:
            raise ArchError(f"{source}: missing tensor {name!r}, expected shape {list(shape)}")
        if shapes[name] != shape:
            raise ArchError(f"{source}: tensor {name!r} has shape {list(shapes[name])}, expected {list(shape)}")


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

def _check_max_seq_len(max_seq_len: object) -> None:
    """Raise CalibrationError unless `max_seq_len` is None (no truncation) or an int >= 1."""
    if max_seq_len is not None and not (_is_int(max_seq_len) and max_seq_len >= 1):
        raise CalibrationError(f"max_seq_len must be an int >= 1 or None, got {max_seq_len!r}")


def tokenize(text: str | bytes, max_seq_len: int | None = None) -> list[int]:
    """Byte-level tokens (one per byte) of a non-empty str or bytes, truncated to max_seq_len."""
    _check_max_seq_len(max_seq_len)
    if not isinstance(text, (str, bytes)):
        raise CalibrationError(f"cannot tokenize {type(text).__name__}: input must be str or bytes")
    data = text.encode("utf-8") if isinstance(text, str) else text
    if len(data) == 0:
        raise CalibrationError("cannot tokenize empty input")
    if max_seq_len is not None:
        data = data[:max_seq_len]
    return list(data)


@dataclass
class CalibrationSet:
    """Token-id sequences the models are profiled on."""

    samples: list[list[int]]
    source: str = "calibration set"  # named in errors; from_file sets it to the path

    def __post_init__(self):
        if not isinstance(self.samples, list):  # a str would pass as one-character samples
            raise CalibrationError(f"{self.source}: samples must be a list, got {type(self.samples).__name__}")
        if len(self.samples) == 0:
            raise CalibrationError(f"{self.source}: no samples")
        for i, sample in enumerate(self.samples, start=1):  # ids are checked once a vocab size is known
            _check_tokens(sample, None, label=f"{self.source}: sample {i}", error=CalibrationError)

    def __len__(self) -> int:
        return len(self.samples)

    @classmethod
    def from_file(
        cls, path: str | Path, max_seq_len: int | None = None, vocab_size: int | None = None
    ) -> "CalibrationSet":
        """JSONL records, one per `\n`-terminated line, each {"text": str} or {"tokens": [ints]}.

        A line the one JSON reader refuses (not UTF-8, not JSON, not one
        object, a key twice), a malformed record, a token id outside
        [0, vocab_size) when a vocab size is given, or a file without any
        record raises CalibrationError naming the path, the 1-based line
        number and the field; so does a `max_seq_len` that is not None or
        an int >= 1. A raw U+2028 or U+0085 in a string is text, not a line end.
        """
        _check_max_seq_len(max_seq_len)
        samples: list[list[int]] = []
        for lineno, line in enumerate(Path(_os_path(path)).read_bytes().split(b"\n"), start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            record = _json_object(line, where, CalibrationError)  # JSON takes the trailing \r as whitespace
            if "tokens" in record:
                tokens = record["tokens"]
                if not isinstance(tokens, list) or not tokens or not all(map(_is_int, tokens)):
                    raise CalibrationError(f"{where}: field 'tokens' must be a non-empty list of ints")
                sample = tokens[:max_seq_len]
            elif "text" in record:
                text = record["text"]
                if not isinstance(text, str) or not text:
                    raise CalibrationError(f"{where}: field 'text' must be a non-empty string")
                sample = tokenize(text, max_seq_len)
            else:
                raise CalibrationError(f"{where}: record has neither 'text' nor 'tokens'")
            _check_tokens(sample, vocab_size, label=where, error=CalibrationError)
            samples.append(sample)
        if not samples:
            raise CalibrationError(f"{path}: no calibration records")
        return cls(samples=samples, source=str(path))

    def save(self, path: str | Path) -> None:
        """One {"tokens": [...]} record per sample, ids as plain ints: the records from_file reads back."""
        for i, sample in enumerate(self.samples, start=1):
            if bad := [t for t in sample if not _is_int(t)]:
                raise CalibrationError(f"{self.source}: sample {i}: token ids must be ints, got {bad[0]!r}")
        lines = [json.dumps({"tokens": list(map(int, sample))}) for sample in self.samples]
        _write_atomic(path, [("\n".join(lines) + "\n").encode()])


# --------------------------------------------------------------------------- #
# forward pass
# --------------------------------------------------------------------------- #

def _rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """x / sqrt(mean(x * x) + eps) * gain over the last axis; the output is its one temporary the size of `x`."""
    out = x * x
    scale = np.add.reduce(out, axis=-1, keepdims=True)  # np.mean's own sum and divide
    scale /= x.shape[-1]
    scale += _RMS_EPS
    np.sqrt(scale, out=scale)
    np.divide(x, scale, out=out)
    out *= gain
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    """GELU, 0.5 * x * (1 + erf(x / sqrt(2))), written into `x`, which is returned."""
    t = x / np.sqrt(2.0)
    erf(t, out=t)
    t += 1.0
    x *= 0.5
    x *= t
    return x


def _causal_softmax(scores: np.ndarray, causal: np.ndarray) -> np.ndarray:
    """Softmax of each row of `scores` over its entries where `causal` holds, 0 elsewhere.

    Only the masked entries are computed: the row max, the shift and the exp
    run with `where=causal` into a zeroed array, so each entry gets the same
    operations it got as softmax(where(causal, scores, -inf)) and the rows
    sum the same values in the same order.
    """
    peak = np.maximum.reduce(scores, axis=-1, keepdims=True, where=causal, initial=-np.inf)
    e = np.zeros_like(scores)
    np.subtract(scores, peak, out=e, where=causal)
    np.exp(e, out=e, where=causal)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _check_tokens(
    tokens: list[int], vocab_size: int | None, max_seq_len: int | None = None, min_tokens: int = 1,
    label: str = "token sequence", error: type[MergeError] = ArchError,
) -> None:
    """The one token rule: raise `error` naming `label` unless the forward can take `tokens`.

    `tokens` must hold max(1, min_tokens) to `max_seq_len` ids, each an int (a
    numpy int too) in [0, vocab_size); a bool, float or string id gets the
    out-of-range message.
    With no `vocab_size`, only the length is checked.
    """
    try:
        n = len(tokens)
    except TypeError:  # a bare int or a 0-d array
        raise error(f"{label} must be a list of token ids, got {type(tokens).__name__}") from None
    if n == 0:
        raise error(f"{label} is empty")
    if n < min_tokens:
        raise error(f"{label} has {n} tokens, need >= {min_tokens}")
    if max_seq_len is not None and n > max_seq_len:
        raise error(f"{label} has {n} tokens, exceeds max_seq_len {max_seq_len}")
    if vocab_size is not None and not all(_is_int(t) and 0 <= t < vocab_size for t in tokens):
        raise error(f"{label}: token ids must lie in [0, {vocab_size})")


def _block_forward(ckpt: Checkpoint, arch: ArchConfig, i: int, h: np.ndarray, causal: np.ndarray) -> np.ndarray:
    """Block `i` on input `h` (left unchanged); `causal` is the (T, T) lower-triangle mask."""
    attn_norm, wq, wk, wv, wo, mlp_norm, up, down = (ckpt[f"blocks.{i}.{part}.weight"] for part in _block_shapes(arch))
    d = arch.hidden_dim
    dh = d // arch.num_heads
    T = h.shape[0]

    x = _rms_norm(h, attn_norm)
    q = x @ wq.T
    k = x @ wk.T
    v = x @ wv.T
    # Per-head views, no copies: q and v as (heads, T, dh), k as (heads, dh, T).
    q = q.reshape(T, arch.num_heads, dh).transpose(1, 0, 2)
    k = k.reshape(T, arch.num_heads, dh).transpose(1, 2, 0)
    v = v.reshape(T, arch.num_heads, dh).transpose(1, 0, 2)
    scores = q @ k
    scores /= np.sqrt(dh)
    attn = (_causal_softmax(scores, causal) @ v).transpose(1, 0, 2).reshape(T, d)
    y = attn @ wo.T
    y += h

    x = _rms_norm(y, mlp_norm)
    out = _gelu(x @ up.T) @ down.T
    out += y
    return out


def _blocks(ckpt: Checkpoint, arch: ArchConfig, tokens: list[int]) -> list[np.ndarray]:
    """Each block's output on checked weights and tokens; every array is new, so captures share no memory."""
    h = ckpt["embed.weight"][np.asarray(tokens, dtype=np.int64)]
    causal = np.tri(len(tokens), dtype=bool)
    captures: list[np.ndarray] = []
    for i in range(arch.num_blocks):
        h = _block_forward(ckpt, arch, i, h, causal)
        captures.append(h)
    return captures


def forward_capture(ckpt: Checkpoint, arch: ArchConfig, tokens: list[int]) -> list[np.ndarray]:
    """Run the decoder and return each block's output, a (tokens, hidden) matrix."""
    check_checkpoint(ckpt, arch, "checkpoint", output_layers=False)
    _check_tokens(tokens, arch.vocab_size, arch.max_seq_len)
    return _blocks(ckpt, arch, tokens)


def forward_logits(ckpt: Checkpoint, arch: ArchConfig, tokens: list[int]) -> np.ndarray:
    """Next-token logits at every position, shape (tokens, vocab)."""
    check_checkpoint(ckpt, arch, "checkpoint")
    _check_tokens(tokens, arch.vocab_size, arch.max_seq_len)
    h = _blocks(ckpt, arch, tokens)[-1]
    return _rms_norm(h, ckpt["final_norm.weight"]) @ ckpt["head.weight"].T


# --------------------------------------------------------------------------- #
# profiles and evaluation
# --------------------------------------------------------------------------- #

def activation_norm(block_output: np.ndarray, convention: str = "mean-token-l2") -> float:
    """Scalar summary of one block-output matrix under a norm convention."""
    _check_convention(convention)
    if convention == "frobenius":
        return float(np.linalg.norm(block_output))
    return float(np.mean(np.linalg.norm(block_output, axis=-1)))


def _forward_workers(num_samples: int) -> int:
    """Worker threads for a calibration pass: the cores BLAS leaves idle, at most one per sample.

    BLAS uses the largest valid positive value among the BLAS thread
    variables; with none set it takes every core, so one worker runs.
    """
    blas = 0
    for var in _BLAS_THREAD_VARS:
        try:
            blas = max(blas, int(os.environ.get(var, "")))
        except ValueError:  # unset or malformed
            pass
    if blas < 1:
        return 1
    return max(1, min(num_samples, usable_cores() // blas))


def _sample_sum(fn: Callable[[list[int]], object], arch: ArchConfig, calib: CalibrationSet, min_tokens: int = 1):
    """The calibration pass: every sample checked, then `fn(sample)` run on the forward
    workers and added up in sample order by a plain loop (sum() may round differently)."""
    for i, sample in enumerate(calib.samples, start=1):
        _check_tokens(
            sample, arch.vocab_size, arch.max_seq_len, min_tokens, f"{calib.source}: sample {i}", CalibrationError
        )
    total = 0.0
    for value in map_in_order(fn, calib.samples, _forward_workers(len(calib.samples))):
        total = total + value
    return total


def profile_model(
    ckpt: Checkpoint,
    arch: ArchConfig,
    calib: CalibrationSet,
    convention: str = "mean-token-l2",
    model_id: str = "",
) -> ActivationProfile:
    """Mean activation norm per block over the calibration samples."""
    _check_convention(convention)

    def block_norms(sample: list[int]) -> np.ndarray:
        return np.array([activation_norm(h, convention) for h in forward_capture(ckpt, arch, sample)])

    # Sized by the forward pass, not arch.num_blocks: a checkpoint that lacks
    # a block fails there before a huge num_blocks could allocate anything.
    norms = _sample_sum(block_norms, arch, calib) / len(calib.samples)
    return ActivationProfile(
        model_id=model_id,
        layer_norms=dict(enumerate(norms)),
        num_samples=len(calib.samples),
        norm_convention=convention,
    )


def eval_loss(ckpt: Checkpoint, arch: ArchConfig, calib: CalibrationSet) -> float:
    """Mean next-token cross-entropy over all positions of all samples."""
    def summed_nll(sample: list[int]) -> float:
        logits = forward_logits(ckpt, arch, sample)[:-1]
        targets = np.asarray(sample[1:], dtype=np.int64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1))
        nll = log_z - shifted[np.arange(targets.size), targets]
        return float(nll.sum())

    return _sample_sum(summed_nll, arch, calib, min_tokens=2) / sum(len(sample) - 1 for sample in calib.samples)
