"""Tensor-name classification into architectural roles.

Merging plans are keyed by transformer block and, for the layer-type plan
mode, by the role a weight matrix plays inside its block (Q, K, V, O or
MLP). Naming schemes map checkpoint tensor names onto those roles; two
schemes ship built in, "llama-style" for HF-layout decoder checkpoints and
"toy" for the minimal runtime in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

ROLE_KINDS = ("Q", "K", "V", "O", "MLP", "Embedding", "Norm", "Head", "Other")

# Roles that only occur inside a transformer block.
BLOCK_KINDS = frozenset({"Q", "K", "V", "O", "MLP"})


@dataclass(frozen=True)
class TensorRole:
    kind: str
    block_index: int | None = None

    def __post_init__(self):
        if self.kind not in ROLE_KINDS:
            raise ValueError(f"unknown role kind {self.kind!r}")
        if self.kind in BLOCK_KINDS and self.block_index is None:
            raise ValueError(f"kind {self.kind} requires a block index")


_LLAMA_BLOCK = re.compile(r"^model\.layers\.(\d+)\.(.+)$")
_TOY_BLOCK = re.compile(r"^blocks\.(\d+)\.(.+)$")

_LLAMA_INNER = (
    ("self_attn.q_proj", "Q"),
    ("self_attn.k_proj", "K"),
    ("self_attn.v_proj", "V"),
    ("self_attn.o_proj", "O"),
    ("mlp.", "MLP"),
    ("input_layernorm", "Norm"),
    ("post_attention_layernorm", "Norm"),
)

_TOY_INNER = (
    ("attn.wq", "Q"),
    ("attn.wk", "K"),
    ("attn.wv", "V"),
    ("attn.wo", "O"),
    ("mlp.", "MLP"),
    ("attn_norm", "Norm"),
    ("mlp_norm", "Norm"),
)


def _classify_llama(name: str) -> TensorRole:
    m = _LLAMA_BLOCK.match(name)
    if m:
        block, inner = int(m.group(1)), m.group(2)
        for prefix, kind in _LLAMA_INNER:
            if inner.startswith(prefix):
                return TensorRole(kind, block)
        return TensorRole("Other")
    if name.startswith("model.embed_tokens"):
        return TensorRole("Embedding")
    if name.startswith("model.norm"):
        return TensorRole("Norm")
    if name.startswith("lm_head"):
        return TensorRole("Head")
    return TensorRole("Other")


def _classify_toy(name: str) -> TensorRole:
    m = _TOY_BLOCK.match(name)
    if m:
        block, inner = int(m.group(1)), m.group(2)
        for prefix, kind in _TOY_INNER:
            if inner.startswith(prefix):
                return TensorRole(kind, block)
        return TensorRole("Other")
    if name.startswith("embed."):
        return TensorRole("Embedding")
    if name.startswith("final_norm"):
        return TensorRole("Norm")
    if name.startswith("head."):
        return TensorRole("Head")
    return TensorRole("Other")


_SCHEMES: dict[str, Callable[[str], TensorRole]] = {
    "llama-style": _classify_llama,
    "toy": _classify_toy,
}


def classify_tensor(name: str, naming_scheme: str) -> TensorRole:
    """Classify `name` under a registered scheme. Total: unknown names are Other."""
    return role_classifier(naming_scheme)(name)


def role_classifier(naming_scheme: str) -> Callable[[str], TensorRole]:
    """A name -> TensorRole callable bound to one scheme."""
    if naming_scheme not in _SCHEMES:
        raise ValueError(
            f"unregistered naming scheme {naming_scheme!r}; known: {sorted(_SCHEMES)}"
        )
    return _SCHEMES[naming_scheme]


def detect_naming_scheme(names: Iterable[str]) -> str:
    """Guess the scheme from tensor names; defaults to llama-style."""
    for name in names:
        if name.startswith(("model.layers.", "model.embed_tokens", "lm_head")):
            return "llama-style"
        if name.startswith(("blocks.", "embed.", "final_norm", "head.")):
            return "toy"
    return "llama-style"
