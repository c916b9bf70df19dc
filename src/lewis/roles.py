"""Tensor-name classification into architectural roles.

Merging plans are keyed by transformer block and, for the layer-type plan
mode, by the role a weight matrix plays inside its block (Q, K, V, O or
MLP). Naming schemes map checkpoint tensor names onto those roles; two
schemes ship built in, "llama-style" for HF-layout decoder checkpoints and
"toy" for the minimal runtime in this package. One table holds both, and
the scheme a checkpoint uses is read off its tensor names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import MergeError

ROLE_KINDS = ("Q", "K", "V", "O", "MLP", "Embedding", "Norm", "Head", "Other")

# Roles that only occur inside a transformer block.
BLOCK_KINDS = frozenset({"Q", "K", "V", "O", "MLP"})


@dataclass(frozen=True)
class TensorRole:
    kind: str
    block_index: int | None = None

    def __post_init__(self):
        if self.kind not in ROLE_KINDS:
            raise MergeError(f"unknown role kind {self.kind!r}")
        if self.kind in BLOCK_KINDS and self.block_index is None:
            raise MergeError(f"kind {self.kind} requires a block index")


# Per scheme: the block-name prefix (followed by the block index and a dot),
# each in-block prefix with its role, then each top-level prefix with its role.
# Prefixes are tried in order; a name no prefix claims is Other.
_SCHEMES: dict[str, tuple[str, tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]] = {
    "llama-style": (
        "model.layers.",
        (
            ("self_attn.q_proj", "Q"),
            ("self_attn.k_proj", "K"),
            ("self_attn.v_proj", "V"),
            ("self_attn.o_proj", "O"),
            ("mlp.", "MLP"),
            ("input_layernorm", "Norm"),
            ("post_attention_layernorm", "Norm"),
        ),
        (("model.embed_tokens", "Embedding"), ("model.norm", "Norm"), ("lm_head", "Head")),
    ),
    "toy": (
        "blocks.",
        (
            ("attn.wq", "Q"),
            ("attn.wk", "K"),
            ("attn.wv", "V"),
            ("attn.wo", "O"),
            ("mlp.", "MLP"),
            ("attn_norm", "Norm"),
            ("mlp_norm", "Norm"),
        ),
        (("embed.", "Embedding"), ("final_norm", "Norm"), ("head.", "Head")),
    ),
}


def role_classifier(naming_scheme: str) -> Callable[[str], TensorRole]:
    """A name -> TensorRole callable bound to one scheme. Total: unknown names are Other."""
    if naming_scheme not in _SCHEMES:
        raise MergeError(
            f"unregistered naming scheme {naming_scheme!r}; known: {sorted(_SCHEMES)}"
        )
    block_prefix, inner, top = _SCHEMES[naming_scheme]
    block = re.compile(re.escape(block_prefix) + r"(\d+)\.(.+)$")

    def classify(name: str) -> TensorRole:
        m = block.match(name)
        index, rest, prefixes = (int(m.group(1)), m.group(2), inner) if m else (None, name, top)
        for prefix, kind in prefixes:
            if rest.startswith(prefix):
                return TensorRole(kind, index)
        return TensorRole("Other")

    return classify


def detect_naming_scheme(names: Iterable[str]) -> str:
    """The scheme whose block or top-level prefix the first claimed name starts with; llama-style if none."""
    for name in names:
        for scheme, (block_prefix, _, top) in _SCHEMES.items():
            if name.startswith((block_prefix, *(prefix for prefix, _ in top))):
                return scheme
    return "llama-style"
