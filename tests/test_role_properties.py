"""Property tests pinning tensor-name classification and scheme detection.

The oracles are the earlier bodies: one hand-written classifier per naming
scheme and a detector with its own prefix lists. The table-driven
`role_classifier` must give the same (kind, block index) on any name, and
`detect_naming_scheme` the same scheme on any sorted list of names (every
caller passes a checkpoint's sorted names).
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lewis.roles import TensorRole, detect_naming_scheme, role_classifier

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


def detect_oracle(names) -> str:
    for name in names:
        if name.startswith(("model.layers.", "model.embed_tokens", "lm_head")):
            return "llama-style"
        if name.startswith(("blocks.", "embed.", "final_norm", "head.")):
            return "toy"
    return "llama-style"


ORACLES = {"llama-style": _classify_llama, "toy": _classify_toy}

# Every prefix either scheme knows, plus the pieces real names are made of.
FRAGMENTS = sorted(
    {"model.layers.", "blocks.", "model.embed_tokens", "model.norm", "lm_head", "embed.",
     "final_norm", "head.", "weight", "bias", "self_attn.", "attn.", "mlp", "norm", "\n"}
    | {prefix for prefix, _ in _LLAMA_INNER + _TOY_INNER}
)

pieces = st.lists(
    st.one_of(
        st.sampled_from(FRAGMENTS),
        st.integers(0, 10**4).map(str),
        st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3),  # any script's digits
        st.just("."),
        st.text(max_size=4),
    ),
    max_size=5,
).map("".join)
# Most names open with a fragment, as real tensor names open with a scheme's prefix.
names = st.builds(str.__add__, st.sampled_from(["", *FRAGMENTS]), pieces)


@settings(max_examples=1000, deadline=None)
@given(name=names)
@example("blocks.3.mlp.\n")  # `$` matches before a final newline
@example("blocks.1.mlp.up\n.weight")  # but not before an inner one
@example("model.layers.\u0663.mlp.up.weight")  # `\d` takes an Arabic-Indic 3
def test_classify_matches_oracles(name):
    for scheme, oracle in ORACLES.items():
        got, expected = role_classifier(scheme)(name), oracle(name)
        assert (got.kind, got.block_index) == (expected.kind, expected.block_index), scheme


@settings(max_examples=500, deadline=None)
@given(names=st.lists(names, max_size=8).map(sorted))
def test_detect_matches_oracle_on_sorted_names(names):
    assert detect_naming_scheme(names) == detect_oracle(names)
