"""Toy decoder runtime: tokenization, forward pass, profiles, loss."""

import json
import math
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

import lewis
from lewis import (
    ArchConfig,
    CalibrationSet,
    Checkpoint,
    activation_norm,
    eval_loss,
    forward_capture,
    forward_logits,
    profile_model,
    random_checkpoint,
    tokenize,
    zero_checkpoint,
)
from lewis import runtime
from lewis.errors import ArchError, CalibrationError, ProfileMismatchError
from lewis.runtime import (
    _causal_softmax,
    _forward_workers,
    check_checkpoint,
    tensor_shapes,
)
from conftest import pin_machine


class TestTokenize:
    def test_byte_values(self):
        assert tokenize("Hi") == [72, 105]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tokenize("")

    def test_truncation(self):
        assert tokenize("abcdef", max_seq_len=3) == [97, 98, 99]

    def test_bytes_input(self):
        assert tokenize(b"\x00\xff") == [0, 255]

    @pytest.mark.parametrize("max_seq_len", [0, -1, 2.0, True], ids=["zero", "negative", "float", "bool"])
    def test_max_seq_len_must_be_a_positive_int(self, max_seq_len):
        with pytest.raises(CalibrationError, match=f"^max_seq_len must be an int >= 1 or None, got {max_seq_len!r}$"):
            tokenize("abc", max_seq_len)

    @pytest.mark.parametrize("text", [5, None, [72, 105]], ids=["int", "none", "list"])
    def test_only_str_or_bytes(self, text):
        with pytest.raises(CalibrationError, match=f"^cannot tokenize {type(text).__name__}: input must be str or bytes$"):
            tokenize(text)


class TestForwardCapture:
    def test_zero_model_zero_activations(self, small_arch):
        ckpt = zero_checkpoint(small_arch)
        captures = forward_capture(ckpt, small_arch, [1, 2, 3])
        assert len(captures) == small_arch.num_blocks
        for block_output in captures:
            assert block_output.shape == (3, small_arch.hidden_dim)
            np.testing.assert_array_equal(block_output, 0.0)

    def test_deterministic_bitwise(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=61)
        a = forward_capture(ckpt, small_arch, [5, 6, 7, 8])
        b = forward_capture(ckpt, small_arch, [5, 6, 7, 8])
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_single_block_matches_scalar_oracle(self):
        """Two-token forward recomputed with plain Python floats."""
        arch = ArchConfig(
            vocab_size=4, hidden_dim=2, num_blocks=1, num_heads=1, mlp_dim=2, max_seq_len=8
        )
        embed = [[1.0, 0.25], [-0.5, 1.0], [0.0, 0.0], [0.0, 0.0]]
        wq = [[0.8, -0.2], [0.3, 0.5]]
        wk = [[0.4, 0.1], [-0.6, 0.9]]
        wv = [[1.0, -0.3], [0.2, 0.7]]
        wo = [[0.5, 0.5], [-0.25, 1.0]]
        w_up = [[0.9, 0.1], [-0.4, 0.6]]
        w_down = [[0.7, -0.2], [0.3, 0.8]]
        attn_norm = [1.0, 0.5]
        mlp_norm = [0.75, 1.25]
        ckpt = Checkpoint(
            {
                "embed.weight": np.array(embed),
                "blocks.0.attn_norm.weight": np.array(attn_norm),
                "blocks.0.attn.wq.weight": np.array(wq),
                "blocks.0.attn.wk.weight": np.array(wk),
                "blocks.0.attn.wv.weight": np.array(wv),
                "blocks.0.attn.wo.weight": np.array(wo),
                "blocks.0.mlp_norm.weight": np.array(mlp_norm),
                "blocks.0.mlp.up.weight": np.array(w_up),
                "blocks.0.mlp.down.weight": np.array(w_down),
                "final_norm.weight": np.ones(2),
                "head.weight": np.zeros((4, 2)),
            }
        )
        tokens = [0, 1]

        def rms(vec, gain):
            scale = math.sqrt(sum(x * x for x in vec) / len(vec) + 1e-6)
            return [x / scale * g for x, g in zip(vec, gain)]

        def matvec(m, v):
            return [sum(row[j] * v[j] for j in range(len(v))) for row in m]

        def gelu(x):
            return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))

        # snap the f32 storage round trip the library applies on construction
        h = [[float(np.float32(v)) for v in embed[t]] for t in tokens]
        x = [rms(row, attn_norm) for row in h]
        q = [matvec(wq, row) for row in x]
        k = [matvec(wk, row) for row in x]
        v = [matvec(wv, row) for row in x]
        # position 0 attends to itself only
        attn = [list(v[0])]
        # position 1 attends to both, causal softmax
        s0 = sum(q[1][i] * k[0][i] for i in range(2)) / math.sqrt(2)
        s1 = sum(q[1][i] * k[1][i] for i in range(2)) / math.sqrt(2)
        peak = max(s0, s1)
        w0, w1 = math.exp(s0 - peak), math.exp(s1 - peak)
        z = w0 + w1
        attn.append([(w0 * v[0][i] + w1 * v[1][i]) / z for i in range(2)])
        h = [[h[t][i] + matvec(wo, attn[t])[i] for i in range(2)] for t in range(2)]
        x = [rms(row, mlp_norm) for row in h]
        up = [[gelu(u) for u in matvec(w_up, row)] for row in x]
        expected = [[h[t][i] + matvec(w_down, up[t])[i] for i in range(2)] for t in range(2)]

        got = forward_capture(ckpt, arch, tokens)[0]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_missing_tensor_named(self, small_arch):
        ckpt = zero_checkpoint(small_arch)
        tensors = {n: ckpt[n] for n in ckpt.names() if n != "blocks.1.attn.wq.weight"}
        broken = Checkpoint(tensors)
        with pytest.raises(ArchError, match="blocks.1.attn.wq.weight"):
            forward_capture(broken, small_arch, [1, 2])

    def test_checkpoint_check_stops_at_first_missing_block(self, small_arch):
        huge = ArchConfig(**{**vars(small_arch), "num_blocks": 10**12})
        with pytest.raises(ArchError, match=r"^m: missing tensor 'blocks\.2\.attn_norm\.weight', expected shape \[8\]$"):
            check_checkpoint(random_checkpoint(small_arch, seed=3), huge, "m")

    def test_capture_needs_no_output_layers(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=3)
        full = forward_capture(ckpt, small_arch, [1, 2])
        body = Checkpoint({n: ckpt[n] for n in ckpt.names() if n not in ("final_norm.weight", "head.weight")})
        for got, expected in zip(forward_capture(body, small_arch, [1, 2]), full, strict=True):
            np.testing.assert_array_equal(got, expected)

    def test_wrong_shape_rejected(self, small_arch):
        ckpt = zero_checkpoint(small_arch)
        tensors = {n: ckpt[n] for n in ckpt.names()}
        tensors["head.weight"] = np.zeros((2, 2))
        with pytest.raises(ArchError, match="head.weight"):
            forward_logits(Checkpoint(tensors), small_arch, [1, 2])

    def test_logits_check_weights_once_per_forward(self, monkeypatch, small_arch):
        checks = []
        check = runtime.check_checkpoint
        monkeypatch.setattr(runtime, "check_checkpoint", lambda *args, **kwargs: checks.append(check(*args, **kwargs)))
        eval_loss(random_checkpoint(small_arch, seed=3), small_arch, CalibrationSet([[1, 2], [3, 4, 5], [6, 7]]))
        assert len(checks) == 3

    def test_logits_name_weights_before_tokens(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=3)
        no_head = Checkpoint({n: ckpt[n] for n in ckpt.names() if n != "head.weight"})
        with pytest.raises(ArchError, match=r"^checkpoint: missing tensor 'head\.weight', expected shape \[256, 8\]$"):
            forward_logits(no_head, small_arch, [])

    def test_sequence_too_long(self, small_arch):
        ckpt = zero_checkpoint(small_arch)
        with pytest.raises(ArchError, match="max_seq_len"):
            forward_capture(ckpt, small_arch, list(range(small_arch.max_seq_len + 1)))

    def test_token_out_of_range(self, small_arch):
        ckpt = zero_checkpoint(small_arch)
        with pytest.raises(ArchError):
            forward_capture(ckpt, small_arch, [0, 999])

    @pytest.mark.parametrize("tokens", [5, np.array(5)], ids=["int", "0-d-array"])
    def test_non_sequence_is_arch_error(self, small_arch, tokens):
        with pytest.raises(ArchError, match=r"^token sequence must be a list of token ids, got (int|ndarray)$"):
            forward_capture(zero_checkpoint(small_arch), small_arch, tokens)

    @pytest.mark.parametrize("tokens", [[1.5, 2], [True, 2], ["1", 2], [np.float64(1.0), 2], [np.float32(1.0), 2]],
                             ids=["float", "bool", "str", "numpy-float", "numpy-float32"])
    def test_non_integer_id_is_arch_error(self, small_arch, tokens):
        with pytest.raises(ArchError, match=r"^token sequence: token ids must lie in \[0, 256\)$"):
            forward_capture(zero_checkpoint(small_arch), small_arch, tokens)


# The runtime's earlier elementwise formulas, kept as oracles: each returns a new array.

def _rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)
    return x / scale * gain


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _masked_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax of each (T, T) slice's rows with the upper triangle set to -inf first."""
    T = scores.shape[-1]
    causal = np.tril(np.ones((T, T), dtype=bool))
    return _softmax(np.where(causal[None, :, :], scores, -np.inf))


def reference_block(ckpt: Checkpoint, arch: ArchConfig, i: int, h: np.ndarray) -> np.ndarray:
    """Block `i`'s output on input `h` from the earlier batched-matmul body, which computed out of place."""
    d = arch.hidden_dim
    dh = d // arch.num_heads
    T = h.shape[0]
    w = {name: ckpt[f"blocks.{i}.{name}.weight"] for name in
         ("attn_norm", "attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp_norm", "mlp.up", "mlp.down")}
    x = _rms_norm(h, w["attn_norm"])
    q = (x @ w["attn.wq"].T).reshape(T, arch.num_heads, dh).transpose(1, 0, 2)
    k = (x @ w["attn.wk"].T).reshape(T, arch.num_heads, dh).transpose(1, 2, 0)
    v = (x @ w["attn.wv"].T).reshape(T, arch.num_heads, dh).transpose(1, 0, 2)
    scores = (q @ k) / np.sqrt(dh)
    attn = (_masked_softmax(scores) @ v).transpose(1, 0, 2).reshape(T, d)
    h = h + attn @ w["attn.wo"].T
    x = _rms_norm(h, w["mlp_norm"])
    return h + _gelu(x @ w["mlp.up"].T) @ w["mlp.down"].T


def einsum_block_oracle(ckpt: Checkpoint, arch: ArchConfig, i: int, h: np.ndarray) -> np.ndarray:
    """Block `i`'s output on input `h` from the earlier decoder body, whose attention ran as two einsums."""
    d = arch.hidden_dim
    dh = d // arch.num_heads
    T = h.shape[0]
    w = {name: ckpt[f"blocks.{i}.{name}.weight"] for name in
         ("attn_norm", "attn.wq", "attn.wk", "attn.wv", "attn.wo", "mlp_norm", "mlp.up", "mlp.down")}
    x = _rms_norm(h, w["attn_norm"])
    q = (x @ w["attn.wq"].T).reshape(T, arch.num_heads, dh)
    k = (x @ w["attn.wk"].T).reshape(T, arch.num_heads, dh)
    v = (x @ w["attn.wv"].T).reshape(T, arch.num_heads, dh)
    scores = np.einsum("thd,shd->hts", q, k) / np.sqrt(dh)
    causal = np.tril(np.ones((T, T), dtype=bool))
    scores = np.where(causal[None, :, :], scores, -np.inf)
    attn = np.einsum("hts,shd->thd", _softmax(scores), v).reshape(T, d)
    h = h + attn @ w["attn.wo"].T
    x = _rms_norm(h, w["mlp_norm"])
    return h + _gelu(x @ w["mlp.up"].T) @ w["mlp.down"].T


def assert_close_to(got: np.ndarray, expected: np.ndarray) -> None:
    """Elementwise within rtol=1e-12 plus atol=1e-12 times the largest |expected|."""
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))


@st.composite
def _decoder_runs(draw):
    """A random small decoder, its weights at a drawn scale, and one token sequence."""
    heads = draw(st.sampled_from([1, 2, 4, 8]))
    arch = ArchConfig(
        vocab_size=draw(st.integers(2, 64)),
        hidden_dim=heads * draw(st.integers(1, 16)),
        num_blocks=draw(st.integers(1, 3)),
        num_heads=heads,
        mlp_dim=draw(st.integers(1, 48)),
        max_seq_len=128,
    )
    ckpt = random_checkpoint(
        arch, seed=draw(st.integers(0, 2**32 - 1)), scale=draw(st.floats(0.01, 1.0))
    )
    length = draw(st.integers(1, arch.max_seq_len))
    tokens = draw(st.lists(st.integers(0, arch.vocab_size - 1), min_size=length, max_size=length))
    return arch, ckpt, tokens


def _deep_run():
    """Three blocks at weight scale ~1, where rounding grows ~15x per block.

    Run end to end, the two forms' block-2 outputs differ by 1.16e-9, about
    twice the tolerance; each block on the same input stays well inside it.
    """
    arch = ArchConfig(vocab_size=16, hidden_dim=64, num_blocks=3, num_heads=8, mlp_dim=7, max_seq_len=128)
    ckpt = random_checkpoint(arch, seed=1489, scale=0.9917537167107989)
    return arch, ckpt, [7, 9, 1, 1, 2, 13, 0, 14, 0, 0, 4, 6, 8, 9, 12, 13, 1]


@settings(max_examples=100, deadline=None)
@given(run=_decoder_runs())
@example(run=_deep_run())
def test_forward_capture_matches_einsum_oracle(run):
    """Each block matches the einsum form on the same input within rtol=1e-12, atol=1e-12 * max|oracle|.

    The two forms add the same products in a different order, so results may
    differ in the last bits; this test bounds how far, per block. Block `i`'s
    oracle input is the runtime's own output of block `i - 1` (the embedding
    for block 0): run end to end, each block amplifies the rounding gap it is
    handed, so the gap after several blocks grows with depth and weight scale
    and is no measure of one block's error.
    """
    arch, ckpt, tokens = run
    got = forward_capture(ckpt, arch, tokens)
    assert len(got) == arch.num_blocks
    inputs = [ckpt["embed.weight"][np.asarray(tokens)], *got[:-1]]
    for i, (g, h) in enumerate(zip(got, inputs)):
        assert_close_to(g, einsum_block_oracle(ckpt, arch, i, h))


@settings(max_examples=100, deadline=None)
@given(run=_decoder_runs(), data=st.data())
def test_block_outputs_ignore_later_tokens(run, data):
    """Changing the tokens after position t leaves every block's rows 0..t unchanged.

    Rows are compared within the oracle test's tolerance: rtol=1e-12,
    atol=1e-12 * max|rows of the original run|.
    """
    arch, ckpt, tokens = run
    t = data.draw(st.integers(0, len(tokens) - 1), label="t")
    tail = data.draw(
        st.lists(st.integers(0, arch.vocab_size - 1), min_size=len(tokens) - t - 1,
                 max_size=len(tokens) - t - 1),
        label="tail",
    )
    changed = tokens[: t + 1] + tail
    for a, b in zip(forward_capture(ckpt, arch, tokens), forward_capture(ckpt, arch, changed)):
        assert_close_to(b[: t + 1], a[: t + 1])


@settings(max_examples=100, deadline=None)
@given(run=_decoder_runs())
@example(run=_deep_run())
def test_forward_bytes_equal_reference_block(run):
    """Every capture and the logits have the same bytes as the earlier out-of-place block body."""
    arch, ckpt, tokens = run
    h = ckpt["embed.weight"][np.asarray(tokens)]
    expected = []
    for i in range(arch.num_blocks):
        h = reference_block(ckpt, arch, i, h)
        expected.append(h)
    got = forward_capture(ckpt, arch, tokens)
    assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
    logits = _rms_norm(h, ckpt["final_norm.weight"]) @ ckpt["head.weight"].T
    assert forward_logits(ckpt, arch, tokens).tobytes() == logits.tobytes()


@st.composite
def _score_stacks(draw):
    """(heads, T, T) scores: T from 1, draws that tie, signed zeros and gaps past ~745, where exp underflows to 0."""
    heads, T = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    elements = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e3, -1e3]))
    return draw(arrays(np.float64, (heads, T, T), elements=elements))


@settings(max_examples=300, deadline=None)
@given(scores=_score_stacks())
@example(scores=np.array([[[-0.0]]]))
@example(scores=np.array([[[1e3, -1e3], [-1e3, 1e3]], [[-0.0, 0.0], [0.0, -0.0]]]))
def test_causal_softmax_bytes_equal_masked_softmax(scores):
    """The triangle-only softmax equals softmax(where(causal, s, -inf)) bytewise and leaves `s` unchanged.

    Row 0 of every (T, T) slice has a single unmasked entry.
    """
    before = scores.tobytes()
    got = _causal_softmax(scores, np.tri(scores.shape[-1], dtype=bool))
    assert got.tobytes() == _masked_softmax(scores).tobytes()
    assert scores.tobytes() == before


@settings(max_examples=30, deadline=None)
@given(run=_decoder_runs())
def test_forward_writes_no_weight_and_shares_no_memory(run):
    """The blocks' in-place arithmetic touches only arrays they made.

    After forward_capture and forward_logits every tensor, the embedding
    included, keeps its bytes; no capture shares memory with another
    capture or with a tensor.
    """
    arch, ckpt, tokens = run
    before = {name: ckpt[name].tobytes() for name in ckpt.names()}
    captures = forward_capture(ckpt, arch, tokens)
    forward_logits(ckpt, arch, tokens)
    assert {name: ckpt[name].tobytes() for name in ckpt.names()} == before
    for j, capture in enumerate(captures):
        assert not any(np.shares_memory(capture, other) for other in captures[j + 1:])
        assert not any(np.shares_memory(capture, ckpt[name]) for name in ckpt.names())


_RULE_ARCH = ArchConfig(vocab_size=256, hidden_dim=8, num_blocks=2, num_heads=2, mlp_dim=16, max_seq_len=32)
_RULE_CKPT = random_checkpoint(_RULE_ARCH, seed=5)


@st.composite
def _token_lists(draw):
    """Lengths 0..max_seq_len + 1, mostly valid ids; at times one id out of range or not an int."""
    tokens = draw(st.lists(st.integers(0, 255), max_size=_RULE_ARCH.max_seq_len + 1))
    if tokens and draw(st.booleans()):
        odd = st.one_of(
            st.integers(max_value=-1), st.integers(min_value=256), st.booleans(), st.floats(),
            st.text(max_size=2), st.builds(np.float64, st.integers(0, 255)),
            st.builds(np.int64, st.integers(0, 255)),  # a numpy int in range is a valid id
        )
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(odd)
    return tokens


def _error(run, error: type[Exception]) -> str | None:
    try:
        run()
    except error as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(tokens=_token_lists())
def test_forward_and_calibration_share_one_token_rule(tokens):
    """forward_capture rejects a token list exactly when a one-sample profile does, with the same message tail."""
    forward = _error(lambda: forward_capture(_RULE_CKPT, _RULE_ARCH, tokens), ArchError)
    calib = _error(
        lambda: profile_model(_RULE_CKPT, _RULE_ARCH, CalibrationSet([tokens], source="s")), CalibrationError
    )
    assert (forward is None) == (calib is None)
    if forward is not None:
        assert forward.removeprefix("token sequence") == calib.removeprefix("s: sample 1")


class TestActivationNorm:
    def test_all_ones_hidden_four(self):
        # unit vector of dimension 4 has Euclidean norm 2
        assert activation_norm(np.ones((3, 4))) == pytest.approx(2.0)
        assert activation_norm(np.ones((17, 4))) == pytest.approx(2.0)

    def test_frobenius(self):
        block = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert activation_norm(block, "frobenius") == pytest.approx(5.0)

    def test_unknown_convention(self):
        with pytest.raises(ProfileMismatchError, match=r"^unknown norm_convention 'nuclear'; known: \["):
            activation_norm(np.ones((2, 2)), "nuclear")


class TestProfileModel:
    def test_zero_model_zero_norms(self, small_arch):
        calib = CalibrationSet(samples=[[1, 2, 3]])
        profile = profile_model(zero_checkpoint(small_arch), small_arch, calib)
        assert all(v == 0.0 for v in profile.layer_norms.values())

    def test_single_sample(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=62)
        calib = CalibrationSet(samples=[[10, 20, 30]])
        profile = profile_model(ckpt, small_arch, calib)
        captures = forward_capture(ckpt, small_arch, [10, 20, 30])
        for layer, block_output in enumerate(captures):
            assert profile.layer_norms[layer] == pytest.approx(activation_norm(block_output))

    def test_mean_of_single_sample_profiles(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=63)
        samples = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
        combined = profile_model(ckpt, small_arch, CalibrationSet(samples=samples))
        singles = [
            profile_model(ckpt, small_arch, CalibrationSet(samples=[s])) for s in samples
        ]
        for layer in combined.layer_norms:
            mean = np.mean([p.layer_norms[layer] for p in singles])
            assert combined.layer_norms[layer] == pytest.approx(mean, abs=1e-6)

    def test_sample_order_irrelevant(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=64)
        samples = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
        a = profile_model(ckpt, small_arch, CalibrationSet(samples=samples))
        b = profile_model(ckpt, small_arch, CalibrationSet(samples=samples[::-1]))
        for layer in a.layer_norms:
            assert a.layer_norms[layer] == pytest.approx(b.layer_norms[layer], abs=1e-9)

    def test_bad_convention_named_before_any_forward(self, monkeypatch, small_arch):
        forwards = []
        monkeypatch.setattr(runtime, "forward_capture", lambda *args: forwards.append(args))
        with pytest.raises(ProfileMismatchError, match=r"^unknown norm_convention 'l1'; known: \["):
            profile_model(zero_checkpoint(small_arch), small_arch, CalibrationSet([[1, 2]]), convention="l1")
        assert forwards == []

    def test_convention_recorded(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=65)
        calib = CalibrationSet(samples=[[1, 2]])
        profile = profile_model(ckpt, small_arch, calib, convention="frobenius")
        assert profile.norm_convention == "frobenius"
        assert profile.num_samples == 1

    def test_norms_finite_nonnegative(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=66)
        calib = CalibrationSet(samples=[[1, 2, 3, 4, 5]])
        profile = profile_model(ckpt, small_arch, calib)
        for value in profile.layer_norms.values():
            assert math.isfinite(value) and value > 0


class TestEvalLoss:
    def test_uniform_logits_log_vocab(self, small_arch):
        calib = CalibrationSet(samples=[[1, 2, 3, 4], [7, 7]])
        loss = eval_loss(zero_checkpoint(small_arch), small_arch, calib)
        assert loss == pytest.approx(math.log(256), abs=1e-3)

    def test_loss_nonnegative(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=67)
        calib = CalibrationSet(samples=[[1, 2, 3], [200, 100, 50]])
        assert eval_loss(ckpt, small_arch, calib) >= 0.0

    def test_short_sequence_rejected(self, small_arch):
        calib = CalibrationSet(samples=[[1]])
        with pytest.raises(ValueError, match=">= 2"):
            eval_loss(zero_checkpoint(small_arch), small_arch, calib)

    def test_short_sequence_names_source_and_sample(self, small_arch):
        calib = CalibrationSet(samples=[[1, 2], [3]], source="calib.jsonl")
        with pytest.raises(CalibrationError, match=r"^calib\.jsonl: sample 2 has 1 tokens, need >= 2$"):
            eval_loss(zero_checkpoint(small_arch), small_arch, calib)

    def test_overfit_model_beats_random(self):
        """A hand-built per-token lookup model wins on its own sequence."""
        arch = ArchConfig(
            vocab_size=256, hidden_dim=32, num_blocks=2, num_heads=2, mlp_dim=32, max_seq_len=32
        )
        rng = np.random.default_rng(68)
        sequence = [int(t) for t in rng.permutation(256)[:20]]  # distinct bytes

        directions = rng.standard_normal((arch.vocab_size, arch.hidden_dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        head = np.zeros((arch.vocab_size, arch.hidden_dim))
        for current, nxt in zip(sequence, sequence[1:]):
            head[nxt] += 8.0 * directions[current]
        tensors = {name: np.zeros(shape) for name, shape in tensor_shapes(arch).items()}
        tensors["embed.weight"] = directions
        tensors["final_norm.weight"] = np.ones(arch.hidden_dim)
        tensors["head.weight"] = head
        overfit = Checkpoint(tensors)

        calib = CalibrationSet(samples=[sequence])
        overfit_loss = eval_loss(overfit, arch, calib)
        random_loss = eval_loss(random_checkpoint(arch, seed=69), arch, calib)
        assert overfit_loss < random_loss
        assert overfit_loss < 1.0



def serial_profile(ckpt: Checkpoint, arch: ArchConfig, samples: list[list[int]]) -> dict[int, float]:
    """One sample after another, block norms summed in sample order."""
    totals = 0.0
    for sample in samples:
        totals = totals + np.array([activation_norm(h) for h in forward_capture(ckpt, arch, sample)])
    return {layer: float(norm) for layer, norm in enumerate(totals / len(samples))}


def serial_loss(ckpt: Checkpoint, arch: ArchConfig, samples: list[list[int]]) -> float:
    """One sample after another, summed cross-entropy added in sample order."""
    total, count = 0.0, 0
    for sample in samples:
        logits = forward_logits(ckpt, arch, sample)[:-1]
        targets = np.asarray(sample[1:])
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1))
        total += float((log_z - shifted[np.arange(targets.size), targets]).sum())
        count += targets.size
    return total / count


class TestWorkerThreads:
    @pytest.mark.parametrize(
        "blas, expected",
        [
            ({}, 1),
            ({"OMP_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
            ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "two"}, 4),
            ({"OMP_NUM_THREADS": "two"}, 1),
            ({"OMP_NUM_THREADS": "0"}, 1),
            ({"OMP_NUM_THREADS": "-1"}, 1),
            ({"OMP_NUM_THREADS": "8"}, 1),
        ],
        ids=["unset", "omp-1", "openblas-2", "largest-wins", "malformed-ignored",
             "only-malformed", "zero", "negative", "more-than-cores"],
    )
    def test_worker_count_rule(self, monkeypatch, blas, expected):
        pin_machine(monkeypatch, cores=4, **blas)
        assert _forward_workers(100) == expected

    def test_worker_count_capped_by_samples(self, monkeypatch):
        pin_machine(monkeypatch, cores=4, OMP_NUM_THREADS="1")
        assert [_forward_workers(n) for n in (1, 3, 4, 11)] == [1, 3, 4, 4]

    @pytest.mark.parametrize("num_samples", [1, 3, 11], ids=["one", "fewer-than-workers", "more-than-workers"])
    def test_results_equal_serial_loop(self, monkeypatch, small_arch, num_samples):
        pin_machine(monkeypatch, cores=4, OMP_NUM_THREADS="1")
        ckpt = random_checkpoint(small_arch, seed=71, scale=0.5)
        rng = np.random.default_rng(num_samples)
        samples = [[int(t) for t in rng.integers(0, 256, size=int(rng.integers(2, 33)))] for _ in range(num_samples)]
        calib = CalibrationSet(samples=samples)
        assert profile_model(ckpt, small_arch, calib).layer_norms == serial_profile(ckpt, small_arch, samples)
        assert eval_loss(ckpt, small_arch, calib) == serial_loss(ckpt, small_arch, samples)

    @pytest.mark.parametrize("passes", ["profile", "eval"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ([], " is empty"),
            ([1] * 33, " has 33 tokens, exceeds max_seq_len 32"),
            ([1, 256], r": token ids must lie in \[0, 256\)"),
            ([-1, 1], r": token ids must lie in \[0, 256\)"),
            ([1.5, 2], r": token ids must lie in \[0, 256\)"),
            ([True, 2], r": token ids must lie in \[0, 256\)"),
            (["1", 2], r": token ids must lie in \[0, 256\)"),
        ],
        ids=["empty", "too-long", "id-too-large", "id-negative", "id-float", "id-bool", "id-str"],
    )
    def test_first_bad_sample_named_before_any_forward(self, monkeypatch, small_arch, passes, bad, message):
        pin_machine(monkeypatch, cores=4, OMP_NUM_THREADS="1")
        forwards = []
        monkeypatch.setattr(runtime, "forward_capture", lambda *args: forwards.append(args))
        calib = CalibrationSet(samples=[[1, 2], [3, 4], [5] * 40], source="set.jsonl")
        calib.samples[1] = bad  # samples 2 and 3 are both bad
        run = profile_model if passes == "profile" else eval_loss
        with pytest.raises(CalibrationError, match=f"^set\\.jsonl: sample 2{message}$"):
            run(random_checkpoint(small_arch, seed=72), small_arch, calib)
        assert forwards == []

    def test_failed_forward_cancels_samples_not_started(self, monkeypatch, small_arch):
        pin_machine(monkeypatch, cores=2, OMP_NUM_THREADS="1")
        started = []
        second_running = threading.Event()

        def forward(ckpt, arch, tokens):
            started.append(tokens[0])
            if tokens[0] == 0:
                second_running.wait(timeout=10)
                raise RuntimeError("forward failed")
            second_running.set()
            time.sleep(0.01)
            return [np.ones((len(tokens), arch.hidden_dim))]

        monkeypatch.setattr(runtime, "forward_capture", forward)
        calib = CalibrationSet(samples=[[i] for i in range(64)])
        with pytest.raises(RuntimeError, match="forward failed"):
            profile_model(zero_checkpoint(small_arch), small_arch, calib)
        assert second_running.is_set()
        # The other worker runs a sample every 10 ms; without cancellation it would reach all 64.
        assert 0 in started and len(started) < 64


class TestCalibrationFiles:
    def test_text_and_token_records(self, tmp_path):
        path = tmp_path / "calib.jsonl"
        path.write_text('{"text": "Hi"}\n{"tokens": [1, 2, 3]}\n\n')
        calib = CalibrationSet.from_file(path)
        assert calib.samples == [[72, 105], [1, 2, 3]]

    def test_truncation_on_load(self, tmp_path):
        path = tmp_path / "calib.jsonl"
        path.write_text('{"tokens": [1, 2, 3, 4, 5]}\n')
        calib = CalibrationSet.from_file(path, max_seq_len=2)
        assert calib.samples == [[1, 2]]

    @pytest.mark.parametrize("record", [{"tokens": [1, 2, 3]}, {"text": "abc"}], ids=["tokens", "text"])
    @pytest.mark.parametrize("max_seq_len", [0, -1], ids=["zero", "negative"])
    def test_max_seq_len_must_be_a_positive_int(self, tmp_path, record, max_seq_len):
        path = tmp_path / "calib.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CalibrationError, match=f"^max_seq_len must be an int >= 1 or None, got {max_seq_len}$"):
            CalibrationSet.from_file(path, max_seq_len=max_seq_len)

    @pytest.mark.parametrize("record", [{"text": "ok~"}, {"tokens": [5, 126]}, {"tokens": [-1]}])
    def test_token_outside_vocab_names_line(self, tmp_path, record):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"text": "ok"}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CalibrationError) as info:
            CalibrationSet.from_file(path, vocab_size=120)
        assert str(info.value) == f"{path}: line 2: token ids must lie in [0, 120)"

    def test_key_given_twice_names_line_and_key(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "ok"}\n{"text": "a", "text": "b"}\n')
        with pytest.raises(CalibrationError) as info:
            CalibrationSet.from_file(path)
        assert str(info.value) == f"{path}: line 2: not valid JSON: key 'text' appears twice in one object"

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
    def test_raw_unicode_line_break_in_text_is_text(self, tmp_path, char):
        """str.splitlines() used to split this record inside its string: `Unterminated string`."""
        path = tmp_path / "c.jsonl"
        path.write_bytes(json.dumps({"text": f"a{char}b"}, ensure_ascii=False).encode() + b"\n")
        assert CalibrationSet.from_file(path).samples == [tokenize(f"a{char}b")]

    def test_record_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"text": "ok"}\n{"text": "\xff\xfe"}\n')
        with pytest.raises(CalibrationError, match=f"^{re.escape(str(path))}: line 2: not valid JSON: 'utf-8' codec"):
            CalibrationSet.from_file(path)

    def test_save_round_trip(self, tmp_path):
        calib = CalibrationSet(samples=[[1, 2], [3]], source="unit")
        calib.save(tmp_path / "c.jsonl")
        loaded = CalibrationSet.from_file(tmp_path / "c.jsonl")
        assert loaded.samples == calib.samples

    def test_numpy_ints_are_ints(self, tmp_path):
        """A numpy int bound truncates, and numpy int ids save as the plain ints from_file reads."""
        assert tokenize("abcdef", max_seq_len=np.int64(3)) == [97, 98, 99]
        CalibrationSet(samples=[[np.int64(3), 4], [np.uint8(5)]]).save(tmp_path / "c.jsonl")
        assert (tmp_path / "c.jsonl").read_text() == '{"tokens": [3, 4]}\n{"tokens": [5]}\n'
        assert CalibrationSet.from_file(tmp_path / "c.jsonl", max_seq_len=np.int64(1)).samples == [[3], [5]]

    @pytest.mark.parametrize("bad", [1.5, True, "1", np.float32(1.0)], ids=["float", "bool", "str", "numpy-float32"])
    def test_save_refuses_an_id_from_file_would_refuse(self, tmp_path, bad):
        """Ids are checked against a vocab only when one is known, but save writes only ints."""
        calib = CalibrationSet(samples=[[1, 2], [bad, 2]], source="unit")
        message = f"^unit: sample 2: token ids must be ints, got {re.escape(repr(bad))}$"
        with pytest.raises(CalibrationError, match=message):
            calib.save(tmp_path / "c.jsonl")
        assert not (tmp_path / "c.jsonl").exists()

    def test_bad_record(self, tmp_path):
        path = tmp_path / "calib.jsonl"
        path.write_text('{"prompt": "nope"}\n')
        with pytest.raises(ValueError):
            CalibrationSet.from_file(path)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            CalibrationSet(samples=[])

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([], "unit: no samples"),
            ([[1], []], "unit: sample 2 is empty"),
            ([5], "unit: sample 1 must be a list of token ids, got int"),
            ([[1, 2], None], "unit: sample 2 must be a list of token ids, got NoneType"),
            (5, "unit: samples must be a list, got int"),
            (None, "unit: samples must be a list, got NoneType"),
            ("ab", "unit: samples must be a list, got str"),
        ],
        ids=["no-samples", "empty-sample", "int-sample", "none-sample", "int-set", "none-set", "str-set"],
    )
    def test_empty_set_or_sample_is_calibration_error(self, samples, message):
        with pytest.raises(CalibrationError, match=f"^{message}$"):
            CalibrationSet(samples=samples, source="unit")


# Characters that str.splitlines() breaks on; JSON escapes those below U+0020, not the rest.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.text(st.sampled_from(LINE_BREAKS) | st.characters(exclude_categories=("Cs",)), min_size=1),
                   min_size=1, max_size=5),
    ending=st.sampled_from(["\n", "\r\n"]),
    last_ending=st.booleans(),
)
def test_text_records_load_back_whatever_they_hold(tmp_path_factory, texts, ending, last_ending):
    """Records are split on \\n alone (a trailing \\r dropped), as JSONL says, so a raw U+2028, U+2029 or U+0085
    inside a string, which json.dumps(ensure_ascii=False) writes as it is, stays text."""
    path = tmp_path_factory.mktemp("calib") / "c.jsonl"
    lines = [json.dumps({"text": text}, ensure_ascii=False) for text in texts]
    path.write_bytes((ending.join(lines) + (ending if last_ending else "")).encode())
    assert CalibrationSet.from_file(path).samples == [tokenize(text) for text in texts]


class TestArchConfig:
    def test_validation(self):
        with pytest.raises(ArchError):
            ArchConfig(hidden_dim=10, num_heads=3)
        with pytest.raises(ArchError):
            ArchConfig(num_blocks=0)

    def test_numpy_int_sizes_are_kept_as_ints(self, tmp_path):
        arch = ArchConfig(hidden_dim=np.int64(32), num_heads=np.uint8(4))
        assert arch == ArchConfig(hidden_dim=32, num_heads=4)
        assert type(arch.hidden_dim) is int and type(arch.num_heads) is int
        arch.save(tmp_path / "arch.json")
        assert ArchConfig.load(tmp_path / "arch.json") == arch

    @pytest.mark.parametrize("size", [32.0, np.float32(32), True], ids=["float", "numpy-float", "bool"])
    def test_size_must_be_an_int(self, size):
        with pytest.raises(ArchError, match=f"^hidden_dim must be an int, got {re.escape(repr(size))}$"):
            ArchConfig(hidden_dim=size)

    def test_file_round_trip(self, tmp_path):
        arch = ArchConfig(hidden_dim=16, num_heads=4, num_blocks=3)
        arch.save(tmp_path / "arch.json")
        assert ArchConfig.load(tmp_path / "arch.json") == arch

    def test_naming_scheme_is_read_but_not_saved(self, tmp_path):
        ArchConfig(hidden_dim=16, num_heads=4).save(tmp_path / "new.json")
        doc = json.loads((tmp_path / "new.json").read_text())
        assert "naming_scheme" not in doc
        (tmp_path / "old.json").write_text(json.dumps({**doc, "naming_scheme": "toy"}))
        assert ArchConfig.load(tmp_path / "old.json") == ArchConfig.load(tmp_path / "new.json")
        assert ArchConfig.naming_scheme == "toy" and ArchConfig().naming_scheme == "toy"

    def test_checkpoint_matches_shapes(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=70)
        assert ckpt.shapes() == {
            name: shape for name, shape in sorted(tensor_shapes(small_arch).items())
        }
