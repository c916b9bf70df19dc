"""Toy decoder runtime: tokenization, forward pass, profiles, loss."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from lewis.errors import ArchError, CalibrationError
from lewis.runtime import _gelu, _rms_norm, _softmax, detokenize, tensor_shapes


class TestTokenize:
    def test_byte_values(self):
        assert tokenize("Hi") == [72, 105]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tokenize("")

    def test_round_trip(self):
        text = "any text survives the round trip"
        assert detokenize(tokenize(text)) == text.encode()

    def test_truncation(self):
        assert tokenize("abcdef", max_seq_len=3) == [97, 98, 99]

    def test_bytes_input(self):
        assert tokenize(b"\x00\xff") == [0, 255]


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

    def test_sequence_too_long(self, small_arch):
        ckpt = zero_checkpoint(small_arch)
        with pytest.raises(ArchError, match="max_seq_len"):
            forward_capture(ckpt, small_arch, list(range(small_arch.max_seq_len + 1)))

    def test_token_out_of_range(self, small_arch):
        ckpt = zero_checkpoint(small_arch)
        with pytest.raises(ArchError):
            forward_capture(ckpt, small_arch, [0, 999])


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


class TestActivationNorm:
    def test_all_ones_hidden_four(self):
        # unit vector of dimension 4 has Euclidean norm 2
        assert activation_norm(np.ones((3, 4))) == pytest.approx(2.0)
        assert activation_norm(np.ones((17, 4))) == pytest.approx(2.0)

    def test_frobenius(self):
        block = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert activation_norm(block, "frobenius") == pytest.approx(5.0)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize("record", [{"text": "ok~"}, {"tokens": [5, 126]}, {"tokens": [-1]}])
    def test_token_outside_vocab_names_line(self, tmp_path, record):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"text": "ok"}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CalibrationError) as info:
            CalibrationSet.from_file(path, vocab_size=120)
        assert str(info.value) == f"{path}: line 2: token ids must lie in [0, 120)"

    def test_save_round_trip(self, tmp_path):
        calib = CalibrationSet(samples=[[1, 2], [3]], source="unit")
        calib.save(tmp_path / "c.jsonl")
        loaded = CalibrationSet.from_file(tmp_path / "c.jsonl")
        assert loaded.samples == calib.samples

    def test_bad_record(self, tmp_path):
        path = tmp_path / "calib.jsonl"
        path.write_text('{"prompt": "nope"}\n')
        with pytest.raises(ValueError):
            CalibrationSet.from_file(path)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            CalibrationSet(samples=[])


class TestArchConfig:
    def test_validation(self):
        with pytest.raises(ArchError):
            ArchConfig(hidden_dim=10, num_heads=3)
        with pytest.raises(ArchError):
            ArchConfig(num_blocks=0)

    def test_file_round_trip(self, tmp_path):
        arch = ArchConfig(hidden_dim=16, num_heads=4, num_blocks=3)
        arch.save(tmp_path / "arch.json")
        assert ArchConfig.load(tmp_path / "arch.json") == arch

    def test_checkpoint_matches_shapes(self, small_arch):
        ckpt = random_checkpoint(small_arch, seed=70)
        assert ckpt.shapes() == {
            name: shape for name, shape in sorted(tensor_shapes(small_arch).items())
        }
