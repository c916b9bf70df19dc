"""Container IO: round trips, canonical bytes, format errors, role classes."""

import io
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lewis import (
    Checkpoint,
    detect_naming_scheme,
    read_checkpoint,
    role_classifier,
    write_checkpoint,
)
from lewis.errors import (
    CheckpointError,
    DataOffsetError,
    HeaderLengthError,
    HeaderParseError,
    InvalidTensorError,
    UnknownDtypeError,
)
import lewis.checkpoint
from conftest import random_fixture_checkpoint, reverse_data_region


class TestRoundTrip:
    def test_single_tensor(self, tmp_path):
        ckpt = Checkpoint({"w": np.array([1.0, 2.0])})
        path = tmp_path / "one.safetensors"
        write_checkpoint(ckpt, path)
        loaded = read_checkpoint(path)
        assert loaded.names() == ["w"]
        np.testing.assert_array_equal(loaded["w"], [1.0, 2.0])
        assert loaded == ckpt

    def test_empty_tensor_table(self, tmp_path):
        path = tmp_path / "empty.safetensors"
        path.write_bytes(struct.pack("<Q", 2) + b"{}")
        loaded = read_checkpoint(path)
        assert len(loaded) == 0

    def test_three_tensor_write_then_read(self, tmp_path):
        rng = np.random.default_rng(0)
        ckpt = Checkpoint(
            {
                "embed.weight": rng.standard_normal((4, 3)),
                "blocks.0.mlp.up.weight": rng.standard_normal((6, 3)),
                "head.weight": rng.standard_normal((4, 3)),
            }
        )
        path = tmp_path / "toy.safetensors"
        write_checkpoint(ckpt, path)
        assert read_checkpoint(path) == ckpt

    def test_random_five_tensor(self, tmp_path):
        rng = np.random.default_rng(5)
        ckpt = random_fixture_checkpoint(rng, max_tensors=5)
        path = tmp_path / "r.safetensors"
        write_checkpoint(ckpt, path)
        assert read_checkpoint(path) == ckpt

    def test_mixed_dtypes_many(self, tmp_path):
        rng = np.random.default_rng(42)
        for i in range(20):
            ckpt = random_fixture_checkpoint(rng)
            path = tmp_path / f"m{i}.safetensors"
            write_checkpoint(ckpt, path)
            loaded = read_checkpoint(path)
            assert loaded == ckpt
            assert loaded.dtypes == ckpt.dtypes

    def test_metadata_preserved(self, tmp_path):
        ckpt = Checkpoint({"w": np.ones(3)}, metadata={"origin": "test", "z": "9"})
        path = tmp_path / "meta.safetensors"
        write_checkpoint(ckpt, path)
        assert read_checkpoint(path).metadata == {"origin": "test", "z": "9"}

    def test_data_region_in_reverse_order(self, tmp_path):
        ckpt = random_fixture_checkpoint(np.random.default_rng(8), max_tensors=5)
        ckpt.metadata = {"origin": "test"}
        canonical, reversed_ = tmp_path / "c.safetensors", tmp_path / "r.safetensors"
        write_checkpoint(ckpt, canonical)
        reverse_data_region(canonical, reversed_)
        assert reversed_.read_bytes() != canonical.read_bytes()
        assert read_checkpoint(reversed_) == read_checkpoint(canonical) == ckpt


class TestCanonicalWriter:
    def test_header_length_prefix(self, tmp_path):
        path = tmp_path / "w.safetensors"
        write_checkpoint(Checkpoint({"w": np.array([1.0])}), path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[:8])
        assert 8 + header_len <= len(raw)
        json.loads(raw[8 : 8 + header_len])

    def test_header_padded_to_eight(self, tmp_path):
        path = tmp_path / "w.safetensors"
        write_checkpoint(Checkpoint({"w": np.array([1.0])}), path)
        (header_len,) = struct.unpack("<Q", path.read_bytes()[:8])
        assert header_len % 8 == 0

    def test_two_writes_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        ckpt = random_fixture_checkpoint(rng)
        p1, p2 = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
        write_checkpoint(ckpt, p1)
        write_checkpoint(ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_insertion_order_irrelevant(self, tmp_path):
        a = np.array([1.0, 2.0])
        b = np.array([[3.0]])
        c1 = Checkpoint({"x": a, "y": b})
        c2 = Checkpoint({"y": b, "x": a})
        p1, p2 = tmp_path / "1.safetensors", tmp_path / "2.safetensors"
        write_checkpoint(c1, p1)
        write_checkpoint(c2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
    def test_memory_layout_irrelevant(self, tmp_path, dtype):
        wide = np.random.default_rng(4).standard_normal((3, 10))
        layouts = {"c": wide[:, ::2].copy(), "f": np.asfortranarray(wide[:, ::2]), "s": wide[:, ::2]}
        for tag, arr in layouts.items():
            write_checkpoint(Checkpoint({"w": arr}, dtype), tmp_path / f"{tag}.safetensors")
        files = {(tmp_path / f"{tag}.safetensors").read_bytes() for tag in layouts}
        assert len(files) == 1

    def test_offsets_contiguous_and_sorted(self, tmp_path):
        rng = np.random.default_rng(3)
        ckpt = Checkpoint({f"n{i}": rng.standard_normal(4) for i in range(5)})
        path = tmp_path / "w.safetensors"
        write_checkpoint(ckpt, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8 : 8 + header_len])
        names = [k for k in header if k != "__metadata__"]
        assert names == sorted(names)
        cursor = 0
        for name in names:
            begin, end = header[name]["data_offsets"]
            assert begin == cursor
            cursor = end
        assert 8 + header_len + cursor == len(raw)


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "write, suffix", [(write_checkpoint, ".safetensors")], ids=["safetensors"]
    )
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, write, suffix):
        path = tmp_path / f"m{suffix}"
        write(Checkpoint({"w": np.arange(64.0)}), path)
        old = path.read_bytes()

        class FailingFile:
            """Writes half of the first chunk it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(
            lewis.checkpoint, "open", lambda *a, **k: FailingFile(open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="no space"):
            write(Checkpoint({"w": -np.arange(64.0)}), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "m.safetensors"
        write_checkpoint(Checkpoint({"w": np.arange(4.0)}), path)
        write_checkpoint(Checkpoint({"v": np.ones(3)}), path)
        assert read_checkpoint(path).names() == ["v"]
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize(
        "old, new",
        [
            (lewis.ArchConfig(), lewis.ArchConfig(hidden_dim=16)),
            (lewis.ActivationProfile("a", {0: 1.0}, 1), lewis.ActivationProfile("b", {0: 2.0}, 1)),
            (lewis.build_plan_uniform(0.5), lewis.build_plan_uniform(0.25)),
            (lewis.MergeRecipe("base", ["m"]), lewis.MergeRecipe("base", ["m", "n"])),
            (lewis.CalibrationSet([[1, 2]]), lewis.CalibrationSet([[3, 4, 5]])),
        ],
        ids=["arch", "profile", "plan", "recipe", "calibration"],
    )
    def test_failed_document_save_keeps_old_file(self, tmp_path, monkeypatch, old, new):
        path = tmp_path / "doc.json"
        old.save(path)
        before = path.read_bytes()

        class HalfWriter(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(lewis.checkpoint, "open", lambda file, mode: HalfWriter(file, mode), raising=False)
        with pytest.raises(OSError, match="no space"):
            new.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestFormatErrors:
    def _valid_file(self, tmp_path):
        path = tmp_path / "v.safetensors"
        write_checkpoint(Checkpoint({"w": np.array([1.0, 2.0])}), path)
        return path

    def _raw_file(self, tmp_path, header: dict, data: bytes):
        body = json.dumps(header).encode()
        path = tmp_path / "raw.safetensors"
        path.write_bytes(struct.pack("<Q", len(body)) + body + data)
        return path

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.safetensors"
        path.write_bytes(b"abc")
        with pytest.raises(HeaderLengthError):
            read_checkpoint(path)

    def test_header_length_beyond_file(self, tmp_path):
        path = tmp_path / "t.safetensors"
        path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
        with pytest.raises(HeaderLengthError):
            read_checkpoint(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "t.safetensors"
        body = b"this is not structured text!!"
        path.write_bytes(struct.pack("<Q", len(body)) + body)
        with pytest.raises(HeaderParseError):
            read_checkpoint(path)

    def test_unknown_dtype_names_tensor(self, tmp_path):
        header = {"w": {"dtype": "I64", "shape": [2], "data_offsets": [0, 16]}}
        path = self._raw_file(tmp_path, header, b"\0" * 16)
        with pytest.raises(UnknownDtypeError, match="'w'"):
            read_checkpoint(path)

    def test_out_of_bounds_offsets(self, tmp_path):
        header = {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}
        path = self._raw_file(tmp_path, header, b"\0" * 4)
        with pytest.raises(DataOffsetError, match="'w'"):
            read_checkpoint(path)

    def test_wrong_span_for_shape(self, tmp_path):
        header = {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 4]}}
        path = self._raw_file(tmp_path, header, b"\0" * 4)
        with pytest.raises(DataOffsetError, match="'w'"):
            read_checkpoint(path)

    def test_overlapping_offsets(self, tmp_path):
        header = {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        }
        path = self._raw_file(tmp_path, header, b"\0" * 12)
        with pytest.raises(DataOffsetError, match="overlap"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shape", 5),
            ("shape", "ab"),
            ("shape", [2.7]),
            ("shape", [True, 2]),
            ("shape", None),
            ("data_offsets", None),
            ("data_offsets", [0]),
            ("data_offsets", [0, 4, 8]),
            ("data_offsets", [0, 8.0]),
            ("data_offsets", [False, 8]),
        ],
    )
    def test_malformed_table_entry_names_tensor(self, tmp_path, field, value):
        header = {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8], field: value}}
        path = self._raw_file(tmp_path, header, b"\0" * 8)
        with pytest.raises(HeaderParseError, match=f"{re.escape(str(path))}: tensor 'w' {field}"):
            read_checkpoint(path)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        field=st.sampled_from(["shape", "data_offsets", "dtype"]),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=4), inner, max_size=4),
            max_leaves=8,
        ),
    )
    def test_any_table_value_raises_only_checkpoint_error(self, tmp_path, field, value):
        header = {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8], field: value}}
        path = self._raw_file(tmp_path, header, b"\0" * 8)
        try:
            read_checkpoint(path)
        except CheckpointError:
            pass

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_truncation_raises_only_checkpoint_error(self, tmp_path, seed, data):
        rng = np.random.default_rng(seed)
        dtypes = {f"t.{dtype}": dtype for dtype in lewis.checkpoint.DTYPES}
        tensors = {name: rng.standard_normal(tuple(rng.integers(1, 4, size=2))) for name in dtypes}
        path = tmp_path / "cut.safetensors"
        write_checkpoint(Checkpoint(tensors, dtypes, {"note": "cut"}), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_file_shrunk_after_open_names_tensor(self, tmp_path):
        path = tmp_path / "s.safetensors"
        write_checkpoint(Checkpoint({"a": np.ones(4), "b": np.ones(4)}), path)
        opened = lewis.checkpoint.CheckpointFile(path)
        path.write_bytes(path.read_bytes()[:-6])  # cuts into tensor "b"
        np.testing.assert_array_equal(opened["a"], np.ones(4))
        with pytest.raises(DataOffsetError, match=f"{re.escape(str(path))}: tensor 'b'"):
            opened["b"]

    @pytest.mark.parametrize(
        "dtype, word, signalling",
        [("F32", "<u4", 0x7F800001), ("F16", "<u2", 0x7C01), ("BF16", "<u2", 0x7F81)],
    )
    def test_signalling_nan_reads_quietly(self, tmp_path, dtype, word, signalling):
        words = np.array([signalling, 0], dtype=word)
        header = {"w": {"dtype": dtype, "shape": [2], "data_offsets": [0, words.nbytes]}}
        path = self._raw_file(tmp_path, header, words.tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = read_checkpoint(path)["w"]
        assert np.isnan(values[0]) and values[1] == 0.0

    def test_zero_element_tensor_rejected(self):
        with pytest.raises(InvalidTensorError):
            Checkpoint({"w": np.zeros((0, 3))})

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_checkpoint(Checkpoint({"w": np.ones(2)}), tmp_path)  # a directory

    def test_scalar_shape_rejected(self):
        with pytest.raises(InvalidTensorError):
            Checkpoint({"w": np.float64(1.0)})

    def test_bad_metadata_rejected(self, tmp_path):
        header = {"__metadata__": {"k": 3}}
        path = self._raw_file(tmp_path, header, b"")
        with pytest.raises(HeaderParseError):
            read_checkpoint(path)


class TestDtypeSnapping:
    def test_f16_values_snap_on_construction(self):
        value = 0.1234567  # not representable in f16
        ckpt = Checkpoint({"w": np.array([value])}, "F16")
        snapped = float(np.float16(value))
        assert float(ckpt["w"][0]) == snapped

    def test_bf16_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        ckpt = Checkpoint({"w": rng.standard_normal(64)}, "BF16")
        path = tmp_path / "bf.safetensors"
        write_checkpoint(ckpt, path)
        loaded = read_checkpoint(path)
        np.testing.assert_array_equal(loaded["w"], ckpt["w"])

    def test_bf16_matches_truncation_for_representable(self):
        # 1.5 = 0x3FC00000 has a clean bf16 representation
        ckpt = Checkpoint({"w": np.array([1.5, -2.0, 0.0])}, "BF16")
        np.testing.assert_array_equal(ckpt["w"], [1.5, -2.0, 0.0])


class TestClassify:
    @pytest.mark.parametrize(
        "name,kind,block",
        [
            ("model.layers.3.self_attn.q_proj.weight", "Q", 3),
            ("model.layers.0.self_attn.k_proj.weight", "K", 0),
            ("model.layers.12.self_attn.v_proj.weight", "V", 12),
            ("model.layers.7.self_attn.o_proj.weight", "O", 7),
            ("model.layers.2.mlp.gate_proj.weight", "MLP", 2),
            ("model.layers.2.mlp.down_proj.weight", "MLP", 2),
            ("model.layers.4.input_layernorm.weight", "Norm", 4),
            ("model.embed_tokens.weight", "Embedding", None),
            ("model.norm.weight", "Norm", None),
            ("lm_head.weight", "Head", None),
            ("rotary.inv_freq", "Other", None),
        ],
    )
    def test_llama_style(self, name, kind, block):
        role = role_classifier("llama-style")(name)
        assert role.kind == kind
        assert role.block_index == block

    @pytest.mark.parametrize(
        "name,kind,block",
        [
            ("blocks.1.mlp.down.weight", "MLP", 1),
            ("blocks.0.attn.wq.weight", "Q", 0),
            ("blocks.3.attn_norm.weight", "Norm", 3),
            ("embed.weight", "Embedding", None),
            ("final_norm.weight", "Norm", None),
            ("head.weight", "Head", None),
            ("mystery.weight", "Other", None),
        ],
    )
    def test_toy(self, name, kind, block):
        role = role_classifier("toy")(name)
        assert role.kind == kind
        assert role.block_index == block

    def test_llama_matches_regex_oracle(self):
        """Independent regex over generated names must agree on kind and block."""
        oracle = re.compile(
            r"^model\.layers\.(\d+)\.(self_attn\.(q|k|v|o)_proj|mlp\..*)\.weight$"
        )
        rng = np.random.default_rng(1)
        parts = ["self_attn.q_proj", "self_attn.k_proj", "self_attn.v_proj",
                 "self_attn.o_proj", "mlp.gate_proj", "mlp.up_proj", "mlp.down_proj"]
        for _ in range(200):
            block = int(rng.integers(0, 100))
            part = parts[int(rng.integers(0, len(parts)))]
            name = f"model.layers.{block}.{part}.weight"
            m = oracle.match(name)
            expected_kind = m.group(3).upper() if m.group(3) else "MLP"
            role = role_classifier("llama-style")(name)
            assert role.kind == expected_kind
            assert role.block_index == block

    def test_unregistered_scheme(self):
        with pytest.raises(ValueError, match="unregistered"):
            role_classifier("nope")("w")

    def test_detect_scheme(self):
        assert detect_naming_scheme(["model.layers.0.mlp.up_proj.weight"]) == "llama-style"
        assert detect_naming_scheme(["blocks.0.attn.wq.weight"]) == "toy"
        assert detect_naming_scheme(["whatever"]) == "llama-style"
