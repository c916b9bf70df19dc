"""Checkpoint container IO.

A Checkpoint is an ordered (lexicographic) map from tensor name to a dense
numeric array plus an optional string->string metadata map. On disk the
primary container is the safetensors layout:

    bytes 0..7    unsigned 64-bit little-endian header length H
    bytes 8..8+H  JSON object  name -> {"dtype", "shape", "data_offsets"}
                  plus an optional "__metadata__" string map
    bytes 8+H..   raw little-endian row-major tensor data; offsets are
                  relative to the end of the header

The writer is canonical: tensor names are serialized in lexicographic
order, data offsets are contiguous and gapless, and the header is padded
with trailing spaces to 8-byte alignment, so equal checkpoints always
produce byte-identical files.

In memory every tensor is widened to float64 for arithmetic; the dtype it
was stored with (F32, F16 or BF16) is kept per tensor so writing narrows
back losslessly. Values are snapped to their stored dtype on construction,
which is what makes round trips bit-exact.

A second, human-readable JSON format exists for tiny test fixtures; both
formats are reachable through load_checkpoint/save_checkpoint, dispatched
on the ".json" extension.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DataOffsetError,
    HeaderLengthError,
    HeaderParseError,
    InvalidTensorError,
    UnknownDtypeError,
)

DTYPES = ("F32", "F16", "BF16")

_DTYPE_ITEMSIZE = {"F32": 4, "F16": 2, "BF16": 2}


def _bf16_to_f64(raw: bytes) -> np.ndarray:
    """Decode little-endian bfloat16 bytes to float64 (exact)."""
    u16 = np.frombuffer(raw, dtype="<u2")
    u32 = u16.astype("<u4") << 16
    return u32.view("<f4").astype(np.float64)


def _f64_to_bf16_bytes(values: np.ndarray) -> bytes:
    """Encode float64 to bfloat16 with round-to-nearest-even.

    Exact for values already representable in bfloat16. NaN payloads keep
    the quiet bit instead of being rounded into infinity.
    """
    u = values.astype("<f4").view("<u4")
    nan = ((u & 0x7F800000) == 0x7F800000) & ((u & 0x007FFFFF) != 0)
    rounded = (u + ((u >> 16) & 1) + 0x7FFF) >> 16
    out = np.where(nan, (u >> 16) | 0x0040, rounded)
    return out.astype("<u2").tobytes()


def snap_to_dtype(values: np.ndarray, dtype: str) -> np.ndarray:
    """Round values to the nearest representable in `dtype`, return float64.

    Values beyond the narrow type's range become infinities, per IEEE
    narrowing; merge operations reject those downstream.
    """
    with np.errstate(over="ignore"):
        if dtype == "F32":
            return values.astype(np.float32).astype(np.float64)
        if dtype == "F16":
            return values.astype(np.float32).astype(np.float16).astype(np.float64)
        if dtype == "BF16":
            narrowed = _f64_to_bf16_bytes(np.ascontiguousarray(values, dtype=np.float64).ravel())
            return _bf16_to_f64(narrowed).reshape(values.shape)
    raise UnknownDtypeError(f"unsupported dtype {dtype!r}")


def _encode_data(values: np.ndarray, dtype: str) -> bytes:
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if dtype == "F32":
        return flat.astype("<f4").tobytes()
    if dtype == "F16":
        return flat.astype("<f2").tobytes()
    return _f64_to_bf16_bytes(flat)


def _decode_data(raw: bytes, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    if dtype == "F32":
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    elif dtype == "F16":
        arr = np.frombuffer(raw, dtype="<f2").astype(np.float64)
    else:
        arr = _bf16_to_f64(raw)
    return arr.reshape(shape)


def _validate_shape(name: str, shape: tuple[int, ...]) -> None:
    if len(shape) == 0:
        raise InvalidTensorError(f"tensor {name!r} has an empty shape")
    if any(int(d) <= 0 for d in shape):
        raise InvalidTensorError(f"tensor {name!r} has non-positive extent in shape {list(shape)}")


class Checkpoint:
    """Ordered collection of named tensors with per-tensor stored dtypes.

    Immutable by convention once built: operations that derive new
    parameter sets return new Checkpoints.
    """

    def __init__(
        self,
        tensors: Mapping[str, np.ndarray],
        dtypes: str | Mapping[str, str] = "F32",
        metadata: Mapping[str, str] | None = None,
    ):
        self.tensors: dict[str, np.ndarray] = {}
        self.dtypes: dict[str, str] = {}
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype=np.float64)
            _validate_shape(name, arr.shape)
            dtype = dtypes if isinstance(dtypes, str) else dtypes.get(name, "F32")
            if dtype not in DTYPES:
                raise UnknownDtypeError(f"tensor {name!r} has unsupported dtype {dtype!r}")
            self.tensors[name] = snap_to_dtype(arr, dtype)
            self.dtypes[name] = dtype
        if metadata is not None:
            bad = [k for k, v in metadata.items() if not isinstance(k, str) or not isinstance(v, str)]
            if bad:
                raise InvalidTensorError(f"metadata keys/values must be strings: {bad}")
            metadata = dict(metadata)
        self.metadata: dict[str, str] | None = metadata

    def names(self) -> list[str]:
        return list(self.tensors)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: arr.shape for name, arr in self.tensors.items()}

    def num_elements(self) -> int:
        return sum(arr.size for arr in self.tensors.values())

    def __len__(self) -> int:
        return len(self.tensors)

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        if self.names() != other.names() or self.dtypes != other.dtypes:
            return False
        if self.metadata != other.metadata:
            return False
        return all(
            self.tensors[n].shape == other.tensors[n].shape
            and np.array_equal(self.tensors[n], other.tensors[n])
            for n in self.tensors
        )

    def __repr__(self) -> str:
        return f"Checkpoint({len(self.tensors)} tensors, {self.num_elements()} elements)"


# --------------------------------------------------------------------------- #
# safetensors container
# --------------------------------------------------------------------------- #

def write_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write `ckpt` to `path` in the canonical safetensors layout."""
    header: dict[str, object] = {}
    if ckpt.metadata is not None:
        header["__metadata__"] = dict(sorted(ckpt.metadata.items()))

    blobs: list[bytes] = []
    offset = 0
    for name in ckpt.names():
        arr = ckpt.tensors[name]
        if arr.size == 0:
            raise InvalidTensorError(f"tensor {name!r} has zero elements")
        data = _encode_data(arr, ckpt.dtypes[name])
        header[name] = {
            "dtype": ckpt.dtypes[name],
            "shape": [int(d) for d in arr.shape],
            "data_offsets": [offset, offset + len(data)],
        }
        blobs.append(data)
        offset += len(data)

    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    pad = (8 - len(header_bytes) % 8) % 8
    header_bytes += b" " * pad

    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Read a safetensors-container checkpoint from `path`."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise HeaderLengthError(f"{path}: file too short for a header-length prefix")
    (header_len,) = struct.unpack("<Q", raw[:8])
    if 8 + header_len > len(raw):
        raise HeaderLengthError(
            f"{path}: header length {header_len} exceeds file size {len(raw)}"
        )
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HeaderParseError(f"{path}: header is not valid structured text: {exc}") from exc
    if not isinstance(header, dict):
        raise HeaderParseError(f"{path}: header must be an object, got {type(header).__name__}")

    metadata = header.pop("__metadata__", None)
    if metadata is not None and (
        not isinstance(metadata, dict)
        or any(not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items())
    ):
        raise HeaderParseError(f"{path}: __metadata__ must map strings to strings")

    data = raw[8 + header_len :]
    tensors: dict[str, np.ndarray] = {}
    dtypes: dict[str, str] = {}
    spans: list[tuple[int, int, str]] = []
    for name in sorted(header):
        entry = header[name]
        if not isinstance(entry, dict) or not {"dtype", "shape", "data_offsets"} <= set(entry):
            raise HeaderParseError(f"{path}: malformed table entry for tensor {name!r}")
        dtype = entry["dtype"]
        if dtype not in DTYPES:
            raise UnknownDtypeError(f"{path}: tensor {name!r} has unknown dtype {dtype!r}")
        shape = tuple(int(d) for d in entry["shape"])
        _validate_shape(name, shape)
        begin, end = (int(v) for v in entry["data_offsets"])
        expected = int(np.prod(shape)) * _DTYPE_ITEMSIZE[dtype]
        if begin < 0 or end > len(data) or begin > end:
            raise DataOffsetError(
                f"{path}: tensor {name!r} offsets [{begin}, {end}] outside data region of {len(data)} bytes"
            )
        if end - begin != expected:
            raise DataOffsetError(
                f"{path}: tensor {name!r} spans {end - begin} bytes, expected {expected}"
            )
        spans.append((begin, end, name))
        tensors[name] = _decode_data(data[begin:end], dtype, shape)
        dtypes[name] = dtype

    spans.sort()
    for (b0, e0, n0), (b1, e1, n1) in zip(spans, spans[1:]):
        if b1 < e0:
            raise DataOffsetError(
                f"{path}: tensors {n0!r} and {n1!r} have overlapping data offsets"
            )

    return Checkpoint(tensors, dtypes, metadata)


# --------------------------------------------------------------------------- #
# tiny JSON fixture format
# --------------------------------------------------------------------------- #

def write_text_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    doc = {
        "metadata": ckpt.metadata,
        "tensors": {
            name: {
                "dtype": ckpt.dtypes[name],
                "shape": [int(d) for d in arr.shape],
                "values": arr.ravel().tolist(),
            }
            for name, arr in ckpt.tensors.items()
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def read_text_checkpoint(path: str | Path) -> Checkpoint:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise HeaderParseError(f"{path}: not valid structured text: {exc}") from exc
    tensors = {}
    dtypes = {}
    for name, entry in doc.get("tensors", {}).items():
        dtype = entry.get("dtype", "F32")
        if dtype not in DTYPES:
            raise UnknownDtypeError(f"{path}: tensor {name!r} has unknown dtype {dtype!r}")
        shape = tuple(int(d) for d in entry["shape"])
        _validate_shape(name, shape)
        values = np.asarray(entry["values"], dtype=np.float64)
        if values.size != int(np.prod(shape)):
            raise InvalidTensorError(
                f"{path}: tensor {name!r} has {values.size} values for shape {list(shape)}"
            )
        tensors[name] = values.reshape(shape)
        dtypes[name] = dtype
    return Checkpoint(tensors, dtypes, doc.get("metadata"))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint, dispatching on extension (".json" = fixture format)."""
    if str(path).endswith(".json"):
        return read_text_checkpoint(path)
    return read_checkpoint(path)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    if str(path).endswith(".json"):
        write_text_checkpoint(ckpt, path)
    else:
        write_checkpoint(ckpt, path)


def keyset_diff(left: Iterable[str], right: Iterable[str]) -> tuple[list[str], list[str]]:
    """Names only in `left`, names only in `right` (both sorted)."""
    ls, rs = set(left), set(right)
    return sorted(ls - rs), sorted(rs - ls)
