"""Checkpoint container IO.

A Checkpoint is an ordered (lexicographic) map from tensor name to a dense
numeric array plus an optional string->string metadata map. On disk it is
the safetensors layout:

    bytes 0..7    unsigned 64-bit little-endian header length H
    bytes 8..8+H  JSON object  name -> {"dtype", "shape", "data_offsets"}
                  plus an optional "__metadata__" string map
    bytes 8+H..   raw little-endian row-major tensor data; offsets are
                  relative to the end of the header

The writer is canonical: tensor names are serialized in lexicographic
order, data offsets are contiguous and gapless, and the header is padded
with trailing spaces to 8-byte alignment, so equal checkpoints always
produce byte-identical files. The writer builds the header from each
tensor's shape and itemsize, then streams one tensor's narrowed words at
a time into a temp file beside the destination and renames it into
place, so a failed write never leaves a truncated file behind.

Reading is header first: a CheckpointFile reads and checks the whole
header (dtypes, shapes, offsets inside the file, no overlaps) and reads a
tensor's words only when that tensor is indexed. read_checkpoint opens a
file that way and then reads every tensor; asked for finite weights, it
rejects the first tensor holding NaN or an infinity by file and name.

In memory every tensor is widened to float64 for arithmetic; the dtype it
was stored with (F32, F16 or BF16) is kept per tensor so writing narrows
back losslessly. Values are snapped to their stored dtype on construction,
which is what makes round trips bit-exact; tensors widened from stored
words are already exact and are not snapped again. One rounding rule
serves both the snap and the writer: float64 rounds to float32, then to
F16 or BF16, each step to nearest even, and BF16 NaNs keep the quiet bit.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import uuid
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DataOffsetError,
    HeaderLengthError,
    HeaderParseError,
    InvalidTensorError,
    NonFiniteTensorError,
    UnknownDtypeError,
)

# Each stored dtype's little-endian storage word. A BF16 word is the high
# half of an F32 word.
_WORDS = {"F32": np.dtype("<f4"), "F16": np.dtype("<f2"), "BF16": np.dtype("<u2")}

DTYPES = tuple(_WORDS)


def _narrow(values: np.ndarray, dtype: str) -> np.ndarray:
    """Round float64 `values` to `dtype`'s storage words.

    Values go to float32 first, then to F16 or BF16, each step rounding to
    nearest even; values beyond the range become infinities. BF16 NaNs keep
    the quiet bit instead of being rounded into infinity. The words are in C
    order, so the writer can stream them to a file as they are.
    """
    with np.errstate(over="ignore"):
        f32 = values.astype("<f4", order="C")
        if dtype != "BF16":
            return f32.astype(_WORDS[dtype], copy=False)
    u = f32.view("<u4")
    nan = ((u & 0x7F800000) == 0x7F800000) & ((u & 0x007FFFFF) != 0)
    rounded = (u + ((u >> 16) & 1) + 0x7FFF) >> 16
    return np.where(nan, (u >> 16) | 0x0040, rounded).astype("<u2")


def _widen(words: np.ndarray) -> np.ndarray:
    """Storage words back to float64 (exact; a signalling NaN comes back quiet)."""
    if words.dtype == _WORDS["BF16"]:
        words = (words.astype("<u4") << 16).view("<f4")
    with np.errstate(invalid="ignore"):
        return words.astype(np.float64)


def _validate_shape(name: str, shape: tuple[int, ...]) -> None:
    if len(shape) == 0:
        raise InvalidTensorError(f"tensor {name!r} has an empty shape")
    if any(int(d) <= 0 for d in shape):
        raise InvalidTensorError(f"tensor {name!r} has non-positive extent in shape {list(shape)}")


def _int_list(
    path: str | Path, name: str, field: str, value: object, length: int | None = None
) -> tuple[int, ...]:
    """`value` as a tuple if it is a list of ints (bools rejected), of `length` items if given."""
    if (
        not isinstance(value, list)
        or any(type(v) is not int for v in value)
        or (length is not None and len(value) != length)
    ):
        count = "" if length is None else f"{length} "
        raise HeaderParseError(
            f"{path}: tensor {name!r} {field} must be a list of {count}ints, got {value!r}"
        )
    return tuple(value)


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
            self.tensors[name] = _widen(_narrow(arr, dtype))  # snap to the stored dtype
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


def exact_checkpoint(
    tensors: Mapping[str, np.ndarray],
    dtypes: Mapping[str, str],
    metadata: Mapping[str, str] | None = None,
) -> Checkpoint:
    """A Checkpoint of float64 arrays already exact in their `dtypes`, kept without a re-snap."""
    ckpt = Checkpoint({}, metadata=metadata)
    ckpt.tensors = {name: tensors[name] for name in sorted(tensors)}
    ckpt.dtypes = {name: dtypes[name] for name in ckpt.tensors}
    return ckpt


# --------------------------------------------------------------------------- #
# safetensors container
# --------------------------------------------------------------------------- #

def write_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write `ckpt` to `path` in the canonical safetensors layout."""
    header: dict[str, object] = {}
    if ckpt.metadata is not None:
        header["__metadata__"] = dict(sorted(ckpt.metadata.items()))

    offset = 0
    for name in ckpt.names():
        arr = ckpt.tensors[name]
        if arr.size == 0:
            raise InvalidTensorError(f"tensor {name!r} has zero elements")
        end = offset + arr.size * _WORDS[ckpt.dtypes[name]].itemsize
        header[name] = {
            "dtype": ckpt.dtypes[name],
            "shape": [int(d) for d in arr.shape],
            "data_offsets": [offset, end],
        }
        offset = end

    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    pad = (8 - len(header_bytes) % 8) % 8
    header_bytes += b" " * pad

    words = (_narrow(ckpt.tensors[name], ckpt.dtypes[name]) for name in ckpt.names())
    _write_atomic(path, itertools.chain([struct.pack("<Q", len(header_bytes)), header_bytes], words))


def _write_atomic(path: str | Path, chunks: Iterable[bytes | np.ndarray]) -> None:
    """Write `chunks` to a temp file beside `path`, then rename it onto `path`.

    On any failure the temp file is removed and an existing file at `path`
    is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class CheckpointFile:
    """A safetensors checkpoint opened by its header alone.

    Opening reads and checks the whole header; indexing reads and widens one
    tensor. It offers a Checkpoint's read side: names(), shapes(), dtypes,
    metadata and [name]. With `finite`, indexing a tensor that holds NaN or
    an infinity raises NonFiniteTensorError naming the file and the tensor.
    """

    def __init__(self, path: str | Path, finite: bool = False):
        self.path = path
        self.finite = finite
        with open(path, "rb") as fh:
            prefix = fh.read(8)
            if len(prefix) < 8:
                raise HeaderLengthError(f"{path}: file too short for a header-length prefix")
            (header_len,) = struct.unpack("<Q", prefix)
            size = os.fstat(fh.fileno()).st_size
            if 8 + header_len > size:
                raise HeaderLengthError(
                    f"{path}: header length {header_len} exceeds file size {size}"
                )
            raw = fh.read(header_len)
        try:
            header = json.loads(raw.decode("utf-8"))
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
        self.metadata: dict[str, str] | None = metadata

        start = 8 + header_len
        data_len = size - start
        self.dtypes: dict[str, str] = {}
        self._layout: dict[str, tuple[tuple[int, ...], int]] = {}  # name -> (shape, file offset)
        spans: list[tuple[int, int, str]] = []
        for name in sorted(header):
            entry = header[name]
            if not isinstance(entry, dict) or not {"dtype", "shape", "data_offsets"} <= set(entry):
                raise HeaderParseError(f"{path}: malformed table entry for tensor {name!r}")
            dtype = entry["dtype"]
            if dtype not in DTYPES:
                raise UnknownDtypeError(f"{path}: tensor {name!r} has unknown dtype {dtype!r}")
            shape = _int_list(path, name, "shape", entry["shape"])
            _validate_shape(name, shape)
            begin, end = _int_list(path, name, "data_offsets", entry["data_offsets"], 2)
            expected = math.prod(shape) * _WORDS[dtype].itemsize
            if begin < 0 or end > data_len or begin > end:
                raise DataOffsetError(
                    f"{path}: tensor {name!r} offsets [{begin}, {end}] outside data region of {data_len} bytes"
                )
            if end - begin != expected:
                raise DataOffsetError(
                    f"{path}: tensor {name!r} spans {end - begin} bytes, expected {expected}"
                )
            spans.append((begin, end, name))
            self.dtypes[name] = dtype
            self._layout[name] = (shape, start + begin)

        spans.sort()
        for (b0, e0, n0), (b1, e1, n1) in zip(spans, spans[1:]):
            if b1 < e0:
                raise DataOffsetError(
                    f"{path}: tensors {n0!r} and {n1!r} have overlapping data offsets"
                )

    def names(self) -> list[str]:
        return list(self.dtypes)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: shape for name, (shape, _) in self._layout.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        shape, offset = self._layout[name]
        word, count = _WORDS[self.dtypes[name]], math.prod(shape)
        words = np.fromfile(self.path, word, count, offset=offset)
        if words.size != count:  # the file shrank after its header was read
            raise DataOffsetError(
                f"{self.path}: tensor {name!r} needs {count * word.itemsize} bytes "
                f"but the file ends after {words.size * word.itemsize}"
            )
        arr = _widen(words).reshape(shape)
        if self.finite and not np.isfinite(arr).all():
            raise NonFiniteTensorError(f"{self.path}: tensor {name!r} holds NaN or infinite values")
        return arr


def read_checkpoint(path: str | Path, finite: bool = False) -> Checkpoint:
    """Read a safetensors-container checkpoint from `path`; `finite` as for CheckpointFile."""
    file = CheckpointFile(path, finite)
    return exact_checkpoint({name: file[name] for name in file.names()}, file.dtypes, file.metadata)
