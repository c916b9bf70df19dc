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
header (no key twice, dtypes, shapes, offsets inside the file, no
overlaps) and reads tensor data only when asked, with one positional read
for tensors asked for together that share a dtype and lie back to back
in the file. read_checkpoint opens a file that way and then reads every
tensor on one descriptor; asked for finite weights, it
rejects the first tensor holding NaN or an infinity by file and name.
Every path the library opens goes through one rule (`_os_path`), so a
path holding NUL is a MergeError, not the OS call's ValueError.

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
import numbers
import os
import struct
import uuid
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .buffers import _ALIGN, Block, all_finite, copied, empty, frame
from .errors import (
    CheckpointError,
    DataOffsetError,
    HeaderLengthError,
    HeaderParseError,
    InvalidTensorError,
    MergeError,
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
    order, so the writer can stream them to a file as they are. With a block
    lent, the words take at most _NARROW_BYTES an element of it while they are made.
    """
    with np.errstate(over="ignore"):
        if dtype == "F32":
            return copied(values, "<f4")
        words = empty(values.shape, _WORDS[dtype])
        with frame():
            f32 = copied(values, "<f4")
            if dtype == "F16":
                np.copyto(words, f32, casting="unsafe")
                return words
            u = f32.view("<u4")
            t = np.bitwise_and(u, 0x7FFFFFFF, out=empty(u.shape, "<u4"))
            nan = np.greater(t, 0x7F800000, out=empty(u.shape, np.bool_))  # exponent all ones, mantissa not 0
            # Round to nearest even: add 0x7FFF plus the lowest kept bit, keep the top half.
            np.right_shift(u, 16, out=t)
            t &= 1
            t += u
            t += 0x7FFF
            t >>= 16
            np.copyto(words, t, casting="unsafe")
            if nan.any():
                np.right_shift(u, 16, out=t)
                t |= 0x0040
                np.copyto(words, t, casting="unsafe", where=nan)
            return words


_NARROW_BYTES = 11  # BF16: the 2-byte words, a float32 copy, a 4-byte rounding word and the NaN mask


def _widen(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Storage words back to float64, into `out` if given (exact; a signalling NaN comes back quiet)."""
    out = empty(words.shape) if out is None else out
    with frame():
        if words.dtype == _WORDS["BF16"]:
            words = np.left_shift(words, 16, out=empty(words.shape, "<u4"), dtype="<u4").view("<f4")
        with np.errstate(invalid="ignore"):
            np.copyto(out, words, casting="unsafe")
    return out


def _snap(values: np.ndarray, dtype: str, out: np.ndarray | None = None) -> np.ndarray:
    """`values` rounded to `dtype` and widened back, into `out` if given (it may be `values` itself)."""
    out = empty(values.shape) if out is None else out
    with frame():
        return _widen(_narrow(values, dtype), out)


def _os_path(path: str | os.PathLike) -> str | bytes:
    """The one rule for every path the library opens: `os.fspath(path)`, or MergeError for a
    path holding NUL, which no OS call takes."""
    fs = os.fspath(path)
    if ("\0" if isinstance(fs, str) else b"\0") in fs:
        raise MergeError(f"path {fs!r} holds a NUL byte")
    return fs


def _open_fd(path: str | os.PathLike) -> int:
    return os.open(_os_path(path), os.O_RDONLY | getattr(os, "O_BINARY", 0))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; json.loads alone keeps the last of two equal keys."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            raise MergeError(f"key {key!r} appears twice in one object")
        seen.add(key)
    return dict(pairs)


def _json_object(raw: bytes, where: str, error: type[MergeError]) -> dict:
    """The one JSON reader, for checkpoint headers, documents and calibration records: `raw` as
    UTF-8 JSON text holding one object, no key twice in any object; else raise `error` prefixed with `where`."""
    try:
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a key twice, a huge int, deep nesting
        raise error(f"{where}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{where}: must be a JSON object, got {type(doc).__name__}")
    return doc


def _is_int(value: object) -> bool:
    """The one int rule, for sizes, counts, seeds, block and token ids and header shapes: an int or a numpy int,
    never a bool. A caller that keeps the value keeps int(value)."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _is_str_map(value: object) -> bool:  # the one rule for checkpoint metadata and plan provenance
    return isinstance(value, Mapping) and all(isinstance(k, str) and isinstance(v, str) for k, v in value.items())


def _validate_name(name: object) -> None:
    if not isinstance(name, str) or name == "__metadata__":  # the header keeps that key for metadata
        raise InvalidTensorError(f"tensor name {name!r} must be a string other than '__metadata__'")


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
        or not all(map(_is_int, value))  # JSON gives Python ints, so the tuple needs no int()
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
    parameter sets return new Checkpoints. With `out`, each tensor is
    snapped into `out[name]`, a float64 array of its shape that may be the
    input array itself, and the checkpoint holds that array.
    """

    def __init__(
        self,
        tensors: Mapping[str, np.ndarray],
        dtypes: str | Mapping[str, str] = "F32",
        metadata: Mapping[str, str] | None = None,
        out: Mapping[str, np.ndarray] | None = None,
    ):
        self.tensors: dict[str, np.ndarray] = {}
        self.dtypes: dict[str, str] = {}
        for name in sorted(tensors, key=str):  # str() lets a bad name sort, so it is named below
            _validate_name(name)
            arr = np.asarray(tensors[name], dtype=np.float64)
            _validate_shape(name, arr.shape)
            dtype = dtypes if isinstance(dtypes, str) else dtypes.get(name)
            if dtype is None:
                raise CheckpointError(f"tensor {name!r} has no entry in dtypes")
            if dtype not in DTYPES:
                raise UnknownDtypeError(f"tensor {name!r} has unsupported dtype {dtype!r}")
            self.tensors[name] = _snap(arr, dtype, None if out is None else out[name])
            self.dtypes[name] = dtype
        if metadata is not None and not _is_str_map(metadata):
            raise InvalidTensorError(f"metadata must map strings to strings, got {metadata!r}")
        self.metadata: dict[str, str] | None = None if metadata is None else dict(metadata)

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

    # One tensor's words at a time, in one block: each tensor's words are
    # written before the next tensor is narrowed over them.
    block = Block(_NARROW_BYTES * max((arr.size for arr in ckpt.tensors.values()), default=0) + 4 * _ALIGN)

    def narrow(name: str) -> np.ndarray:
        with block.lent():
            return _narrow(ckpt.tensors[name], ckpt.dtypes[name])

    words = map(narrow, ckpt.names())
    _write_atomic(path, itertools.chain([struct.pack("<Q", len(header_bytes)), header_bytes], words))


def _write_atomic(path: str | Path, chunks: Iterable[bytes | np.ndarray]) -> None:
    """Write `chunks` to a temp file beside `path`, then rename it onto `path`.

    A path that names no file ("", ".", "..", a root) or holds NUL raises
    MergeError and creates nothing. On any failure the temp file is removed and an existing
    file at `path` is left as it was; an OSError that names a file names `path`,
    not the temp file.
    """
    dest = Path(_os_path(path))
    if dest.name in ("", ".."):
        raise MergeError(f"{os.fspath(path)!r} names no file to write")
    tmp = dest.with_name(f".{dest.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, dest)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:  # it names the temp file
            exc.filename = os.fspath(path)
            del exc.filename2
        raise


class CheckpointFile:
    """A safetensors checkpoint opened by its header alone.

    Opening reads and checks the whole header; indexing reads and widens one
    tensor, and `read` several into one array. It offers a Checkpoint's read
    side: names(), shapes(), dtypes, metadata and [name]. With `finite`,
    reading a tensor that holds NaN or an infinity raises
    NonFiniteTensorError naming the file and the tensor. Reads are
    positional (`os.preadv`): inside `with file:` (which may nest), on one
    descriptor that every thread shares, else on one opened for the read.
    """

    def __init__(self, path: str | Path, finite: bool = False):
        self.path = path
        self.finite = finite
        self._fd: int | None = None
        self._entered = 0  # nested `with file:` blocks share the descriptor the outermost opened
        with open(_os_path(path), "rb") as fh:
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
        header = _json_object(raw, f"{path}: header", HeaderParseError)

        metadata = header.pop("__metadata__", None)
        if metadata is not None and not _is_str_map(metadata):
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

    def __enter__(self) -> "CheckpointFile":
        if self._entered == 0:
            self._fd = _open_fd(self.path)
        self._entered += 1
        return self

    def __exit__(self, *exc: object) -> None:
        if self._entered == 0:
            raise MergeError(f"{self.path}: exit without a matching enter")
        self._entered -= 1
        if self._entered == 0:
            fd, self._fd = self._fd, None
            os.close(fd)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.read([name]).reshape(self._layout[name][0])

    def read(self, names: Sequence[str], out: np.ndarray | None = None) -> np.ndarray:
        """The named tensors' values back to back, in the order given, as one flat float64
        array (into `out`, if given). Tensors of one dtype that lie back to back in the file
        take one positional read and one widening. With `finite`, one check covers them all,
        and a failure names the first of them that holds NaN or an infinity."""
        counts = [math.prod(self._layout[name][0]) for name in names]
        out = empty((sum(counts),)) if out is None else out
        i = at = 0
        while i < len(names):  # one group of tensors per pass
            word, offset = _WORDS[self.dtypes[names[i]]], self._layout[names[i]][1]
            j, end = i + 1, offset + counts[i] * word.itemsize
            while j < len(names) and _WORDS[self.dtypes[names[j]]] == word and self._layout[names[j]][1] == end:
                end, j = end + counts[j] * word.itemsize, j + 1
            n = (end - offset) // word.itemsize
            with frame():
                words = empty((n,), word)
                got = self._read_at(words.view(np.uint8), offset)
                if got != words.nbytes:  # the file shrank after its header was read
                    raise self._short_read(names[i:j], got)
                _widen(words, out[at : at + n])
            i, at = j, at + n
        if self.finite and not all_finite(out):
            at = 0
            for name, count in zip(names, counts):
                if not all_finite(out[at : at + count]):
                    raise NonFiniteTensorError(f"{self.path}: tensor {name!r} holds NaN or infinite values")
                at += count
        return out

    def _short_read(self, names: Sequence[str], got: int) -> DataOffsetError:
        """The error for the first of `names`, read back to back, that `got` bytes fall short of."""
        for name in names:
            word = _WORDS[self.dtypes[name]]
            need = math.prod(self._layout[name][0]) * word.itemsize
            if got < need:
                break
            got -= need
        return DataOffsetError(
            f"{self.path}: tensor {name!r} needs {need} bytes but the file ends after {got - got % word.itemsize}"
        )

    def _read_at(self, raw: np.ndarray, offset: int) -> int:
        """Read the bytes of `raw` from `offset` on; the count read, short only at the end of the file."""
        preadv = getattr(os, "preadv", None)
        if preadv is None:  # no positional read (Windows): a file of its own per read
            with open(_os_path(self.path), "rb") as fh:
                fh.seek(offset)
                return fh.readinto(raw)
        fd = self._fd if self._fd is not None else _open_fd(self.path)
        try:
            got = preadv(fd, [raw], offset)
            while 0 < got < raw.size:  # a read stops short at 2 GiB on Linux
                more = preadv(fd, [raw[got:]], offset + got)
                if more == 0:
                    break
                got += more
            return got
        finally:
            if fd != self._fd:
                os.close(fd)


def read_checkpoint(path: str | Path, finite: bool = False) -> Checkpoint:
    """Read a safetensors-container checkpoint from `path`; `finite` as for CheckpointFile."""
    with CheckpointFile(path, finite) as file:
        return exact_checkpoint({name: file[name] for name in file.names()}, file.dtypes, file.metadata)
