import json
import os

import numpy as np
import pytest

from lewis import ArchConfig, Checkpoint, random_checkpoint
from lewis.errors import KeysetMismatchError, ShapeMismatchError
from lewis.runtime import _BLAS_THREAD_VARS


@pytest.fixture
def small_arch() -> ArchConfig:
    return ArchConfig(
        vocab_size=256, hidden_dim=8, num_blocks=2, num_heads=2, mlp_dim=16, max_seq_len=32
    )


@pytest.fixture
def toy_pair(small_arch):
    """A base checkpoint and a perturbed fine-tune of it."""
    base = random_checkpoint(small_arch, seed=11)
    rng = np.random.default_rng(12)
    fine = Checkpoint(
        {n: base[n] + 0.1 * rng.standard_normal(base[n].shape) for n in base.names()},
        dict(base.dtypes),
    )
    return base, fine


def random_fixture_checkpoint(rng: np.random.Generator, max_tensors: int = 5) -> Checkpoint:
    """Small random checkpoint with mixed dtypes, for IO tests."""
    dtypes = ("F32", "F16", "BF16")
    n = int(rng.integers(1, max_tensors + 1))
    tensors, tags = {}, {}
    for i in range(n):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(s) for s in rng.integers(1, 6, size=ndim))
        tensors[f"t{i}.weight"] = rng.standard_normal(shape)
        tags[f"t{i}.weight"] = dtypes[int(rng.integers(0, 3))]
    return Checkpoint(tensors, tags)


def relayout(src, dst, header_order, data_order) -> None:
    """Copy safetensors file `src` to `dst`, listing its header entries in
    `header_order` and storing the tensor data in `data_order`.

    `header_order` holds every header key (`__metadata__` included, if
    present) and `data_order` every tensor name. `dst` is a valid file that
    no canonical writer would produce unless both orders are sorted.
    """
    raw = src.read_bytes()
    header_len = int.from_bytes(raw[:8], "little")
    header = json.loads(raw[8 : 8 + header_len])
    data = raw[8 + header_len :]
    chunks, offset = [], 0
    for name in data_order:
        begin, end = header[name]["data_offsets"]
        chunks.append(data[begin:end])
        header[name]["data_offsets"] = [offset, offset + end - begin]
        offset += end - begin
    body = json.dumps({key: header[key] for key in header_order}).encode()
    dst.write_bytes(len(body).to_bytes(8, "little") + body + b"".join(chunks))


def header_keys(path) -> list[str]:
    """The header keys of a safetensors file, in file order."""
    raw = path.read_bytes()
    return list(json.loads(raw[8 : 8 + int.from_bytes(raw[:8], "little")]))


def reverse_data_region(src, dst) -> None:
    """Copy canonical safetensors file `src` to `dst` with tensor data stored in
    reverse name order; the header still lists names sorted."""
    keys = header_keys(src)
    relayout(src, dst, keys, sorted((k for k in keys if k != "__metadata__"), reverse=True))


def mismatched_model(base: Checkpoint, kind: str) -> tuple[Checkpoint, type, str]:
    """A copy of a toy `base` that lacks a tensor ("missing"), adds one ("extra")
    or changes one's shape ("shape"), with the error a merge must raise and the
    tensor it must name.
    """
    tensors = dict(base.tensors)
    if kind == "missing":
        del tensors["head.weight"]
        return Checkpoint(tensors), KeysetMismatchError, "head.weight"
    if kind == "extra":
        tensors["extra.weight"] = np.ones(3)
        return Checkpoint(tensors), KeysetMismatchError, "extra.weight"
    tensors["final_norm.weight"] = np.ones(base["final_norm.weight"].size + 1)
    return Checkpoint(tensors), ShapeMismatchError, "final_norm.weight"


def pin_machine(monkeypatch, cores: int, **blas: str) -> None:
    """Pretend the process may use `cores` cores and the BLAS thread variables read `blas`."""
    for var in _BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)  # absent on macOS
