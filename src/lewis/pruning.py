"""Task-vector pruning: magnitude trimming and random drop-with-rescale.

Both operate per tensor at a keep-density in (0, 1]. Trimming keeps the
k = ceil(density * n) largest-magnitude entries (ties broken toward the
lower flat index) and zeroes the rest; dropping keeps each entry
independently with probability `density` and rescales survivors by
1/density so the expectation is unchanged.

Randomness is counter-based: each tensor gets its own Philox stream keyed
by (seed, 64-bit hash of tensor name), and the counter position is the
flat element index. Results therefore never depend on the order tensors
are processed in.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Mapping

import numpy as np

from .buffers import copied, empty, frame, select
from .checkpoint import _is_int
from .errors import MergeError
from .importance import SparsityPlan, _check_density
from .roles import TensorRole
from .task_vectors import TaskVector

_MASK64 = (1 << 64) - 1


def name_hash64(name: str) -> int:
    """Stable 64-bit hash of a tensor name (process-independent)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _seed64(seed: int) -> int:
    """The low 64 bits of `seed`, an int by the one int rule (`checkpoint._is_int`); else MergeError."""
    if not _is_int(seed):
        raise MergeError(f"seed must be an int, got {seed!r}")
    return int(seed) & _MASK64


def mix_seed(seed: int, label: str) -> int:
    """Derive a sub-seed from (seed, label); used for per-model streams."""
    h = hashlib.blake2b(digest_size=8)
    h.update(_seed64(seed).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def _stream(seed: int, name: str) -> np.random.Generator:
    key = (_seed64(seed) << 64) | name_hash64(name)
    return np.random.Generator(np.random.Philox(key=key))


def trim_count(density: float, n: int) -> int:
    """Number of entries kept at `density` on an n-element tensor."""
    return min(n, math.ceil(density * n))


def magnitude_trim(values: np.ndarray, density: float, out: np.ndarray | None = None) -> np.ndarray:
    """Keep the ceil(density * n) largest |entries|, zero the rest.

    Kept entries are copied bit-exactly; ties in magnitude keep the lower
    flat index first. The result goes to `out` if given: a C-ordered array
    of `values`' shape and dtype, which may be `values` itself.
    """
    density = _check_density(density)
    values = np.asarray(values)
    flat = values.ravel()
    k = trim_count(density, flat.size)
    out = empty(values.shape, values.dtype) if out is None else out
    if k == flat.size:
        np.copyto(out, values)
        return out
    with frame():
        keep, tied = empty(flat.shape, np.bool_), empty(flat.shape, np.bool_)
        with frame():
            # Keep order is -|x| ascending, NaN last, ties by flat index: select the
            # k-th value as a threshold, then admit threshold ties lowest index first.
            order = np.abs(flat, out=empty(flat.shape, values.dtype))
            np.negative(order, out=order)
            order.partition(k - 1)
            thr = order[k - 1]
            if np.isnan(thr):  # fewer than k non-NaN entries: keep them all, then NaNs
                np.isnan(flat, out=tied)
                np.logical_not(tied, out=keep)
            else:  # -|x| < thr is |x| > -thr, exactly
                np.abs(flat, out=order)
                np.greater(order, -thr, out=keep)
                np.equal(order, -thr, out=tied)
        admit = k - np.count_nonzero(keep)
        if admit == np.count_nonzero(tied):  # every tie is kept (most often the one threshold entry)
            np.logical_or(keep, tied, out=keep)
        else:
            keep[np.flatnonzero(tied)[:admit]] = True
        select(keep, flat, None, out.reshape(-1))
    return out


def random_drop_rescale(
    values: np.ndarray, density: float, seed: int, name: str = "", out: np.ndarray | None = None
) -> np.ndarray:
    """Independently keep entries with probability `density`, rescale by 1/density.

    Deterministic for fixed (values, density, seed, name); density 1.0 is
    the exact identity. A seed that is not an int, a density whose rescale
    1/density is not finite in the result's dtype (1e-9 in float16 rounds
    to 0, 1e-320 in float64 overflows), or a finite kept entry that
    overflows that dtype when rescaled raises MergeError naming the tensor.
    The result goes to `out` if given: an array of `values`' shape in the
    result's dtype, which may be `values` itself.
    """
    density = _check_density(density)
    stream = _stream(seed, name)
    arr = np.asarray(values)
    if density == 1.0:
        if out is None:
            return copied(arr)
        np.copyto(out, arr)
        return out
    dtype = np.result_type(arr, density)
    with np.errstate(divide="ignore", over="ignore"):
        if not np.isfinite(np.divide(1.0, density, dtype=dtype)):
            raise MergeError(f"tensor {name!r}: density {density} has no finite rescale 1/density in {dtype}")
    out = empty(arr.shape, dtype) if out is None else out
    with frame():
        keep = empty(arr.shape, np.bool_)
        with frame():
            uniforms = stream.random(out=empty((arr.size,)))
            np.less(uniforms.reshape(arr.shape), density, out=keep)
        if arr.dtype != dtype:
            np.copyto(out, arr, casting="unsafe")
            arr = out
        # Zero the dropped entries first, so only a kept entry can overflow.
        select(keep, arr, None, out)
    try:
        with np.errstate(over="raise"):
            return np.divide(out, density, out=out)
    except FloatingPointError:
        raise MergeError(
            f"tensor {name!r}: a kept entry overflows {dtype} when rescaled by 1/density {density}"
        ) from None


def apply_plan(
    tv: TaskVector,
    plan: SparsityPlan,
    mode: str,
    roles: Callable[[str], TensorRole],
    seed: int = 0,
    out: Mapping[str, np.ndarray] | None = None,
) -> TaskVector:
    """Prune every tensor of a task vector at its plan density.

    `mode` selects the pruning function: "magnitude" trims, "random" drops
    and rescales. Block tensors use their block's density (role overrides
    win when the plan carries them); everything else uses the default.
    With `out`, each pruned tensor goes to `out[name]`, which may be the
    task vector's own delta.
    """
    if mode not in ("magnitude", "random"):
        raise MergeError(f"mode must be 'magnitude' or 'random', got {mode!r}")
    pruned: dict[str, np.ndarray] = {}
    for name, delta in tv.deltas.items():
        density = plan.density_for(roles(name), name)
        into = None if out is None else out[name]
        if mode == "magnitude":
            pruned[name] = magnitude_trim(delta, density, into)
        else:
            pruned[name] = random_drop_rescale(delta, density, seed, name, into)
    return TaskVector(deltas=pruned, source_model_id=tv.source_model_id)

