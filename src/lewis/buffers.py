"""One pool of array buffers that a merge reuses from tensor to tensor.

Merging one tensor makes about a dozen arrays of that tensor's size: the
widened reads, the deltas, the trim, drop and election temporaries, the
snap's words and the finite-check masks. Freed, their memory goes back to
the operating system, and the next tensor faults it in again. So `merge()`
owns one BufferPool, shared by its worker threads, and lends it to the
thread that merges a tensor (`with pool.lend():`). While a pool is lent,
`empty(shape, dtype)` hands out one of its buffers; with none lent it is
`np.empty`, so outside a merge every function allocates as it always has.
`copied`, `all_finite` and `select` are `astype`, `isfinite(...).all()`
and `where` on arrays that `empty` makes.

A buffer is idle again once no array refers to its memory. Every array the
pool hands out is a view of one of its buffers, and so is every view of
that array, so each holds a reference to the buffer, and CPython's
reference count tells when the last is gone. A tensor's temporaries are
thus reused within the tensor as soon as they die, and all of them once
its result is written.

The pool holds at most `cap` bytes, idle and in use together. To add a
buffer past the cap it first drops idle ones; if that is not enough, the
array comes from `np.empty` and the pool does not keep it.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

_lent = threading.local()


def _new_buffer(nbytes: int) -> np.ndarray:
    """The pool's one allocation site."""
    return np.empty(nbytes, np.uint8)


def _refs(buffers: list[np.ndarray], i: int) -> int:
    return sys.getrefcount(buffers[i])


_IDLE_REFS = _refs([_new_buffer(0)], 0)  # the count of a buffer that only the pool holds


class BufferPool:
    """Buffers reused across the arrays `empty` makes while the pool is lent; see the module docstring."""

    def __init__(self, cap: int):
        self.cap = cap
        self.held = 0  # bytes of the buffers kept, idle or in use
        self._buffers: dict[int, list[np.ndarray]] = {}  # size in bytes -> buffers, oldest first
        self._lock = threading.Lock()

    @contextmanager
    def lend(self) -> Iterator[None]:
        """Inside the block, `empty` on the calling thread takes from this pool."""
        outer = getattr(_lent, "pool", None)
        _lent.pool = self
        try:
            yield
        finally:
            _lent.pool = outer

    def take(self, shape: tuple[int, ...], dtype: np.dtype | type | str) -> np.ndarray:
        """An uninitialised array of `shape` and `dtype`: on an idle buffer of its size, on a
        new one if the cap allows, else from `np.empty`."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        with self._lock:  # a buffer is claimed by making its view, so no other thread sees it idle
            same = self._buffers.setdefault(nbytes, [])
            for i in range(len(same)):
                if _refs(same, i) == _IDLE_REFS:
                    return same[i].view(dtype).reshape(shape)
            self._drop_idle(self.held + nbytes - self.cap)
            if self.held + nbytes > self.cap:
                return np.empty(shape, dtype)
            same.append(_new_buffer(nbytes))
            self.held += nbytes
            return same[-1].view(dtype).reshape(shape)

    def _drop_idle(self, excess: int) -> None:
        """Drop idle buffers until `excess` bytes are freed or none is left."""
        for nbytes, same in self._buffers.items():
            i = 0
            while excess > 0 and i < len(same):
                if _refs(same, i) == _IDLE_REFS:
                    del same[i]
                    self.held -= nbytes
                    excess -= nbytes
                else:
                    i += 1


def empty(shape: tuple[int, ...], dtype: np.dtype | type | str = np.float64) -> np.ndarray:
    """`np.empty(shape, dtype)`, on a buffer of the pool lent to this thread if there is one."""
    pool = getattr(_lent, "pool", None)
    return np.empty(shape, dtype) if pool is None else pool.take(shape, dtype)


def copied(values: np.ndarray, dtype: np.dtype | type | str | None = None) -> np.ndarray:
    """`values.astype(dtype)` (a copy in C order; `dtype` None keeps the dtype) on an array from `empty`."""
    out = empty(values.shape, values.dtype if dtype is None else dtype)
    np.copyto(out, values, casting="unsafe")
    return out


def all_finite(arr: np.ndarray) -> bool:
    """Whether `arr` holds no NaN or infinity; the mask comes from `empty`."""
    return bool(np.isfinite(arr, out=empty(arr.shape, np.bool_)).all())


def select(mask: np.ndarray, a: np.ndarray, b: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """`np.where(mask, a, b)` written into `out`, where `a`, `b` and `out` share one
    dtype and `b` None stands for zeros (all bits clear, so +0.0); `out` may be `a` or `b`.

    It picks bits, not values, so it branches on nothing: np.where and
    np.copyto(where=) branch per element and run slower on a mask without pattern.
    """
    bits = np.dtype(f"u{out.itemsize}")
    ones = np.negative(mask, out=empty(mask.shape, bits), dtype=bits)  # all bits set where mask holds
    if b is None:
        np.bitwise_and(a.view(bits), ones, out=out.view(bits))
        return out
    picked = np.bitwise_and(a.view(bits), ones, out=empty(mask.shape, bits))
    np.bitwise_and(b.view(bits), np.invert(ones, out=ones), out=out.view(bits))
    np.bitwise_or(out.view(bits), picked, out=out.view(bits))
    return out
