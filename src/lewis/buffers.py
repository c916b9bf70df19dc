"""Scratch blocks: the memory a merge works in, one block per worker.

A Block is one byte buffer used as a stack. While a block is lent to a
thread (`with frame(block):`), `empty(shape, dtype)` on that thread takes
the next 64-byte-aligned piece of it; with none lent it is `np.empty`, so
outside a merge every function allocates as it always has. Inside
`with frame():` the pieces taken are given back when the frame ends, last
in first out, so a kernel keeps its temporaries in a frame and takes its
result before opening one. `copied`, `all_finite` and `select` are
`astype`, `isfinite(...).all()` and `where` on arrays that `empty` makes.
Nothing counts references: a piece is free once its frame ends, and the
code that took it must not use it after that.

`merge()` gives each of its workers one block, made on the worker's first
run and lent to it for every run it takes. A run's long-lived arrays sit
at the bottom (the base, then one delta per model, each float64), and the
kernels' temporaries reuse the region above them (`merge_methods` sizes
it). A take its block has no room for falls back to `np.empty`
(`_overflow`); `merge()` sizes its blocks so that this never happens.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_ALIGN = 64  # bytes; every piece of a block starts on a cache line
_lent = threading.local()


def _new_block(nbytes: int) -> np.ndarray:
    """The one allocation site of blocks."""
    return np.empty(nbytes, np.uint8)


def _overflow(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """An array for a take its block has no room for: fresh from np.empty."""
    return np.empty(shape, dtype)


class Block:
    """One byte buffer handed out as a stack of arrays; see the module docstring."""

    def __init__(self, nbytes: int):
        memory = _new_block(nbytes + _ALIGN)
        skip = -memory.ctypes.data % _ALIGN
        self.memory = memory[skip : skip + nbytes]
        self.nbytes = nbytes
        self.top = 0  # bytes in use, from the start

    def take(self, shape: tuple[int, ...], dtype: np.dtype | type | str) -> np.ndarray:
        """An uninitialised array of `shape` and `dtype` on the next aligned piece."""
        dtype = np.dtype(dtype)
        start = -(-self.top // _ALIGN) * _ALIGN
        end = start + math.prod(shape) * dtype.itemsize
        if end > self.nbytes:
            return _overflow(shape, dtype)
        self.top = end
        return self.memory[start:end].view(dtype).reshape(shape)


class frame:
    """`with frame():` gives back, at its end, what `empty` took inside it from the lent block.
    `with frame(block):` lends `block` to the calling thread for the length of the frame."""

    __slots__ = ("block", "outer", "top")

    def __init__(self, block: Block | None = None):
        self.block = block

    def __enter__(self) -> None:
        self.outer = getattr(_lent, "block", None)
        if self.block is None:
            self.block = self.outer
        _lent.block = self.block
        if self.block is not None:
            self.top = self.block.top

    def __exit__(self, *exc: object) -> None:
        if self.block is not None:
            self.block.top = self.top
        _lent.block = self.outer


def empty(shape: tuple[int, ...], dtype: np.dtype | type | str = np.float64) -> np.ndarray:
    """`np.empty(shape, dtype)`, on the block lent to this thread if there is one."""
    block = getattr(_lent, "block", None)
    return np.empty(shape, dtype) if block is None else block.take(shape, dtype)


def copied(values: np.ndarray, dtype: np.dtype | type | str | None = None) -> np.ndarray:
    """`values.astype(dtype)` (a copy in C order; `dtype` None keeps the dtype) on an array from `empty`."""
    out = empty(values.shape, values.dtype if dtype is None else dtype)
    np.copyto(out, values, casting="unsafe")
    return out


def all_finite(arr: np.ndarray) -> bool:
    """Whether `arr` holds no NaN or infinity; the mask comes from `empty`."""
    with frame():
        return bool(np.isfinite(arr, out=empty(arr.shape, np.bool_)).all())


def select(mask: np.ndarray, a: np.ndarray, b: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """`np.where(mask, a, b)` written into `out`, where `a`, `b` and `out` share one
    dtype and `b` None stands for zeros (all bits clear, so +0.0); `out` may be `a` or `b`.

    It picks bits, not values, so it branches on nothing: np.where and
    np.copyto(where=) branch per element and run slower on a mask without pattern.
    An unsigned word times the mask (1 or 0) keeps or clears all its bits, so
    `b ^ ((a ^ b) * mask)` is `a` where the mask holds and `b` elsewhere.
    """
    bits = np.dtype(f"u{out.itemsize}")
    if b is None:
        np.multiply(a.view(bits), mask, out=out.view(bits))
        return out
    with frame():
        picked = np.bitwise_xor(a.view(bits), b.view(bits), out=empty(mask.shape, bits))
        np.multiply(picked, mask, out=picked)
        np.bitwise_xor(b.view(bits), picked, out=out.view(bits))
        return out
