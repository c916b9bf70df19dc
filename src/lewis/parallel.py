"""In-order fan-out of independent work items over threads, the calling thread among them.

`map_in_order(fn, items, workers)` returns `[fn(item) for item in items]`.
The calling thread and `workers - 1` helper threads (no more than there
are items) take items from one shared counter, in item order. The calling
thread takes the first item before any helper starts, so it always runs at
least one; whatever watches only the calling thread (a tracer, say) sees
its share of the work.

After an item raises, no thread starts another; items already claimed
finish. Then the error of the failing item that comes first in item order
is raised, which is the error a serial loop raises.

`usable_cores()` counts the cores the process may run on, on any OS.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Sequence
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the OS keeps one (Linux), else every core."""
    affinity = getattr(os, "sched_getaffinity", None)  # looked up per call, so a patched one is seen
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def map_in_order(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """`[fn(item) for item in items]` on up to `workers` threads, as the module docstring says."""
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    taken = 0

    def claim() -> int | None:
        nonlocal taken
        with lock:
            if failures or taken == len(items):
                return None
            taken += 1
            return taken - 1

    def run(i: int | None) -> None:
        while i is not None:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised by the calling thread below
                with lock:
                    failures[i] = exc
            i = claim()

    first = claim()
    helpers = [
        threading.Thread(target=lambda: run(claim()), daemon=True)
        for _ in range(max(0, min(workers, len(items)) - 1))
    ]
    for helper in helpers:
        helper.start()
    try:
        run(first)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results
