"""In-order fan-out of independent work items over threads, the calling thread among them.

`map_in_order(fn, items, workers)` returns `[fn(item) for item in items]`.
The calling thread and `workers - 1` helper threads take items from one
shared counter, in item order. The calling thread takes the first item
before any helper starts, so it always runs at least one; whatever watches
only the calling thread (a tracer, say) sees its share of the work.

With `cost`, the items in flight cost at most `budget` together: a thread
waits before it starts an item that would go over, unless nothing else is
in flight, and no thread skips ahead of the waiting item.

After an item raises, no thread starts another; items already started
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


def map_in_order(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    cost: Callable[[T], int] | None = None,
    budget: int = 0,
) -> list[R]:
    """`[fn(item) for item in items]` on up to `workers` threads, as the module docstring says."""
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    changed = threading.Condition()
    taken = in_flight = 0

    def claim() -> tuple[int, int] | None:
        nonlocal taken, in_flight
        with changed:
            while not failures and taken < len(items):
                c = 0 if cost is None else cost(items[taken])
                if in_flight == 0 or in_flight + c <= budget:
                    taken, in_flight = taken + 1, in_flight + c
                    return taken - 1, c
                changed.wait()
            return None

    def run(claimed: tuple[int, int] | None) -> None:
        nonlocal in_flight
        while claimed is not None:
            i, c = claimed
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised by the calling thread below
                with changed:
                    failures[i] = exc
            with changed:
                in_flight -= c
                changed.notify_all()
            claimed = claim()

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
