"""Spans around calls into the library's modules, for the benchmark's traced run.

A layer is one module of `lewis`; a span is one call into one of its
public functions. The library carries no tracing code: for a traced job the
benchmark replaces module attributes with timing wrappers (`Tracer.wrap`)
and puts them back afterwards (`Tracer.restore`).

Each span records its wall time and its self time (wall time minus the
spans nested in it on the same thread). On the main thread, while
`tracemalloc` runs, it also records the peak of traced memory above what was
allocated when it began, nested spans included. Spans on worker threads
record time only, since the tracemalloc peak is process-wide.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    layer: str
    op: str
    start: float
    end: float
    self_s: float
    depth: int  # nesting depth on its own thread
    alloc: int | None  # peak traced bytes above the start; None off the main thread


class _Frame:
    __slots__ = ("child", "start_mem", "peak")

    def __init__(self) -> None:
        self.child = 0.0
        self.start_mem = 0
        self.peak = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Frame]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, layer: str, op: str):
        stack = self._stack()
        track = threading.current_thread() is threading.main_thread() and tracemalloc.is_tracing()
        frame = _Frame()
        if track:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].peak = max(stack[-1].peak, peak)
            tracemalloc.reset_peak()
            frame.start_mem = frame.peak = current
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            alloc = None
            if track:
                frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
                alloc = frame.peak - frame.start_mem
            if stack:
                stack[-1].child += end - start
                if track:
                    stack[-1].peak = max(stack[-1].peak, frame.peak)
            with self._lock:
                self.spans.append(Span(layer, op, start, end, end - start - frame.child, len(stack), alloc))

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def wrap(self, owner: object, attr: str, layer: str, op: str, after=None) -> None:
        """Replace `owner.attr` with a wrapper that records a span per call.

        `after(tracer, args, kwargs, result)` runs after the call, in a span of
        its own (layer "trace"), to take counts from arguments and results.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(layer, op):
                result = original(*args, **kwargs)
            if after is not None:
                with self.span("trace", "hook"):
                    after(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------------- #

    def self_s(self, layer: str, *ops: str) -> float:
        return sum(s.self_s for s in self.spans if s.layer == layer and (not ops or s.op in ops))

    def wall_s(self, layer: str, op: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.layer == layer and s.op == op)

    def peak_alloc(self, layer: str) -> int | None:
        allocs = [s.alloc for s in self.spans if s.layer == layer and s.alloc is not None]
        return max(allocs) if allocs else None

    def covered_s(self) -> float:
        """Wall time inside at least one span, on any thread."""
        intervals = sorted((s.start, s.end) for s in self.spans if s.depth == 0)
        total, reach = 0.0, float("-inf")
        for start, end in intervals:
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total
