"""`parallel.map_in_order`: results in item order, each item run once, and failures."""

import os
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lewis.parallel import map_in_order, usable_cores


def test_results_in_item_order_with_more_workers_than_items():
    assert map_in_order(lambda x: x * x, list(range(5)), workers=16) == [0, 1, 4, 9, 16]
    assert map_in_order(lambda x: x, [], workers=4) == []


def test_no_item_runs_twice_or_is_lost_under_contention():
    """With more workers than cores and a short switch interval, every item runs once
    and the results come back in item order."""
    ran = []

    def work(i):
        ran.append(i)
        sum(range(200))  # a little Python work, so threads interleave
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = map_in_order(work, list(range(300)), workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert result == list(range(300))
    assert sorted(ran) == list(range(300))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 40),
    workers=st.integers(1, 8),
    failing=st.sets(st.integers(0, 39)),
)
def test_any_items_any_workers_any_failures(n, workers, failing):
    """The results of a serial loop, or the error it raises first. No item runs twice, and
    after the first failure only items claimed before it is recorded start: at most one
    per other worker, each of which waits long enough for the record to happen."""
    failing &= set(range(n))
    lock = threading.Lock()
    starts = []
    failed = threading.Event()
    late = []  # items that started after some item raised

    def fn(i):
        with lock:
            starts.append(i)
            if failed.is_set():
                late.append(i)
        if i in failing:
            failed.set()
            raise ValueError(i)
        if failed.is_set():
            time.sleep(0.05)
        return 3 * i + 1

    if failing:
        with pytest.raises(ValueError) as raised:
            map_in_order(fn, list(range(n)), workers)
        assert raised.value.args == (min(failing),)
    else:
        assert map_in_order(fn, list(range(n)), workers) == [3 * i + 1 for i in range(n)]
    assert sorted(starts) == list(range(len(starts)))  # a prefix of the items, each run once
    assert len(late) <= workers - 1


def test_first_item_runs_on_the_calling_thread():
    idents = map_in_order(lambda _: threading.get_ident(), list(range(4)), workers=4)
    assert idents[0] == threading.get_ident()


def test_error_of_first_failing_item_in_order():
    later_failed = threading.Event()

    def work(i):
        if i == 1:
            later_failed.wait(timeout=10)
            raise ValueError("item 1")
        if i == 2:
            later_failed.set()
            raise KeyError("item 2")
        return i

    with pytest.raises(ValueError, match="item 1"):
        map_in_order(work, [0, 1, 2, 3], workers=4)
    assert later_failed.is_set()


def test_usable_cores_without_cpu_affinity(monkeypatch):
    """macOS and Windows have no os.sched_getaffinity: every core counts, and at least one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert usable_cores() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cores() == 1
