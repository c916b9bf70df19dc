"""`parallel.map_in_order`: results in item order, the in-flight budget, and failures."""

import os
import sys
import threading
import time

import pytest

from lewis.parallel import map_in_order, usable_cores


def test_results_in_item_order_with_more_workers_than_items():
    assert map_in_order(lambda x: x * x, list(range(5)), workers=16) == [0, 1, 4, 9, 16]
    assert map_in_order(lambda x: x, [], workers=4) == []


def test_budget_holds_under_contention():
    """With more workers than cores and a short switch interval, the cost of the
    items in flight never exceeds the budget, and no item runs twice or is lost."""
    costs = [1 + (7 * i) % 5 for i in range(300)]  # 1..5
    lock = threading.Lock()
    in_flight = peak = 0
    ran = []

    def work(i):
        nonlocal in_flight, peak
        with lock:
            in_flight += costs[i]
            peak = max(peak, in_flight)
            ran.append(i)
        sum(range(200))  # a little Python work, so threads interleave
        with lock:
            in_flight -= costs[i]
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = map_in_order(work, list(range(300)), workers=8, cost=costs.__getitem__, budget=10)
    finally:
        sys.setswitchinterval(interval)
    assert result == list(range(300))
    assert sorted(ran) == list(range(300))
    assert peak <= 10


def test_item_over_budget_runs_alone():
    lock = threading.Lock()
    running = most = 0

    def work(_):
        nonlocal running, most
        with lock:
            running += 1
            most = max(most, running)
        time.sleep(0.01)
        with lock:
            running -= 1

    map_in_order(work, [50, 50, 50], workers=3, cost=lambda c: c, budget=10)
    assert most == 1


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
