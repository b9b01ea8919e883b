"""Tests for the benchmark's pure pieces.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import stats  # noqa: E402


# -- tail percentile: the highest sample with >= 10 samples beyond it ------------


@pytest.mark.parametrize("n", [11, 12, 24, 100, 360, 1000])
def test_tail_leaves_exactly_ten_beyond(n):
    samples = list(range(n))
    value = stats.tail(samples)
    assert sum(1 for s in samples if s > value) == stats.TAIL_BEYOND
    # No higher sample qualifies: the next one up has only nine beyond it.
    assert sum(1 for s in samples if s > value + 1) == stats.TAIL_BEYOND - 1


def test_tail_ignores_input_order():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
    assert stats.tail(samples) == 1.0
    assert stats.tail(sorted(samples, reverse=True)) == 1.0


@pytest.mark.parametrize("n", [0, 1, 10])
def test_too_few_samples_have_no_tail(n):
    with pytest.raises(ValueError):
        stats.tail_rank(n)


def test_tail_percentile_is_nearest_rank():
    assert stats.tail_percentile(100) == pytest.approx(90.0)
    assert stats.tail_percentile(360) == pytest.approx(100 * 350 / 360)
    assert stats.tail_percentile(20) == pytest.approx(50.0)


# -- self time: duration minus the part covered by children ---------------------


def span(id, parent, start, end):
    return {"id": id, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_sequential_children():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 1, 5.0, 9.0)]
    own = stats.self_times(spans)
    assert own == {1: pytest.approx(4.0), 2: pytest.approx(2.0), 3: pytest.approx(4.0)}


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 2.0, 6.0), span(3, 1, 4.0, 8.0)]
    assert stats.self_times(spans)[1] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 8.0, 14.0)]
    assert stats.self_times(spans)[1] == pytest.approx(8.0)


def test_self_time_only_subtracts_direct_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 9.0),
        span(3, 2, 2.0, 8.0),
    ]
    own = stats.self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(6.0)
    # Self times of a tree add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


# -- schedules: deterministic per seed ---------------------------------------------


@pytest.mark.parametrize("zipf_s", [None, 1.1])
def test_open_loop_schedule_is_deterministic_per_seed(zipf_s):
    a = stats.open_loop_schedule(3, 500, 20.0, 60, zipf_s)
    assert a == stats.open_loop_schedule(3, 500, 20.0, 60, zipf_s)
    assert a != stats.open_loop_schedule(4, 500, 20.0, 60, zipf_s)


def test_open_loop_schedule_shape():
    sched = stats.open_loop_schedule(1, 2000, 20.0, 60, None)
    dues = [d for d, _ in sched]
    assert dues == sorted(dues) and dues[0] > 0
    # Poisson at 20/s: 2000 arrivals take about 100 s.
    assert 90.0 < dues[-1] < 110.0
    assert {k for _, k in sched} == set(range(60))


def test_zipf_draw_is_skewed_and_uniform_is_not():
    zipf = [k for _, k in stats.open_loop_schedule(1, 3000, 20.0, 60, 1.1)]
    flat = [k for _, k in stats.open_loop_schedule(1, 3000, 20.0, 60, None)]
    top = max(zipf.count(k) for k in set(zipf))
    assert top > 0.15 * len(zipf)
    assert max(flat.count(k) for k in set(flat)) < 0.05 * len(flat)


def test_key_stream_and_cycles_are_deterministic():
    assert stats.key_stream(5, 100, 60, 1.1) == stats.key_stream(5, 100, 60, 1.1)
    items = list("abcdefghijkl")
    order = stats.shuffled_cycles(2, items, 3)
    assert order == stats.shuffled_cycles(2, items, 3)
    assert [sorted(order[i:i + 12]) for i in (0, 12, 24)] == [items] * 3


# -- the launcher's span recorder ---------------------------------------------------


def test_tracer_links_parents_per_thread():
    from launcher import Tracer

    tracer = Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        return traced_leaf() + traced_leaf()

    traced_outer = tracer.wrap("outer", outer)
    worker = threading.Thread(target=traced_outer)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert traced_outer() == 2
    by_thread: dict[int, list[dict]] = {}
    for s in tracer.spans:
        by_thread.setdefault(s["thread"], []).append(s)
    assert len(by_thread) == 2
    for spans in by_thread.values():
        (root,) = [s for s in spans if s["name"] == "outer"]
        leaves = [s for s in spans if s["name"] == "leaf"]
        assert root["parent"] is None and root["root"] == root["id"]
        assert len(leaves) == 2
        assert all(s["parent"] == root["id"] and s["root"] == root["id"] for s in leaves)
