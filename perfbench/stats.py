"""Pure pieces of the benchmark: percentiles, span self time, load schedules.

Nothing here touches the program, the clock or the network, so every
function is deterministic and unit-tested in ``perfbench/tests``.
"""

from __future__ import annotations

import itertools
import random

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_rank(n: int) -> int:
    """0-based rank, in ascending order, of the tail sample of ``n``.

    The tail is the highest sample with at least :data:`TAIL_BEYOND`
    samples beyond it, i.e. the ``(n - 10)``-th smallest.  Fewer than
    eleven samples support no tail.
    """
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples support no tail (need > {TAIL_BEYOND})")
    return n - TAIL_BEYOND - 1


def tail_percentile(n: int) -> float:
    """Nearest-rank percentile that :func:`tail_rank` picks out of ``n``."""
    return 100.0 * (tail_rank(n) + 1) / n


def tail(samples) -> float:
    """The tail sample (see :func:`tail_rank`)."""
    ordered = sorted(samples)
    return ordered[tail_rank(len(ordered))]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` is an iterable of dicts with ``id``, ``parent`` (``None``
    for a root), ``start`` and ``end``.  Children may overlap each other
    (the union is subtracted once) and may outlive their parent (only the
    part inside the parent counts).
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def _key_sampler(rng: random.Random, n_keys: int, zipf_s: float | None):
    """Draw key indices: Zipf(``zipf_s``) over a seeded rank order, or uniform."""
    if zipf_s is None:
        return lambda: rng.randrange(n_keys)
    order = list(range(n_keys))
    rng.shuffle(order)
    cum = list(itertools.accumulate(1.0 / (r + 1) ** zipf_s for r in range(n_keys)))
    return lambda: rng.choices(order, cum_weights=cum)[0]


def open_loop_schedule(
    seed: int, n: int, rate: float, n_keys: int, zipf_s: float | None
) -> list[tuple[float, int]]:
    """``n`` Poisson arrivals at ``rate``/s: (due offset in s, key index)."""
    rng = random.Random(f"open-{seed}")
    draw = _key_sampler(rng, n_keys, zipf_s)
    due = 0.0
    schedule = []
    for _ in range(n):
        due += rng.expovariate(rate)
        schedule.append((due, draw()))
    return schedule


def key_stream(seed: int, n: int, n_keys: int, zipf_s: float | None) -> list[int]:
    """``n`` key indices for the closed loop, from the same key distribution."""
    rng = random.Random(f"closed-{seed}")
    draw = _key_sampler(rng, n_keys, zipf_s)
    return [draw() for _ in range(n)]


def shuffled_cycles(seed: int, items, cycles: int) -> list:
    """``cycles`` passes over ``items``, each pass in its own seeded order."""
    rng = random.Random(f"cycles-{seed}")
    out = []
    for _ in range(cycles):
        batch = list(items)
        rng.shuffle(batch)
        out.extend(batch)
    return out
