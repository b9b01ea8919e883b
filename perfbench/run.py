"""The repo benchmark: the program through its real entry points only.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot-mix --seed 1 --seconds 24 --trace 0

Workloads (why each exists is recorded in ``BENCHMARK.json``):

``hot-mix``
    ``repro serve --archive K --cmf-mode foldin`` (memo cache on) under
    a Zipf(1.1) draw over the 60 (workload, objective) keys.
``computed-mix``
    The same server with ``--rec-cache 0`` under a uniform draw, so every
    request runs an online wave.
``cold-select``
    Fresh ``python -m repro select <spark target> --json`` processes, one
    at a time, cycling over the 12 Spark targets.

A serving run fits the default knowledge (full catalog, 13 sources,
seed 7) in this process, saves it with ``save_selector``, spawns the
server several times to time its set-up, warms every key once, then runs
a Poisson open-loop phase at :data:`RATE` requests/s followed by a
closed-loop phase, each over at most ``nproc`` threads with one
keep-alive ``ServiceClient`` connection per thread.  Every 200 reply's
``recommendation`` is compared with the in-process oracle, ``/statsz``
is scraped and its accounting checked against the requests sent.

A cold-select run starts one process per second of ``--seconds``,
rounded to whole cycles of the 12 targets, and compares each stdout with
an in-process fresh fit at the same seed; its ``sat_rps`` is correct
selections per second of that one-process-at-a-time closed loop.

``setup_s`` is, for serving, the median time from spawning ``repro
serve`` to its first 200 from ``/healthz`` over :data:`SETUP_SPAWNS`
spawns; for cold-select, whose every operation is a fresh process, the
median of :data:`SETUP_FITS` in-process fits that build the oracle.
``fail_ratio`` is printed with the per-layer metrics, because an
end-to-end metric must never read 0; every run reports ``attempted`` and
``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
untraced run for the wire and ``/statsz`` layer metrics, then runs the
same load against the program started through ``perfbench/launcher.py``
for the span metrics, and checks that traced replies are byte-identical
to untraced ones.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

#: Open-loop arrival rate (requests/s), fixed for every serving workload.
#: Below today's capacity and far enough from the delayed-ACK boundary
#: that the median and the tail sit in different latency modes.
RATE = 13.0
#: Share of ``--seconds`` spent in the open loop; the rest is closed loop.
OPEN_SHARE = 0.75
ZIPF_S = 1.1
#: Server spawns per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
#: In-process fits per cold-select run; ``setup_s`` is their median.
SETUP_FITS = 3
KNOWLEDGE_SEED = 7
OBJECTIVES = ("time", "budget")

SERVING = {
    "hot-mix": {"serve_args": [], "zipf_s": ZIPF_S},
    "computed-mix": {"serve_args": ["--rec-cache", "0"], "zipf_s": None},
}
WORKLOADS = (*SERVING, "cold-select")

#: Wave layers: metric -> span names whose self time it sums, per wave.
WAVE_LAYERS = {
    "wave.prefetch_ms": ("ProfilingCampaign.prefetch",),
    "wave.signature_ms": ("VestaSelector.signature_from_profile", "correlation_vector"),
    "wave.membership_ms": ("LabelSpace.membership",),
    "wave.completion_ms": ("VestaSelector.complete_rows", "CMF.fold_in"),
    "wave.graph_write_ms": ("KnowledgeGraph.add_target_workload",),
    "wave.predict_ms": ("SimilarityPredictor.predict",),
    "wave.recommend_ms": ("OnlineSession.recommend",),
}

#: Offline stages: metric -> span names whose self time it sums inside
#: ``VestaSelector.fit``.
STAGE_LAYERS = {
    "stage.perf_matrix_ms": ("ProfilingCampaign.runtime_matrix",),
    "stage.corr_signatures_ms": ("ProfilingCampaign.collect_grid", "correlation_vector"),
    "stage.feature_selection_ms": ("select_by_importance",),
    "stage.labels_u_ms": ("LabelSpace.membership_matrix",),
    "stage.affinity_v_ms": ("KMeans.fit",),
    "stage.source_factors_ms": ("CMF.factor_sources",),
}

#: Per-layer metrics of the issue that no workload here drives, and why.
ABSENT = (
    "learn.*, registry.register_ms: no learn-mix workload (it is the least "
    "steady and does not fit the run budget), so service.learning, "
    "core.lifecycle and telemetry.store go unmeasured"
)


class BenchError(RuntimeError):
    """The benchmark could not run the program; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    # Byte-compile once into the checkout, as an installed package would,
    # so no process pays compile time whatever the caller's environment.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(workdir)
    return env


def program(spans: Path | None) -> list[str]:
    """Command that runs the repro CLI; traced into ``spans`` when given."""
    if spans is None:
        return [sys.executable, "-m", "repro"]
    return [sys.executable, str(HERE / "launcher.py"), str(spans)]


def exited(proc: subprocess.Popen) -> bool:
    """Whether ``proc`` has exited, leaving it for :func:`reap` to collect."""
    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
    return os.waitid(os.P_PID, proc.pid, flags) is not None


def reap(proc: subprocess.Popen, timeout_s: float = 30.0):
    """Wait for ``proc`` (killing it after ``timeout_s``); its rusage."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            # Not proc.kill(): Popen polls first, which could reap the
            # child and lose its rusage.
            os.kill(proc.pid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.001)


# -- the oracle -----------------------------------------------------------------


def canonical(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True)


def all_keys() -> list[tuple[str, str]]:
    from repro.workloads.catalog import all_workloads

    return [(w.name, o) for w in all_workloads() for o in OBJECTIVES]


def serving_oracle(archive: Path, keys) -> dict[tuple[str, str], str]:
    """Canonical recommendation JSON per key, from the archive in process."""
    from repro.core.persistence import load_selector
    from repro.service.wire import recommendation_to_dict
    from repro.workloads.catalog import get_workload

    sel = load_selector(archive).refit(cmf_mode="foldin")
    return {
        (w, o): canonical(
            json.loads(json.dumps(recommendation_to_dict(sel.select(get_workload(w), o))))
        )
        for w, o in keys
    }


# -- serving ---------------------------------------------------------------------


class Server:
    """One ``repro serve`` child (optionally under the traced launcher)."""

    def __init__(self, args: list[str], workdir: Path, spans: Path | None = None):
        from repro.service.client import ServiceClient

        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [*program(spans), "serve", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=child_env(workdir),
            cwd=ROOT,
        )
        self.log: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.rusage = None
        try:
            port = self._await_port(timeout_s=120.0)
            self.client = ServiceClient("127.0.0.1", port, timeout_s=60.0)
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    self.client.healthz()
                    break
                except Exception:
                    if exited(self.proc) or time.monotonic() > deadline:
                        raise
                    time.sleep(0.005)
            self.ready_s = time.monotonic() - self.spawned
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError("repro serve printed no address in time") from None
            if line is None:
                raise BenchError("repro serve exited early:\n" + "".join(self.log[-20:]))
            match = re.search(r"on http://[^:\s]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def stop(self) -> None:
        """SIGINT (``repro serve`` shuts down cleanly on it) and reap."""
        if self.rusage is not None:
            return
        os.kill(self.proc.pid, signal.SIGINT)
        self.rusage = reap(self.proc)
        self._reader.join(timeout=10.0)
        self.proc.stdout.close()


def send(client, key, due: float) -> dict:
    """One ``/select``; the outcome with client-side timestamps."""
    from repro.errors import (
        DeadlineExceededError,
        ReproError,
        ServiceOverloadedError,
    )

    sent = time.monotonic()
    out = {"key": key, "due": due, "sent": sent, "thread": threading.get_ident()}
    try:
        reply = client.select(*key)
    except ServiceOverloadedError:
        out["error"] = "429"
    except DeadlineExceededError:
        out["error"] = "504"
    except (ReproError, OSError, ValueError, http.client.HTTPException) as exc:
        out["error"] = type(exc).__name__
    else:
        out["reply"] = reply
    out["done"] = time.monotonic()
    return out


def run_threads(n: int, target, client) -> None:
    """Run ``target`` on ``n`` threads, each on its own pooled connection."""

    def body():
        try:
            target()
        finally:
            client.close()

    threads = [threading.Thread(target=body, daemon=True) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def warm(client, keys, width: int) -> list[dict]:
    """Every key once, over ``width`` threads."""
    results: list[dict] = []
    todo = list(keys)
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                if not todo:
                    return
                key = todo.pop()
            results.append(send(client, key, time.monotonic()))

    run_threads(width, worker, client)
    return results


def open_loop(client, keys, schedule, width: int) -> list[dict]:
    """Send ``schedule`` on time; at most ``width`` requests in flight.

    Each request is timed from when it was due, so a stall delays (and is
    charged to) the requests behind it.
    """
    t0 = time.monotonic() + 0.05
    results: list[dict | None] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            offset, k = schedule[i]
            due = t0 + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            results[i] = send(client, keys[k], due)

    run_threads(width, worker, client)
    return results


def closed_loop(client, keys, stream, width: int, seconds: float):
    """``width`` clients, each sending its next request on the reply."""
    results: list[dict] = []
    cursor = itertools.cycle(stream)
    lock = threading.Lock()
    start = time.monotonic()
    end = start + seconds

    def worker():
        while time.monotonic() < end:
            with lock:
                k = next(cursor)
            results.append(send(client, keys[k], time.monotonic()))

    run_threads(width, worker, client)
    return results, time.monotonic() - start


def tally(results, oracle) -> dict:
    """Requests sent, failed (error or refusal) and wrong (differs from oracle)."""
    failed = wrong = 0
    for r in results:
        if "reply" not in r:
            failed += 1
        elif canonical(r["reply"]["recommendation"]) != oracle[r["key"]]:
            wrong += 1
    return {"sent": len(results), "failed": failed, "wrong": wrong}


def serve_load(server: Server, keys, cfg: dict, seed: int, seconds: float) -> dict:
    """Warm, open loop, closed loop, scrape: the measured part of a run."""
    width = nproc()
    n_open = round(RATE * seconds * OPEN_SHARE)
    schedule = stats.open_loop_schedule(seed, n_open, RATE, len(keys), cfg["zipf_s"])
    closed_s = seconds * (1.0 - OPEN_SHARE)
    stream = stats.key_stream(seed, 10_000, len(keys), cfg["zipf_s"])
    phases = {"warm": warm(server.client, keys, width)}
    window_start = time.monotonic()
    phases["open"] = open_loop(server.client, keys, schedule, width)
    phases["closed"], closed_elapsed = closed_loop(
        server.client, keys, stream, width, closed_s
    )
    window_end = time.monotonic()
    for phase, rs in phases.items():
        threads = len({r["thread"] for r in rs})
        if threads > width:
            raise BenchError(
                f"{phase} phase used {threads} connections, more than nproc={width}"
            )
    statsz = server.client.statsz()
    healthz = server.client.healthz()
    return {
        "phases": phases,
        "closed_elapsed": closed_elapsed,
        "window": (window_start, window_end),
        "statsz": statsz,
        "healthz": healthz,
    }


def serving_e2e(load: dict) -> dict:
    opened = load["phases"]["open"]
    lat = [(r["done"] - r["due"]) * 1e3 for r in opened]
    closed_ok = sum(1 for r in load["phases"]["closed"] if "reply" in r)
    return {
        "p50_ms": statistics.median(lat),
        "tail_ms": stats.tail(lat),
        "sat_rps": closed_ok / load["closed_elapsed"],
        "n_open": len(lat),
    }


def serving_wire_layers(load: dict) -> dict:
    """Frontend, scheduler and generator metrics from replies and /statsz."""
    ok = [r for r in load["phases"]["open"] if "reply" in r]
    front, queued, service, size = [], [], [], []
    for r in ok:
        lat = r["reply"]["latency"]
        queued.append(lat["queued_ms"])
        service.append(lat["service_ms"])
        front.append((r["done"] - r["sent"]) * 1e3 - lat["queued_ms"] - lat["service_ms"])
        # The server writes json.dumps(payload) with default separators,
        # so re-encoding the parsed reply reproduces the body's size.
        size.append(len(json.dumps(r["reply"]).encode()))
    late = [(r["sent"] - r["due"]) * 1e3 for r in load["phases"]["open"]]
    sched = load["statsz"]["schedulers"]["default"]
    hist = {int(k): v for k, v in sched["batch_size_histogram"].items()}
    rec = sched["rec_cache"] or {"hits": 0, "misses": 0}
    fold = load["healthz"]["selectors"]["default"]["foldin_cache"] or {"hits": 0, "misses": 0}
    return {
        "frontend.ms_p50": statistics.median(front),
        "frontend.ms_tail": stats.tail(front),
        "frontend.resp_bytes": sum(size) / len(size),
        "sched.queued_ms_p50": statistics.median(queued),
        "sched.queued_ms_tail": stats.tail(queued),
        "sched.service_ms_p50": statistics.median(service),
        "sched.service_ms_tail": stats.tail(service),
        "sched.batch_mean": (
            sum(k * v for k, v in hist.items()) / sum(hist.values()) if hist else 0.0
        ),
        "sched.memo_hit_ratio": ratio(rec["hits"], rec["hits"] + rec["misses"]),
        "sched.submitted": sched["submitted"],
        "sched.rejected": sched["rejected"],
        "sched.shed": sched["shed"],
        "sched.expired": sched["expired"],
        "sched.failed": sched["failed"],
        "foldin.op_hit_ratio": ratio(fold["hits"], fold["hits"] + fold["misses"]),
        "gen.late_ms_p50": statistics.median(late),
        "gen.late_ms_max": max(late),
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def accounting_ok(load: dict) -> tuple[bool, str]:
    """Scheduler submissions plus refusals must equal the requests sent."""
    sent = sum(len(rs) for rs in load["phases"].values())
    s = load["statsz"]["schedulers"]["default"]
    seen = s["submitted"] + s["rejected"] + s["shed"]
    return seen == sent, f"sent {sent}, scheduler saw {seen} (submitted+rejected+shed)"


def load_spans(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def wave_layers(trace: dict, window) -> dict:
    """Per-wave self time of each wave layer inside the measured window."""
    lo, hi = window
    spans = trace["spans"]
    own = stats.self_times(spans)
    inside = [s for s in spans if s["start"] >= lo and s["end"] <= hi]
    waves = [s for s in inside if s["name"] == "VestaSelector.online_many"]
    n = len(waves)
    out = {
        "wave.ms": ratio(sum((s["end"] - s["start"]) * 1e3 for s in waves), n),
        "wave.rows": ratio(sum(s["rows"] for s in waves), n),
    }
    for metric, names in WAVE_LAYERS.items():
        total = sum(own[s["id"]] for s in inside if s["name"] in names)
        out[metric] = ratio(total * 1e3, n)
    out["wave.graph_write_share"] = ratio(out["wave.graph_write_ms"], out["wave.ms"])
    prefetch = [s for s in inside if s["name"] == "ProfilingCampaign.prefetch"]
    hits = sum(s["hits"] for s in prefetch)
    out["campaign.hit_ratio"] = ratio(hits, hits + sum(s["misses"] for s in prefetch))
    for metric, name in (
        ("wire.serialize_ms", "response_to_dict"),
        ("wire.canonical_ms", "canonical_request"),
    ):
        mine = [own[s["id"]] * 1e3 for s in inside if s["name"] == name]
        out[metric] = ratio(sum(mine), len(mine))
    loads = [own[s["id"]] * 1e3 for s in spans if s["name"] == "load_selector"]
    out["persist.load_ms"] = statistics.median(loads) if loads else 0.0
    return out


def run_serving(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from repro.core.persistence import save_selector
    from repro.core.vesta import VestaSelector

    cfg = SERVING[name]
    keys = all_keys()
    archive = workdir / "knowledge.npz"
    save_selector(VestaSelector(seed=KNOWLEDGE_SEED).fit(), archive)
    oracle = serving_oracle(archive, keys)
    args = ["--archive", str(archive), "--cmf-mode", "foldin", *cfg["serve_args"]]

    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        s = Server(args, workdir)
        setups.append(s.ready_s)
        s.stop()
    server = Server(args, workdir)
    setups.append(server.ready_s)
    try:
        load = serve_load(server, keys, cfg, seed, seconds)
    finally:
        server.stop()
    e2e = serving_e2e(load)
    e2e["setup_s"] = statistics.median(setups)
    e2e["rss_mb"] = server.rusage.ru_maxrss / 1024.0
    report = {
        "e2e": e2e,
        "phases": {p: tally(rs, oracle) for p, rs in load["phases"].items()},
        "checks": {"accounting": accounting_ok(load)},
        "notes": [f"tail_ms is p{stats.tail_percentile(e2e['n_open']):.1f} "
                  f"of {e2e['n_open']} open-loop samples at {RATE:g}/s"],
    }
    if not trace:
        return report

    layers = serving_wire_layers(load)
    spans_path = workdir / "spans.json"
    traced = Server(args, workdir, spans=spans_path)
    try:
        tload = serve_load(traced, keys, cfg, seed, seconds)
    finally:
        traced.stop()
    for phase, rs in tload["phases"].items():
        report["phases"][f"traced {phase}"] = tally(rs, oracle)
    report["checks"]["traced accounting"] = accounting_ok(tload)
    report["checks"]["traced replies == untraced"] = same_replies(
        load["phases"], tload["phases"]
    )
    layers.update(wave_layers(load_spans(spans_path), tload["window"]))
    layers["trace.overhead_pct"] = 100.0 * (
        serving_e2e(tload)["p50_ms"] / e2e["p50_ms"] - 1.0
    )
    report["layers"] = layers
    return report


def same_replies(untraced: dict, traced: dict) -> tuple[bool, str]:
    """Replies for the same key must carry byte-identical recommendations."""
    first: dict = {}
    for r in itertools.chain(*untraced.values()):
        if "reply" in r:
            first.setdefault(r["key"], json.dumps(r["reply"]["recommendation"]))
    compared = differ = 0
    for r in itertools.chain(*traced.values()):
        if "reply" in r and r["key"] in first:
            compared += 1
            differ += json.dumps(r["reply"]["recommendation"]) != first[r["key"]]
    return differ == 0 and compared > 0, f"{compared} compared, {differ} differ"


# -- cold select -------------------------------------------------------------------


def spark_targets() -> list[str]:
    from repro.workloads.catalog import target_set

    return [w.name for w in target_set()]


def select_once(target: str, workdir: Path, spans: Path | None = None) -> dict:
    errlog = workdir / "select.err"
    with open(errlog, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [*program(spans), "select", target, "--json"],
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
            env=child_env(workdir),
            cwd=ROOT,
        )
        watchdog = threading.Timer(60.0, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            stdout = proc.stdout.read()
        finally:
            watchdog.cancel()
            usage = reap(proc)
            proc.stdout.close()
        wall = time.monotonic() - start
    return {
        "target": target,
        "wall_ms": wall * 1e3,
        "stdout": stdout,
        "code": proc.returncode,
        "rss_kb": usage.ru_maxrss,
        "stderr": errlog.read_text()[-2000:] if proc.returncode else "",
    }


def cold_layers(traces: list[dict]) -> dict:
    """Median over traced processes of each offline layer metric."""
    per: dict[str, list[float]] = {}
    for trace in traces:
        spans = trace["spans"]
        own = stats.self_times(spans)
        fit = next(s for s in spans if s["name"] == "VestaSelector.fit")
        online = next(s for s in spans if s["name"] == "VestaSelector.online")
        row = {
            "cold.import_ms": trace["import_ms"],
            "cold.fit_ms": (fit["end"] - fit["start"]) * 1e3,
            "campaign.cells_computed": fit["computed"],
            "cold.online_ms": (online["end"] - online["start"]) * 1e3,
            "cold.cmf_full_ms": sum(
                (s["end"] - s["start"]) * 1e3
                for s in spans
                if s["name"] == "CMF.fit" and s["root"] == online["id"]
            ),
        }
        for metric, names in STAGE_LAYERS.items():
            row[metric] = sum(
                own[s["id"]] * 1e3
                for s in spans
                if s["name"] in names and s["root"] == fit["id"]
            )
        for k, v in row.items():
            per.setdefault(k, []).append(v)
    return {k: statistics.median(v) for k, v in per.items()}


def run_cold(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from repro.core.vesta import VestaSelector
    from repro.service.wire import recommendation_to_dict
    from repro.workloads.catalog import get_workload

    targets = spark_targets()
    setups = []
    for _ in range(SETUP_FITS):
        start = time.monotonic()
        sel = VestaSelector(seed=KNOWLEDGE_SEED).fit()
        setups.append(time.monotonic() - start)
    oracle = {
        t: json.dumps(recommendation_to_dict(sel.select(get_workload(t))), indent=2) + "\n"
        for t in targets
    }
    cycles = max(1, round(seconds / len(targets)))
    order = stats.shuffled_cycles(seed, targets, cycles)
    start = time.monotonic()
    runs = [select_once(t, workdir) for t in order]
    elapsed = time.monotonic() - start
    wall = [r["wall_ms"] for r in runs]
    counts = cold_tally(runs, oracle)
    e2e = {
        "p50_ms": statistics.median(wall),
        "tail_ms": stats.tail(wall),
        "sat_rps": (counts["sent"] - counts["failed"] - counts["wrong"]) / elapsed,
        "setup_s": statistics.median(setups),
        "rss_mb": max(r["rss_kb"] for r in runs) / 1024.0,
    }
    report = {
        "e2e": e2e,
        "phases": {"select": counts},
        "checks": {},
        "notes": [f"tail_ms is p{stats.tail_percentile(len(wall)):.1f} of "
                  f"{len(wall)} processes ({cycles} cycles of {len(targets)} targets)"],
    }
    if not trace:
        return report

    traced, traces = [], []
    for i, t in enumerate(stats.shuffled_cycles(seed + 1, targets, 1)):
        spans = workdir / f"spans-{i}.json"
        traced.append(select_once(t, workdir, spans=spans))
        if traced[-1]["code"] == 0:
            traces.append(load_spans(spans))
    report["phases"]["traced select"] = counts = cold_tally(traced, oracle)
    untraced = {r["target"]: r["stdout"] for r in runs if r["code"] == 0}
    differ = sum(
        1 for r in traced if r["code"] == 0 and r["stdout"] != untraced.get(r["target"])
    )
    report["checks"]["traced stdout == untraced"] = (
        differ == 0, f"{len(traced)} compared, {differ} differ"
    )
    layers = cold_layers(traces) if traces else {}
    layers["trace.overhead_pct"] = 100.0 * (
        statistics.median([r["wall_ms"] for r in traced]) / e2e["p50_ms"] - 1.0
    )
    report["layers"] = layers
    return report


def cold_tally(runs, oracle) -> dict:
    """Processes run, failed (non-zero exit) and wrong (stdout differs)."""
    for r in runs:
        if r["code"]:
            print(f"  {r['target']} exited {r['code']}: {r['stderr']}", file=sys.stderr)
    return {
        "sent": len(runs),
        "failed": sum(1 for r in runs if r["code"] != 0),
        "wrong": sum(1 for r in runs if r["code"] == 0 and r["stdout"] != oracle[r["target"]]),
    }


# -- entry point -------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A caller may start this process with SIGINT ignored, which children
    # would inherit; `repro serve` must stop on SIGINT to report.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # On SIGTERM unwind through the finally blocks that stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        try:
            if args.workload in SERVING:
                report = run_serving(
                    args.workload, args.seed, args.seconds, bool(args.trace), workdir
                )
            else:
                report = run_cold(args.seed, args.seconds, bool(args.trace), workdir)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    return emit(args, report)


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in print order, from ``BENCHMARK.json``."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[kind]}


def emit(args, report: dict) -> int:
    end_to_end, per_layer = metric_units("end_to_end"), metric_units("per_layer")
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    for phase, c in report["phases"].items():
        ok = c["sent"] - c["failed"] - c["wrong"]
        print(f"  phase {phase:14s} sent {c['sent']:5d}  succeeded {ok:5d}"
              f"  failed {c['failed']:3d}  wrong {c['wrong']:3d}")
    attempted = sum(c["sent"] for c in report["phases"].values())
    failed = sum(c["failed"] + c["wrong"] for c in report["phases"].values())
    wrong = sum(c["wrong"] for c in report["phases"].values())
    for note in report["notes"]:
        print(f"  {note}")
    checks_ok = True
    for name, (ok, note) in report["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'} ({note})")
        checks_ok = checks_ok and ok
    print("  end to end:")
    for name, unit in end_to_end.items():
        print(f"    {name:28s} {report['e2e'][name]:14.4f} {unit}")
    if args.trace:
        layers = dict(report["layers"])
        layers["fail_ratio"] = failed / attempted
        print("  per layer (0 = layer not driven by this workload):")
        for name, unit in per_layer.items():
            layers.setdefault(name, 0.0)
            print(f"    {name:28s} {layers[name]:14.4f} {unit}")
        print(f"    absent: {ABSENT}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in per_layer.items()}
    else:
        metrics = {n: {"value": report["e2e"][n], "unit": u} for n, u in end_to_end.items()}
    result = {
        "correct": wrong == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
