"""Tests for the sharded serving tier and the scheduler's backpressure.

Covers the shard router (workload-identity routing, multi-shard
bit-identity to sequential serving at mixed concurrency, hot-reload
version isolation, the process-pool backend over memmap bundles), the
scheduler's deadline enforcement at both ends of a wave, deadline-based
load-shedding under overload, the 429 retry hint on the wire, and the
thread safety of :class:`DurationSummary`.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cloud.vmtypes import catalog
from repro.core.persistence import save_selector
from repro.core.vesta import Recommendation, VestaSelector
from repro.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
)
from repro.service import (
    MicroBatchScheduler,
    SelectionService,
    SelectorRegistry,
    ServiceClient,
    ShardRouter,
)
from repro.service.server import serve
from repro.service.shards import shard_for
from repro.telemetry.latency import DurationSummary
from repro.workloads.catalog import get_workload, target_set, training_set

SEED = 7
VMS = catalog()[:10]
SOURCES = training_set()[:5]
TARGETS = tuple(w.name for w in target_set()[:6])


def _fresh_selector(**kwargs) -> VestaSelector:
    return VestaSelector(vms=VMS, sources=SOURCES, seed=SEED, **kwargs).fit()


@pytest.fixture(scope="module")
def selector():
    return _fresh_selector()


@pytest.fixture(scope="module")
def reference():
    """Sequential ground truth: a twin selector serving one at a time."""
    ref = _fresh_selector()
    return {
        (name, objective): ref.select(get_workload(name), objective)
        for name in TARGETS
        for objective in ("time", "budget")
    }


@pytest.fixture()
def registry(selector):
    reg = SelectorRegistry()
    reg.register("default", selector)
    return reg


def _assert_matches_reference(payload_rec, expected) -> None:
    """Bit-level equality of a served recommendation with the sequential
    reference (exact float equality, full predictions vector)."""
    assert payload_rec.vm_name == expected.vm_name
    assert payload_rec.predicted_runtime_s == expected.predicted_runtime_s
    assert payload_rec.predicted_budget_usd == expected.predicted_budget_usd
    assert payload_rec.converged == expected.converged
    assert payload_rec.predictions == expected.predictions


class TestShardRouting:
    def test_shard_for_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for name in TARGETS:
                index = shard_for(name, shards)
                assert 0 <= index < shards
                assert index == shard_for(name, shards)  # deterministic

    def test_responses_come_from_the_routed_shard(self, registry, reference):
        with ShardRouter(registry, shards=4, max_wait_ms=1.0) as router:
            for name in TARGETS:
                response = router.select(name)
                assert response.shard == router.shard_for(name)
                _assert_matches_reference(
                    response.recommendation, reference[(name, "time")]
                )

    def test_single_shard_serves_the_live_handle(self, registry, selector):
        # K=1 inline is the unsharded scheduler: no replica indirection.
        with ShardRouter(registry, shards=1, max_wait_ms=1.0) as router:
            handle = router.shards[0].registry.get("default")
            assert handle.selector is selector


class TestShardBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("clients", [1, 8])
    def test_stream_equals_sequential(
        self, registry, reference, shards, clients
    ):
        requests = [
            (name, objective)
            for name in TARGETS
            for objective in ("time", "budget")
        ] * 2
        with ShardRouter(
            registry, shards=shards, max_batch=8, max_wait_ms=5.0,
            queue_limit=256,
        ) as router:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                responses = list(
                    pool.map(lambda r: router.select(*r), requests)
                )
            stats = router.stats()
        for (name, objective), response in zip(requests, responses):
            _assert_matches_reference(
                response.recommendation, reference[(name, objective)]
            )
            assert response.fingerprint == registry.get("default").fingerprint
        assert stats["completed"] == len(requests)
        assert stats["rejected"] == 0 and stats["shed"] == 0
        assert stats["latency"]["count"] == len(requests)
        assert len(stats["per_shard"]) == shards
        served_shards = {response.shard for response in responses}
        assert served_shards == {
            shard_for(name, shards) for name, _ in requests
        }

    def test_pool_backend_equals_sequential(self, registry, reference):
        requests = [(name, "time") for name in TARGETS]
        with ShardRouter(
            registry, shards=2, pool=True, max_batch=4, max_wait_ms=2.0
        ) as router:
            responses = router.select_all([name for name, _ in requests])
            # A second pass hits the workers' cached replicas.
            repeat = router.select_all([name for name, _ in requests])
            stats = router.stats()
        for (name, objective), response in zip(requests, responses):
            _assert_matches_reference(
                response.recommendation, reference[(name, objective)]
            )
        for (name, objective), response in zip(requests, repeat):
            _assert_matches_reference(
                response.recommendation, reference[(name, objective)]
            )
        assert stats["pool"] is True
        for row in stats["per_shard"]:
            assert row["backend"]["name"] == "pool"


class TestShardHotReload:
    def test_no_version_mixing_mid_stream(self, selector, reference, tmp_path):
        """Concurrent selects through 2 shards during repeated
        hot-reloads: every response comes from exactly one knowledge
        version and matches that version's own sequential answer."""
        other = _fresh_selector(k=5)
        archive_a = tmp_path / "a.npz"
        archive_b = tmp_path / "b.npz"
        save_selector(selector, archive_a)
        save_selector(other, archive_b)

        reg = SelectorRegistry()
        reg.load("default", archive_a)
        fp_a = reg.get("default").fingerprint
        fp_b = other.knowledge_fingerprint()
        assert fp_a != fp_b

        # Version A is the module selector, whose sequential answers
        # the ``reference`` fixture already holds.
        by_version = {
            fp_a: {n: reference[(n, "time")] for n in TARGETS},
            fp_b: {n: other.select(get_workload(n)) for n in TARGETS},
        }

        # Reloads at fixed points between submitted batches; the next
        # swap waits only for the batch's first answer, so the rest
        # straddles it while every version is sure to serve (see the
        # single-scheduler twin in test_service.py).
        versions = (archive_a, archive_b, archive_a, archive_b)
        futures = []
        with ShardRouter(
            reg, shards=2, max_batch=4, max_wait_ms=5.0, queue_limit=256
        ) as router:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for path in versions:
                    reg.reload("default", path)
                    batch = [pool.submit(router.select, n) for n in TARGETS]
                    batch[0].result(timeout=60)
                    futures.extend(batch)
                responses = [future.result(timeout=60) for future in futures]

        by_batch: dict[tuple[int, int], set[str]] = {}
        for response in responses:
            assert response.fingerprint in (fp_a, fp_b)
            expected = by_version[response.fingerprint][
                response.recommendation.workload
            ]
            _assert_matches_reference(response.recommendation, expected)
            by_batch.setdefault(
                (response.shard, response.batch_id), set()
            ).add(response.fingerprint)
        # One knowledge version per coalesced batch, on every shard.
        assert all(len(fps) == 1 for fps in by_batch.values())
        # Both versions actually answered requests.
        assert {response.fingerprint for response in responses} == {fp_a, fp_b}


def _fake_recommendation(name: str, objective: str = "time") -> Recommendation:
    return Recommendation(
        workload=name,
        objective=objective,
        vm_name="stub-vm",
        predicted_runtime_s=1.0,
        predicted_budget_usd=2.0,
        reference_vm_count=1,
        converged=True,
        predictions={"stub-vm": 1.0},
    )


class _StubSelector:
    """Selector double whose waves take a configurable time.

    ``entered`` is set when a wave starts (tests sequence on it) and
    ``gate``, when given, blocks the wave until released.
    """

    def __init__(self, delay_s: float = 0.0, gate: threading.Event | None = None):
        self.delay_s = delay_s
        self.gate = gate
        self.entered = threading.Event()

    def online_many(self, specs):
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if self.delay_s:
            time.sleep(self.delay_s)
        return [
            SimpleNamespace(
                recommend=lambda objective, name=s.name: _fake_recommendation(
                    name, objective
                )
            )
            for s in specs
        ]


def _stub_registry(selector) -> SimpleNamespace:
    handle = SimpleNamespace(
        name="default",
        selector=selector,
        fingerprint="stub-fingerprint",
        generation=1,
        registered_at=0.0,
    )
    return SimpleNamespace(
        get=lambda name: handle,
        describe=lambda: {"default": {"fingerprint": handle.fingerprint}},
        names=lambda: ("default",),
    )


class TestDeadlineEnforcement:
    def test_deadline_lapsing_during_the_wave_returns_error(self):
        """A request whose deadline lapses *during* batch execution must
        get DeadlineExceededError, not the stale (too late) answer."""
        registry = _stub_registry(_StubSelector(delay_s=0.3))
        spec = get_workload(TARGETS[0])
        with MicroBatchScheduler(
            registry, max_batch=4, max_wait_ms=1.0, queue_limit=8
        ) as sched:
            doomed = sched.submit(spec, timeout_s=0.05)
            fine = sched.submit(spec)
            with pytest.raises(DeadlineExceededError) as excinfo:
                doomed.result(timeout=10)
            assert excinfo.value.stage == "served"
            assert excinfo.value.waited_s >= 0.05
            # The co-traveller without a deadline still gets its answer.
            assert fine.result(timeout=10).recommendation.vm_name == "stub-vm"
            stats = sched.stats()
        assert stats["expired"] == 1
        assert stats["completed"] == 1

    def test_overload_sheds_doomed_queued_requests_first(self, registry):
        spec = get_workload(TARGETS[0])
        sched = MicroBatchScheduler(
            registry, max_batch=1, queue_limit=2, start=False
        )
        doomed = [sched.submit(spec, timeout_s=0.0) for _ in range(2)]
        time.sleep(0.01)  # let the zero deadlines lapse
        # Queue is full, but both queued requests are past their
        # deadline: shedding frees their slots and this one is admitted.
        admitted = sched.submit(spec)
        for future in doomed:
            with pytest.raises(DeadlineExceededError) as excinfo:
                future.result(timeout=1)
            assert excinfo.value.stage == "shed"
        assert not admitted.done()
        stats = sched.stats()
        assert stats["shed"] == 2
        assert stats["rejected"] == 0
        assert stats["queue_depth"] == 1
        sched.close()

    def test_unmeetable_incoming_deadline_is_shed_not_queued(self, registry):
        spec = get_workload(TARGETS[0])
        sched = MicroBatchScheduler(
            registry, max_batch=1, queue_limit=2, start=False
        )
        for _ in range(2):
            sched.submit(spec)  # no deadlines: nothing is sheddable
        with sched._stats_lock:
            sched._service_ewma_s = 5.0  # measured: ~5s per wave
        # Two waves ahead at ~5s each can never make a 100ms deadline.
        with pytest.raises(DeadlineExceededError) as excinfo:
            sched.submit(spec, timeout_s=0.1)
        assert excinfo.value.stage == "shed"
        assert sched.stats()["shed"] == 1
        sched.close()

    def test_overload_rejection_carries_queue_context(self, registry):
        spec = get_workload(TARGETS[0])
        sched = MicroBatchScheduler(
            registry, max_batch=1, queue_limit=2, start=False
        )
        for _ in range(2):
            sched.submit(spec)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            sched.submit(spec)  # no deadline: nothing to shed, reject
        assert excinfo.value.queue_limit == 2
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.retry_after_s > 0
        sched.close()


class TestRetryAfterOnTheWire:
    @pytest.fixture()
    def overloaded(self, request):
        """A served stub whose single worker is parked mid-wave and whose
        queue (limit 1) is full — the next request must get a 429."""
        gate = threading.Event()
        stub = _StubSelector(gate=gate)
        service = SelectionService(
            _stub_registry(stub), max_batch=1, max_wait_ms=0.0, queue_limit=1
        )
        server = serve(service, port=0)
        request.addfinalizer(server.close)
        request.addfinalizer(gate.set)
        host, port = server.address
        client = ServiceClient(host, port)
        pool = ThreadPoolExecutor(max_workers=2)
        request.addfinalizer(lambda: pool.shutdown(wait=False))
        in_flight = [pool.submit(client.select, TARGETS[0])]
        assert stub.entered.wait(timeout=10)  # worker parked on wave 1
        in_flight.append(pool.submit(client.select, TARGETS[0]))
        sched = service.scheduler()
        deadline = time.monotonic() + 10
        while sched.queue_depth < 1:  # request 2 occupies the queue
            assert time.monotonic() < deadline
            time.sleep(0.005)
        return SimpleNamespace(
            host=host, port=port, client=client, gate=gate,
            in_flight=in_flight,
        )

    def test_429_body_and_header(self, overloaded):
        conn = HTTPConnection(overloaded.host, overloaded.port, timeout=10)
        try:
            conn.request(
                "POST", "/select",
                body=json.dumps({"workload": TARGETS[0]}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read().decode())
        finally:
            conn.close()
        assert response.status == 429
        assert int(response.getheader("Retry-After")) >= 1
        assert body["error"] == "ServiceOverloadedError"
        assert body["queue_limit"] == 1
        assert body["queue_depth"] == 1
        assert body["retry_after_s"] > 0

    def test_client_rebuilds_typed_overload_error(self, overloaded):
        with pytest.raises(ServiceOverloadedError) as excinfo:
            overloaded.client.select(TARGETS[0])
        assert excinfo.value.queue_limit == 1
        assert excinfo.value.queue_depth == 1
        assert excinfo.value.retry_after_s > 0
        overloaded.gate.set()
        for future in overloaded.in_flight:
            payload = future.result(timeout=10)
            assert payload["recommendation"]["vm_name"] == "stub-vm"
            assert "shard" in payload["batch"]


class TestDurationSummaryConcurrency:
    def test_concurrent_recording_loses_nothing(self):
        """Regression: unlocked ``record`` raced ``snapshot`` — a reader
        mid-wrap could mix a fresh sample into the stale tail, and
        concurrent writers could lose count increments."""
        summary = DurationSummary(window=64)
        writers, per_writer = 4, 5000
        failures: list[dict] = []
        done = threading.Event()

        def write():
            for _ in range(per_writer):
                summary.record(1.0)

        def read():
            while not done.is_set():
                snap = summary.snapshot()
                # Every recorded sample is 1.0: any other value in a
                # snapshot means it saw a slot the count didn't cover.
                if snap["count"] and snap["mean_ms"] != 1000.0:
                    failures.append(snap)

        threads = [threading.Thread(target=write) for _ in range(writers)]
        reader = threading.Thread(target=read)
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done.set()
        reader.join()
        assert not failures
        assert summary.count == writers * per_writer
        assert summary.snapshot()["count"] == writers * per_writer

    def test_aggregate_merges_windows(self):
        a, b = DurationSummary(), DurationSummary()
        for value in (0.010, 0.020, 0.030):
            a.record(value)
        b.record(0.100)
        merged = DurationSummary.aggregate([a, b])
        union = np.array([0.010, 0.020, 0.030, 0.100])
        assert merged["count"] == 4
        assert merged["max_ms"] == 100.0
        assert merged["p50_ms"] == round(float(np.percentile(union, 50)) * 1e3, 3)
        assert merged["p99_ms"] == round(float(np.percentile(union, 99)) * 1e3, 3)

    def test_aggregate_of_empty_summaries(self):
        assert DurationSummary.aggregate([DurationSummary()])["count"] == 0
