"""Tests for the concurrent selection service.

Covers the selector registry (atomic, fingerprint-gated hot-reload), the
micro-batching scheduler (bit-identity to sequential serving at any
client concurrency, admission control, deadlines, version isolation
within a batch) and the HTTP frontend + client (payload equality with
library selection, typed error mapping, health/stats, one write per
reply on a no-Nagle socket, ``Content-Length`` hardening).
"""

from __future__ import annotations

import json
import queue
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cloud.vmtypes import catalog
from repro.core.persistence import (
    archive_knowledge_fingerprint,
    save_selector,
)
from repro.core.vesta import VestaSelector
from repro.errors import (
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.service import (
    MicroBatchScheduler,
    SelectionService,
    SelectorRegistry,
    ServiceClient,
    recommendation_to_dict,
)
from repro.service.server import MAX_BODY_BYTES, ServiceHTTPServer, serve
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


@pytest.fixture(scope="module")
def archive(selector, tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "knowledge.npz"
    save_selector(selector, path)
    return path


@pytest.fixture()
def registry(selector):
    reg = SelectorRegistry()
    reg.register("default", selector)
    return reg


class TestRegistry:
    def test_register_requires_fitted(self):
        reg = SelectorRegistry()
        with pytest.raises(ValidationError):
            reg.register("raw", VestaSelector(vms=VMS, sources=SOURCES))

    def test_get_unknown_name(self, registry):
        with pytest.raises(ValidationError):
            registry.get("nope")

    def test_handle_identity(self, registry, selector):
        handle = registry.get("default")
        assert handle.selector is selector
        assert handle.fingerprint == selector.knowledge_fingerprint()
        assert handle.generation == 1
        assert "default" in registry and len(registry) == 1
        described = registry.describe()["default"]
        assert described["fingerprint"] == handle.fingerprint
        assert described["vms"] == len(VMS)

    def test_reload_same_fingerprint_is_a_noop(self, registry, archive):
        before = registry.get("default")
        handle, swapped = registry.reload("default", archive)
        assert not swapped
        assert handle is before  # same snapshot, no generation bump

    def test_reload_swaps_on_fingerprint_change(self, archive, tmp_path):
        reg = SelectorRegistry()
        reg.load("default", archive)
        first = reg.get("default")
        other = _fresh_selector(k=5)
        other_path = tmp_path / "other.npz"
        save_selector(other, other_path)
        handle, swapped = reg.reload("default", other_path)
        assert swapped
        assert handle.generation == first.generation + 1
        assert handle.fingerprint != first.fingerprint
        # The old handle still serves for whoever holds it.
        assert first.selector.knowledge_fingerprint() == first.fingerprint

    def test_archive_fingerprint_peek_matches_load(self, selector, archive):
        assert (
            archive_knowledge_fingerprint(archive)
            == selector.knowledge_fingerprint()
        )

    def test_unregister(self, registry):
        registry.unregister("default")
        assert "default" not in registry
        with pytest.raises(ServiceError):
            registry.unregister("default")


def _assert_matches_reference(payload_rec, expected) -> None:
    """Bit-level equality of a served recommendation with the sequential
    reference (exact float equality, full predictions vector)."""
    assert payload_rec.vm_name == expected.vm_name
    assert payload_rec.predicted_runtime_s == expected.predicted_runtime_s
    assert payload_rec.predicted_budget_usd == expected.predicted_budget_usd
    assert payload_rec.converged == expected.converged
    assert payload_rec.predictions == expected.predictions


class TestScheduler:
    @pytest.mark.parametrize("clients", [1, 4, 16])
    def test_bit_identical_to_sequential_at_any_concurrency(
        self, registry, reference, clients
    ):
        requests = [
            (name, objective)
            for name in TARGETS
            for objective in ("time", "budget")
        ] * 2
        with MicroBatchScheduler(
            registry, max_batch=8, max_wait_ms=20.0, queue_limit=256
        ) as sched:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                responses = list(
                    pool.map(lambda r: sched.select(r[0], r[1]), requests)
                )
            stats = sched.stats()
        for (name, objective), response in zip(requests, responses):
            _assert_matches_reference(
                response.recommendation, reference[(name, objective)]
            )
            assert response.fingerprint == registry.get("default").fingerprint
        assert stats["completed"] == len(requests)
        assert stats["rejected"] == 0
        # Repeat requests are answered by the recommendation memo cache
        # (bit-identity asserted above either way); everything else must
        # have flowed through batched waves.
        hits = stats["rec_cache"]["hits"]
        assert sum(
            size_count * int(size)
            for size, size_count in stats["batch_size_histogram"].items()
        ) == len(requests) - hits
        if clients == 1:
            # Sequential submission: the second pass over the request
            # list repeats the first exactly, so every repeat must hit.
            assert hits == len(requests) // 2
        if clients > 1:
            # Concurrent clients must actually coalesce sometimes.
            assert any(
                int(size) > 1 for size in stats["batch_size_histogram"]
            )

    def test_max_batch_one_is_the_sequential_degenerate(self, registry, reference):
        with MicroBatchScheduler(registry, max_batch=1, max_wait_ms=0.0) as sched:
            for name in TARGETS[:3]:
                response = sched.select(name)
                _assert_matches_reference(
                    response.recommendation, reference[(name, "time")]
                )
                assert response.batch_size == 1

    def test_overload_rejects_explicitly(self, registry):
        sched = MicroBatchScheduler(
            registry, max_batch=4, queue_limit=3, start=False
        )
        futures = [sched.submit(TARGETS[0]) for _ in range(3)]
        with pytest.raises(ServiceOverloadedError) as excinfo:
            sched.submit(TARGETS[1])
        assert excinfo.value.queue_limit == 3
        assert sched.stats()["rejected"] == 1
        assert sched.queue_depth == 3  # bounded: rejection, not growth
        sched.start()
        for future in futures:
            assert future.result(timeout=30).recommendation.vm_name
        sched.close()

    def test_expired_deadline_completes_with_error(self, registry):
        sched = MicroBatchScheduler(registry, start=False)
        doomed = sched.submit(TARGETS[0], timeout_s=0.0)
        alive = sched.submit(TARGETS[1], timeout_s=600.0)
        sched.start()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=30)
        assert alive.result(timeout=30).recommendation.vm_name
        stats = sched.stats()
        assert stats["expired"] == 1 and stats["completed"] == 1
        sched.close()

    def test_submit_validates_before_admission(self, registry):
        with MicroBatchScheduler(registry, start=False) as sched:
            with pytest.raises(ValidationError):
                sched.submit(TARGETS[0], objective="latency")
            from repro.errors import CatalogError

            with pytest.raises(CatalogError):
                sched.submit("no-such-workload")
            assert sched.stats()["submitted"] == 0

    def test_close_fails_leftover_requests(self, registry):
        sched = MicroBatchScheduler(registry, start=False)
        future = sched.submit(TARGETS[0])
        sched.close()
        with pytest.raises(ServiceError):
            future.result(timeout=5)
        with pytest.raises(ServiceError):
            sched.submit(TARGETS[0])

    def test_latency_split_accounts_queue_and_service(self, registry):
        with MicroBatchScheduler(registry, max_wait_ms=0.0) as sched:
            response = sched.select(TARGETS[0])
        assert response.queued_ms >= 0.0
        assert response.service_ms >= 0.0


class TestHotReload:
    def test_no_version_mixing_within_a_response(
        self, archive, reference, tmp_path
    ):
        """Concurrent selects during repeated hot-reloads: every response
        comes from exactly one knowledge version and is bit-identical to
        that version's own sequential answer."""
        other = _fresh_selector(k=5)
        other_path = tmp_path / "other.npz"
        save_selector(other, other_path)

        reg = SelectorRegistry()
        reg.load("default", archive)
        fp_a = reg.get("default").fingerprint
        fp_b = other.knowledge_fingerprint()
        assert fp_a != fp_b

        # Version A is the module selector, whose sequential answers
        # the ``reference`` fixture already holds.
        by_version = {
            fp_a: {n: reference[(n, "time")] for n in TARGETS},
            fp_b: {n: other.select(get_workload(n)) for n in TARGETS},
        }

        # Reloads land at fixed points between submitted batches: each
        # batch is submitted right after its version is swapped in, and
        # the next swap waits only for that batch's first answer, so
        # the rest of the batch straddles the reload while every
        # version in the sequence is guaranteed to serve at least once.
        versions = (archive, other_path, archive, other_path)
        futures = []
        with MicroBatchScheduler(
            reg, max_batch=4, max_wait_ms=5.0, queue_limit=256
        ) as sched:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for path in versions:
                    reg.reload("default", path)
                    batch = [pool.submit(sched.select, n) for n in TARGETS]
                    batch[0].result(timeout=60)
                    futures.extend(batch)
                responses = [future.result(timeout=60) for future in futures]

        by_batch: dict[int, set[str]] = {}
        for response in responses:
            assert response.fingerprint in (fp_a, fp_b)
            expected = by_version[response.fingerprint][
                response.recommendation.workload
            ]
            _assert_matches_reference(response.recommendation, expected)
            by_batch.setdefault(response.batch_id, set()).add(
                response.fingerprint
            )
        # One knowledge version per coalesced batch, always.
        assert all(len(fps) == 1 for fps in by_batch.values())
        # Both versions actually answered requests.
        assert {response.fingerprint for response in responses} == {fp_a, fp_b}


class TestHTTPFrontend:
    @pytest.fixture(scope="class")
    def running(self, request):
        selector = _fresh_selector()
        reg = SelectorRegistry()
        reg.register("default", selector)
        service = SelectionService(reg, max_wait_ms=5.0, queue_limit=64)
        server = serve(service, port=0)
        request.addfinalizer(server.close)
        host, port = server.address
        return selector, ServiceClient(host, port)

    def test_healthz(self, running):
        _, client = running
        health = client.healthz()
        assert health["status"] == "ok"
        assert "default" in health["selectors"]

    def test_select_payload_matches_library_selection(self, running, reference):
        _, client = running
        payload = client.select(TARGETS[0])
        expected = recommendation_to_dict(reference[(TARGETS[0], "time")])
        assert payload["recommendation"] == expected
        assert payload["model"]["selector"] == "default"
        assert payload["batch"]["size"] >= 1

    def test_budget_objective_over_http(self, running, reference):
        _, client = running
        payload = client.select(TARGETS[1], "budget")
        expected = recommendation_to_dict(reference[(TARGETS[1], "budget")])
        assert payload["recommendation"] == expected

    def test_concurrent_http_clients_stay_bit_identical(self, running, reference):
        _, client = running
        names = [n for n in TARGETS for _ in range(3)]
        with ThreadPoolExecutor(max_workers=9) as pool:
            payloads = list(pool.map(client.select, names))
        for name, payload in zip(names, payloads):
            assert payload["recommendation"] == recommendation_to_dict(
                reference[(name, "time")]
            )

    def test_statsz_exposes_serving_telemetry(self, running):
        _, client = running
        client.select(TARGETS[0])
        stats = client.statsz()
        sched = stats["schedulers"]["default"]
        assert sched["completed"] >= 1
        assert sched["queue_limit"] == 64
        assert set(sched["latency"]) >= {"count", "p50_ms", "p99_ms"}

    def test_error_mapping(self, running):
        from repro.errors import CatalogError

        _, client = running
        with pytest.raises(CatalogError) as excinfo:
            client.select("no-such-workload")
        # The wire message is the bare text, not a KeyError repr.
        assert excinfo.value.args[0] == "unknown workload 'no-such-workload'"
        with pytest.raises(ValidationError):
            client.select(TARGETS[0], "latency")
        with pytest.raises(ServiceError):
            client._request("GET", "/nope")

    def test_unknown_selector_is_a_client_error(self, running):
        _, client = running
        with pytest.raises(ValidationError):
            client.select(TARGETS[0], selector="other-model")


#: Workload name the wire-test service rejects as overloaded (429).
OVERLOADED = "overloaded-sentinel"


class _OverloadedOnSentinel(SelectionService):
    """A real service that answers one sentinel workload with a 429."""

    def select(self, workload, *args, **kwargs):
        if workload == OVERLOADED:
            raise ServiceOverloadedError(1, queue_depth=1, retry_after_s=0.25)
        return super().select(workload, *args, **kwargs)


class _RecordingSocket(socket.socket):
    """An accepted connection that logs every chunk the server writes.

    A chunk is logged before it is handed to the kernel, so once the
    client has read a reply the log already holds every write of it.
    """

    def __init__(self, accepted: socket.socket) -> None:
        super().__init__(
            accepted.family, accepted.type, accepted.proto,
            fileno=accepted.detach(),
        )
        self.writes: list[bytes] = []

    def send(self, data, *flags):
        self.writes.append(bytes(data))
        return super().send(data, *flags)

    def sendall(self, data, *flags):
        self.writes.append(bytes(data))
        return super().sendall(data, *flags)


class _RecordingServer(ServiceHTTPServer):
    """The real frontend, with each accepted connection recorded."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.accepted: queue.Queue[_RecordingSocket] = queue.Queue()

    def get_request(self):
        accepted, address = super().get_request()
        conn = _RecordingSocket(accepted)
        self.accepted.put(conn)
        return conn, address


@pytest.fixture()
def wire(selector):
    """A recording frontend over the module selector, one per test."""
    reg = SelectorRegistry()
    reg.register("default", selector)
    server = _RecordingServer(_OverloadedOnSentinel(reg, max_wait_ms=0.0))
    thread = threading.Thread(
        target=server.serve_forever, args=(0.05,), daemon=True
    )
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


def _read_reply(sock: socket.socket) -> bytes:
    """One complete HTTP reply (head + ``Content-Length`` body) off ``sock``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-reply after {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    fields = dict(
        line.split(b": ", 1) for line in head.split(b"\r\n")[1:]
    )
    length = int(fields[b"Content-Length"])
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        body += chunk
    assert len(body) == length
    return head + b"\r\n\r\n" + body


def _post(body: bytes, *headers: str) -> bytes:
    lines = ["POST /select HTTP/1.1", "Host: test", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _select_body(workload: str) -> bytes:
    return json.dumps({"workload": workload}).encode()


def _post_select(workload: str) -> bytes:
    body = _select_body(workload)
    return _post(body, f"Content-Length: {len(body)}")


_GET_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


class TestWirePath:
    """Every reply leaves the server as one write on a no-Nagle socket:
    a headers write followed by a body write would wait out the
    client's delayed ACK (~40 ms) under Nagle's algorithm."""

    def test_accepted_socket_has_nagle_off(self, wire):
        with socket.create_connection(wire.address, timeout=30) as sock:
            sock.sendall(_GET_HEALTHZ)
            _read_reply(sock)
            conn = wire.accepted.get(timeout=10)
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    @pytest.mark.parametrize(
        ("raw", "status"),
        [
            (_post_select(TARGETS[0]), 200),
            (_GET_HEALTHZ, 200),
            (b"GET /nope HTTP/1.1\r\nHost: test\r\n\r\n", 404),
            (_post_select(OVERLOADED), 429),
            # http.server's own reply to a malformed request line: its
            # handler returns before the per-request flush, so only the
            # final flush sends it.
            (b"GET / extra HTTP/1.1\r\n", 400),
        ],
        ids=["select-200", "healthz-200", "404", "429", "malformed-400"],
    )
    def test_reply_is_one_write(self, wire, raw, status):
        with socket.create_connection(wire.address, timeout=30) as sock:
            sock.sendall(raw)
            reply = _read_reply(sock)
            conn = wire.accepted.get(timeout=10)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert conn.writes == [reply]
        if status == 429:
            assert b"\r\nRetry-After: 1\r\n" in reply


class TestContentLength:
    """A hostile or broken ``Content-Length`` gets a 4xx and a clean
    close, never a hung handler thread or a server-side MemoryError."""

    @pytest.mark.parametrize(
        ("declared", "status"),
        [
            ("twelve", 400),
            ("-5", 400),
            ("99999999999", 413),
            (str(MAX_BODY_BYTES + 1), 413),
        ],
    )
    def test_bad_length_is_refused_and_closed(self, wire, declared, status):
        # Only the head is sent: a server that tried to read the
        # declared body would block here instead of replying.
        with socket.create_connection(wire.address, timeout=30) as sock:
            sock.sendall(_post(b"", f"Content-Length: {declared}"))
            reply = _read_reply(sock)
            assert sock.recv(1) == b""  # clean close after the reply
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"\r\nConnection: close\r\n" in reply
        body = json.loads(reply.partition(b"\r\n\r\n")[2])
        assert body["error"] == "ValidationError"
        # The server keeps serving afterwards.
        with socket.create_connection(wire.address, timeout=30) as sock:
            sock.sendall(_GET_HEALTHZ)
            assert _read_reply(sock).startswith(b"HTTP/1.1 200 ")

    def test_largest_allowed_body_is_read(self, wire):
        body = _select_body(TARGETS[0]).ljust(MAX_BODY_BYTES)
        with socket.create_connection(wire.address, timeout=30) as sock:
            sock.sendall(_post(body, f"Content-Length: {len(body)}"))
            assert _read_reply(sock).startswith(b"HTTP/1.1 200 ")

    def test_missing_length_is_an_empty_body_on_a_live_connection(self, wire):
        with socket.create_connection(wire.address, timeout=30) as sock:
            sock.sendall(_post(b""))
            reply = _read_reply(sock)
            assert reply.startswith(b"HTTP/1.1 400 ")
            assert b"Connection: close" not in reply
            body = json.loads(reply.partition(b"\r\n\r\n")[2])
            assert body["error"] == "ValidationError"
            assert "workload" in body["message"]
            # Nothing was left unread, so the connection stays usable.
            sock.sendall(_post_select(TARGETS[0]))
            assert _read_reply(sock).startswith(b"HTTP/1.1 200 ")


class TestDurationSummary:
    def test_percentiles_over_window(self):
        summary = DurationSummary(window=100)
        for ms in range(1, 101):
            summary.record(ms / 1e3)
        assert summary.count == 100
        assert summary.percentile(50) == pytest.approx(0.0505, abs=1e-3)
        snap = summary.snapshot()
        assert snap["count"] == 100
        assert snap["max_ms"] == pytest.approx(100.0)

    def test_window_rolls(self):
        summary = DurationSummary(window=4)
        for value in (1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0):
            summary.record(value)
        assert summary.percentile(50) == pytest.approx(9.0)

    def test_empty_snapshot(self):
        assert DurationSummary().snapshot()["count"] == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            DurationSummary(window=0)
        with pytest.raises(ValidationError):
            DurationSummary().percentile(101)
