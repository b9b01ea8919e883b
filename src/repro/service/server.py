"""Backpressure-aware HTTP frontend for the selection service.

Stdlib only: a :class:`~http.server.ThreadingHTTPServer` whose handler
threads do no selection work themselves — they validate, enqueue into
the micro-batching scheduler, and block on the response future.  All
model compute happens on the scheduler's single worker thread, so
client concurrency at the HTTP layer translates into coalesced batches,
never into concurrent selector access.

Endpoints
---------
``POST /select``
    Body ``{"workload": ..., "objective": "time"|"budget",``
    ``"selector": ..., "timeout_s": ...}`` (only ``workload``
    required).  200 with the :mod:`~repro.service.wire` response
    payload; 400 bad input, 404 unknown selector/workload, 429
    overloaded (queue full after load-shedding — the response carries a
    ``Retry-After`` header and queue context in the body, derived from
    the scheduler's observed batch service time), 504 deadline
    exceeded.
``GET /healthz``
    200 ``{"status": "ok", "selectors": {...}}`` once at least one
    selector is registered, 503 before.
``GET /statsz``
    Queue depth, batch-size histogram, p50/p99 service latency per
    scheduler (see :meth:`MicroBatchScheduler.stats`).

A ``POST`` body must declare a plain decimal ``Content-Length``
(400 otherwise) of at most :data:`MAX_BODY_BYTES` (413 otherwise, the
body left unread); both replies close the connection, since the stream
can no longer be framed.

Wire behaviour
--------------
Each reply leaves the server as one buffered write on a ``TCP_NODELAY``
socket: the status line, headers and body collect in the handler's
``wfile`` and ``http.server`` flushes them once per request (replies
larger than the 8 KiB write buffer go out as two sends, neither held
back).  The stdlib default is an unbuffered ``wfile`` with Nagle's
algorithm on, which sends the headers and the body as two small
segments; Nagle holds the second until the first is acknowledged, and
the keep-alive client delays that ACK by ~40 ms, so every request paid
a 40 ms floor.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    CatalogError,
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.service.learning import (
    DEFAULT_JOURNAL_LIMIT,
    LearningLoop,
    SessionJournal,
    learning_enabled,
)
from repro.service.registry import SelectorRegistry
from repro.service.scheduler import MicroBatchScheduler, SelectResponse
from repro.service.shards import ShardRouter
from repro.service.wire import canonical_request, error_to_dict, response_to_dict
from repro.telemetry.store import MetricsStore

__all__ = ["SelectionService", "ServiceHTTPServer", "serve"]


class SelectionService:
    """Registry + one scheduler (or shard router) per served selector.

    The composition root of the serving subsystem: owns scheduler
    lifecycle (created lazily per registered name, torn down on
    :meth:`close`) and translates requests into scheduler submissions.
    With ``shards > 1`` or ``pool=True`` each name is served by a
    :class:`~repro.service.shards.ShardRouter` instead of a single
    :class:`MicroBatchScheduler`; the two expose the same surface, so
    nothing downstream changes (``queue_limit`` etc. become per-shard).
    """

    def __init__(
        self,
        registry: SelectorRegistry,
        *,
        default_selector: str = "default",
        max_batch: int = 16,
        max_wait_ms: float = 2.0,
        queue_limit: int = 128,
        shards: int = 1,
        pool: bool = False,
        bundle_root: str | None = None,
        rec_cache_size: int = 512,
        learn: bool = False,
        learn_store: MetricsStore | str | None = None,
        learn_interval_s: float = 5.0,
        learn_journal_limit: int | None = DEFAULT_JOURNAL_LIMIT,
        learn_min_observations: int = 3,
        learn_min_holdouts: int = 1,
    ) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        if learn and pool:
            # Pool-backend sessions live (and die) in the worker
            # process; nothing journallable ever crosses back, so
            # learn+pool would silently learn nothing.  Refuse loudly.
            raise ValidationError(
                "learning requires inline serving: --pool sessions cannot "
                "be journalled"
            )
        self.registry = registry
        self.default_selector = default_selector
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.queue_limit = queue_limit
        self.shards = shards
        self.pool = pool
        self.bundle_root = bundle_root
        self.rec_cache_size = rec_cache_size
        self._lock = threading.Lock()
        self._schedulers: dict[str, MicroBatchScheduler | ShardRouter] = {}
        self._closed = False
        # ``REPRO_LEARN=0`` vetoes --learn: with learning off (either
        # way) no journal hook exists and serving is byte-identical to a
        # learning-free build.
        self.learn = bool(learn) and learning_enabled()
        self._journal: SessionJournal | None = None
        self._learning: LearningLoop | None = None
        self._owned_store: MetricsStore | None = None
        if self.learn:
            if learn_store is None or isinstance(learn_store, str):
                store = MetricsStore(learn_store or ":memory:")
                self._owned_store = store
            else:
                store = learn_store
            self._journal = SessionJournal(store, limit=learn_journal_limit)
            self._learning = LearningLoop(
                registry,
                self._journal,
                selector=default_selector,
                interval_s=learn_interval_s,
                min_observations=learn_min_observations,
                min_holdouts=learn_min_holdouts,
            )

    def _build(self, name: str) -> MicroBatchScheduler | ShardRouter:
        if self.shards == 1 and not self.pool:
            return MicroBatchScheduler(
                self.registry,
                name,
                max_batch=self.max_batch,
                max_wait_ms=self.max_wait_ms,
                queue_limit=self.queue_limit,
                rec_cache_size=self.rec_cache_size,
                journal=self._journal,
            )
        return ShardRouter(
            self.registry,
            name,
            shards=self.shards,
            pool=self.pool,
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
            queue_limit=self.queue_limit,
            bundle_root=self.bundle_root,
            rec_cache_size=self.rec_cache_size,
            journal=self._journal,
        )

    def scheduler(self, name: str | None = None) -> MicroBatchScheduler | ShardRouter:
        """The scheduler serving ``name`` (created on first use)."""
        name = name or self.default_selector
        self.registry.get(name)  # unknown selector fails before a scheduler exists
        with self._lock:
            if self._closed:
                raise ServiceError("selection service is shut down")
            sched = self._schedulers.get(name)
            if sched is None:
                sched = self._build(name)
                self._schedulers[name] = sched
            return sched

    def select(
        self,
        workload: str,
        objective: str = "time",
        *,
        selector: str | None = None,
        timeout_s: float | None = None,
    ) -> SelectResponse:
        """Serve one selection through the named scheduler (blocking)."""
        return self.scheduler(selector).select(
            workload, objective, timeout_s=timeout_s
        )

    def health(self) -> dict:
        selectors = self.registry.describe()
        return {
            "status": "ok" if selectors else "empty",
            "selectors": selectors,
        }

    def stats(self) -> dict:
        with self._lock:
            schedulers = dict(self._schedulers)
        described = self.registry.describe()
        return {
            "selectors": self.registry.names(),
            "catalogs": {
                name: {
                    "catalog": info["catalog"],
                    "catalog_fingerprint": info["catalog_fingerprint"],
                }
                for name, info in described.items()
            },
            "schedulers": {name: s.stats() for name, s in schedulers.items()},
            # Fleet-wide lifecycle counters: one journal and one
            # promoter serve every shard, so no per-shard summing is
            # needed here — the counters are already fleet totals.
            "learning": (
                self._learning.stats()
                if self._learning is not None
                else {"enabled": False}
            ),
        }

    def close(self) -> None:
        with self._lock:
            self._closed = True
            schedulers = list(self._schedulers.values())
            self._schedulers.clear()
        for sched in schedulers:
            sched.close()
        if self._learning is not None:
            self._learning.close()
        if self._owned_store is not None:
            self._owned_store.close()

    def __enter__(self) -> "SelectionService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: HTTP status per error type; anything else is a 500.
_STATUS = (
    (ServiceOverloadedError, 429),
    (DeadlineExceededError, 504),
    (CatalogError, 404),
    (ValidationError, 400),
    (ServiceError, 500),
    (ReproError, 500),
)


#: Largest ``POST`` body read.  A request is a few short fields, so a
#: larger declared length is refused with 413 before any of it is read.
MAX_BODY_BYTES = 64 * 1024


def _status_for(exc: BaseException) -> int:
    for etype, status in _STATUS:
        if isinstance(exc, etype):
            return status
    return 500


class _Handler(BaseHTTPRequestHandler):
    server: "ServiceHTTPServer"

    #: Pin the protocol so clients may reuse connections.
    protocol_version = "HTTP/1.1"
    #: Buffer each reply and flush it once, on a no-Nagle socket: one
    #: write per response instead of a headers segment and a body
    #: segment that waits out the client's delayed ACK (see the module
    #: docstring).  The stdlib pairs these two settings.
    wbufsize = -1
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # -- plumbing ---------------------------------------------------------------

    def _reply(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _fail(
        self, status: int, exc: BaseException, *, close: bool = False
    ) -> None:
        headers = {}
        if isinstance(exc, ServiceOverloadedError) and exc.retry_after_s > 0:
            # Retry-After is delta-seconds (integer) per RFC 9110; the
            # JSON body carries the precise float for smarter clients.
            headers["Retry-After"] = str(max(1, math.ceil(exc.retry_after_s)))
        if close:
            # send_header sets close_connection on "Connection: close".
            headers["Connection"] = "close"
        self._reply(status, error_to_dict(exc), headers)

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` after replying 400/413.

        A missing ``Content-Length`` means an empty body.  Anything but
        plain decimal digits (a sign, a fraction, garbage) is a 400, and
        a length over :data:`MAX_BODY_BYTES` is a 413 sent without
        reading the body.  Either way the stream cannot be re-framed, so
        the connection closes after the reply.
        """
        declared = self.headers.get("Content-Length")
        if declared is None:
            return b""
        declared = declared.strip()
        if not (declared.isascii() and declared.isdigit()):
            self._fail(
                400,
                ValidationError(f"invalid Content-Length {declared!r}"),
                close=True,
            )
            return None
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._fail(
                413,
                ValidationError(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                ),
                close=True,
            )
            return None
        return self.rfile.read(length)

    # -- endpoints ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service = self.server.service
        if self.path == "/healthz":
            health = service.health()
            self._reply(200 if health["status"] == "ok" else 503, health)
        elif self.path == "/statsz":
            self._reply(200, service.stats())
        else:
            self._fail(404, ServiceError(f"unknown path {self.path!r}"))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        # Always drain the body: replying without reading it desyncs the
        # keep-alive stream (the leftover bytes parse as the next request).
        raw = self._read_body()
        if raw is None:
            return
        if self.path != "/select":
            self._fail(404, ServiceError(f"unknown path {self.path!r}"))
            return
        try:
            request = json.loads(raw or b"{}")
            # Canonicalize before serving: key order, omitted defaults
            # and timeout spelling never produce distinct requests.
            request = canonical_request(request)
            response = self.server.service.select(
                request["workload"],
                request["objective"],
                selector=request.get("selector"),
                timeout_s=request.get("timeout_s"),
            )
        except json.JSONDecodeError as exc:
            self._fail(400, ValidationError(f"invalid JSON body: {exc}"))
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ReproError):
                self._fail(_status_for(exc), exc)
            else:
                self._fail(400, ValidationError(str(exc)))
        except ReproError as exc:
            self._fail(_status_for(exc), exc)
        else:
            self._reply(200, response_to_dict(response))


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`SelectionService`.

    ``daemon_threads`` keeps a hung client from blocking shutdown;
    handler threads only enqueue and wait, so the thread-per-connection
    model stays cheap.
    """

    daemon_threads = True

    def __init__(
        self,
        service: SelectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> tuple[str, int]:
        """Actual (host, port) — resolves port 0 to the bound ephemeral port."""
        return self.server_address[0], self.server_address[1]

    def close(self) -> None:
        """Stop serving and shut the service down."""
        self.shutdown()
        self.server_close()
        self.service.close()


def serve(
    service: SelectionService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
    background: bool = True,
) -> ServiceHTTPServer:
    """Start an HTTP frontend for ``service``.

    With ``background=True`` (default) the accept loop runs on a daemon
    thread and the bound server is returned immediately — the pattern
    tests and embedders use.  ``background=False`` blocks in
    ``serve_forever`` until interrupted.
    """
    server = ServiceHTTPServer(service, host, port, verbose=verbose)
    if background:
        thread = threading.Thread(
            target=server.serve_forever, name="select-http", daemon=True
        )
        thread.start()
    else:
        try:
            server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            server.close()
    return server
