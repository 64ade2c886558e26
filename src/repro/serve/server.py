"""The simulation-service daemon: queue, dispatch, API, lifecycle.

One :class:`ServeServer` owns:

* a **priority queue** of journaled :class:`~repro.serve.jobs.Job`\\ s —
  higher ``priority`` dispatches first, FIFO within a priority;
* a **dispatcher** that starts up to ``max_jobs`` jobs concurrently;
  each job resolves its points through the async front-end of one
  shared :class:`~repro.exec.resolver.Resolver` (so per-point dedup,
  the result cache and crash retries work *across* jobs);
* the **JSON API** (see :mod:`repro.serve.protocol` and
  ``docs/serving.md``): ``POST /submit``, ``GET /status``,
  ``GET /result``, ``POST /cancel``, ``GET /stats``, ``GET /healthz``,
  ``POST /shutdown``;
* **lifecycle**: SIGTERM/SIGINT (or ``POST /shutdown``) starts a
  graceful drain — submissions are refused with 503, running jobs get
  ``drain_s`` seconds to finish, anything still pending stays in the
  journal and resumes when the next server starts on the same state
  directory.

State directory layout::

    <state_dir>/journal.jsonl   durable queue (see repro.serve.jobs)
    <state_dir>/cache/          result cache (unless overridden)
    <state_dir>/serve.sock      default Unix API socket
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import os
import pathlib
import signal
import time
from typing import Any, Callable

from ..exec.cache import ResultCache, default_cache_dir, point_key
from ..exec.resolver import PointFailed, Resolver
from ..exec.serialize import result_to_dict
from ..obs.exposition import CONTENT_TYPE, to_prometheus
from ..obs.log import get_logger
from ..obs.registry import StatsRegistry
from ..obs.spans import (Span, SpanTracer, install as install_spans, span,
                         uninstall as uninstall_spans)
from ..obs.timeseries import SeriesBoard
from ..sim.runner import DesignPoint
from .jobs import (CANCELLED, DONE, FAILED, QUEUED, RUNNING, Job, Journal,
                   make_job, next_job_id)
from .protocol import (ProtocolError, Request, error_bytes, parse_address,
                       read_request, response_bytes, text_bytes)

log = get_logger(__name__)

#: Bucket edges (milliseconds) of the submit-to-done job histogram.
JOB_LATENCY_MS_BOUNDS = (10, 50, 100, 500, 1_000, 5_000, 30_000, 300_000)


def default_socket(state_dir: pathlib.Path) -> str:
    return f"unix:{state_dir / 'serve.sock'}"


def _wall_s() -> float:
    """Wall clock for job lifecycle stamps (submitted/started/finished).

    Operator-facing bookkeeping only: the stamps feed ``/status``, the
    journal, and the latency histogram — never a result document or a
    cache key (``tests/serve/test_clock_independence.py`` pins this).
    """
    # repro: allow(determinism) — lifecycle stamps, never in results
    return time.time()


def _span_ns() -> int:
    """Monotonic edge for lifecycle span records (queue/submit/job)."""
    # repro: allow(determinism) — span telemetry, never in results
    return time.perf_counter_ns()


def _rate(fn: Callable[[], float], interval_s: float) -> Callable[[], float]:
    """Turn a cumulative counter reader into a per-second rate sampler."""
    last: list[float | None] = [None]

    def sample() -> float:
        value = fn()
        previous, last[0] = last[0], value
        if previous is None:
            return 0.0
        return (value - previous) / interval_s
    return sample


def _key_summary(job: Job, limit: int = 3) -> str:
    """First few cache keys of a job's points, for log lines.

    Keys are truncated to 12 hex characters — enough to grep the full
    key out of ``/spans`` or the cache directory, short enough to keep
    multi-point lifecycle lines readable.
    """
    keys = [point_key(point)[:12] for point in job.points[:limit]]
    extra = len(job.points) - len(keys)
    summary = ",".join(keys)
    return f"{summary}+{extra}" if extra > 0 else summary


class ServeServer:
    """Long-running simulation service over a local socket."""

    def __init__(self, state_dir: str | pathlib.Path,
                 address: str | None = None,
                 workers: int | None = None,
                 max_jobs: int = 4,
                 drain_s: float = 5.0,
                 cache_dir: str | pathlib.Path | None = None,
                 cache: Any = "auto",
                 simulate_fn: Callable[[Any], tuple[Any, float]] | None = None,
                 executor_factory: Callable[[int], Any] | None = None,
                 encoder: Callable[[Any], dict] = result_to_dict,
                 metrics_interval_s: float = 1.0):
        self.state_dir = pathlib.Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.address = address or default_socket(self.state_dir)
        self.kind, self.target = parse_address(self.address)
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        self.max_jobs = max_jobs
        self.drain_s = drain_s
        self.encoder = encoder
        self.journal_path = self.state_dir / "journal.jsonl"

        if cache == "auto":
            if cache_dir is None:
                cache_dir = default_cache_dir() or self.state_dir / "cache"
            cache = ResultCache(cache_dir)
        self.cache = cache

        self.registry = StatsRegistry()
        # no memo: the daemon keeps results in the cache, not in memory
        self.resolver = Resolver(workers=workers, cache=self.cache,
                                 use_memo=False, simulate_fn=simulate_fn,
                                 executor_factory=executor_factory)
        self.resolver.register_stats(self.registry)
        self.registry.register("serve.pool", lambda: {
            "inflight_points": self.resolver.inflight,
            "running_points": self.resolver.running,
            "workers": self.resolver.workers,
        })
        self._c_submitted = self.registry.counter("serve.jobs_submitted")
        self._c_resumed = self.registry.counter("serve.jobs_resumed")
        self._c_completed = self.registry.counter("serve.jobs_completed")
        self._c_failed = self.registry.counter("serve.jobs_failed")
        self._c_cancelled = self.registry.counter("serve.jobs_cancelled")
        self._c_rejected = self.registry.counter("serve.jobs_rejected")
        self._h_latency = self.registry.histogram("serve.job_latency_ms",
                                                  JOB_LATENCY_MS_BOUNDS)
        self.registry.register("serve", lambda: {
            "queue_depth": self.queue_depth(),
            "jobs_running": sum(1 for j in self._jobs.values()
                                if j.state == RUNNING),
            "jobs_known": len(self._jobs),
            "draining": int(self._draining),
        })

        #: wall-clock span tracer covering the whole job lifecycle;
        #: installed into the event loop's context by :meth:`run`
        self.spans = SpanTracer()
        self._job_spans: dict[str, Span] = {}
        self._queued_ns: dict[str, int] = {}
        if metrics_interval_s <= 0:
            raise ValueError("metrics_interval_s must be positive")
        self.metrics_interval_s = metrics_interval_s
        self.board = SeriesBoard(interval_s=metrics_interval_s)
        self._register_series()
        self._sampler: asyncio.Task | None = None

        self._jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._tasks: dict[str, asyncio.Task] = {}
        self._counter = 1
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        self._queue_event = asyncio.Event()
        self._job_slots = asyncio.Semaphore(max_jobs)
        self._server: asyncio.AbstractServer | None = None
        self._done = asyncio.Event()
        self.journal: Journal | None = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _register_series(self) -> None:
        board = self.board
        board.register("serve.queue_depth", self.queue_depth)
        board.register("serve.jobs_running",
                       lambda: sum(1 for j in self._jobs.values()
                                   if j.state == RUNNING))
        board.register("serve.jobs_completed",
                       lambda: self._c_completed.value)
        board.register("serve.jobs_per_s",
                       _rate(lambda: self._c_completed.value,
                             self.metrics_interval_s))
        board.register("serve.job_latency_p50_ms",
                       lambda: self._h_latency.percentile(0.5))
        board.register("serve.job_latency_p99_ms",
                       lambda: self._h_latency.percentile(0.99))
        resolver, metrics = self.resolver, self.resolver.metrics
        board.register("serve.pool.inflight_points",
                       lambda: resolver.inflight)
        board.register("serve.pool.running_points",
                       lambda: resolver.running)
        for series, name in (("dedup_hits", "dedup_hits"),
                             ("cache_hits", "cache_hits"),
                             ("cache_misses", "cache_misses"),
                             ("points_simulated", "simulated")):
            board.register(f"serve.pool.{series}",
                           lambda key=name: getattr(metrics, key))
        board.register("serve.pool.cache_hit_rate", self._cache_hit_rate)
        board.register("serve.pool.points_per_s",
                       _rate(self._points_resolved,
                             self.metrics_interval_s))

    def _cache_hit_rate(self) -> float:
        metrics = self.resolver.metrics
        total = metrics.cache_hits + metrics.cache_misses
        return metrics.cache_hits / total if total else 0.0

    def _points_resolved(self) -> float:
        metrics = self.resolver.metrics
        return metrics.simulated + metrics.cache_hits + metrics.dedup_hits

    async def _sample_loop(self) -> None:
        while True:
            self.board.sample()
            await asyncio.sleep(self.metrics_interval_s)

    def _begin_job_span(self, job: Job) -> Span:
        """Root span of a job's lifecycle tree (lazy for resumed jobs)."""
        root = self._job_spans.get(job.id)
        if root is None:
            root = self.spans.begin("serve.job", job_id=job.id,
                                    points=len(job.points),
                                    priority=job.priority)
            self._job_spans[job.id] = root
        return root

    # ------------------------------------------------------------------
    # Queue
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        return sum(1 for j in self._jobs.values() if j.state == QUEUED)

    def _enqueue(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._queued_ns.setdefault(job.id, _span_ns())
        heapq.heappush(self._heap, (-job.priority, next(self._seq), job.id))
        self._queue_event.set()

    def _pop_next(self) -> Job | None:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            if job is not None and job.state == QUEUED:
                return job
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def run(self, on_ready: Callable[[], None] | None = None) -> int:
        """Serve until drained. Returns 0 on a clean shutdown."""
        # install before any task is spawned: dispatcher and job tasks
        # copy this context, so spans opened anywhere in the execution
        # path (pool, cache) attach to the server's tracer
        spans_token = install_spans(self.spans)
        pending = Journal.load(self.journal_path)
        self._counter = next_job_id([job.id for job in pending])
        Journal.compact(self.journal_path, pending)
        self.journal = Journal(self.journal_path)
        for job in pending:
            self._enqueue(job)
            self._c_resumed.inc()
        if pending:
            log.info("resumed %d journaled job(s)", len(pending))

        if self.kind == "unix":
            self._unlink_stale_socket()
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.target)
        else:
            host, port = self.target
            self._server = await asyncio.start_server(
                self._handle, host=host, port=port)
        self._install_signal_handlers()
        dispatcher = asyncio.ensure_future(self._dispatch())
        self._sampler = asyncio.ensure_future(self._sample_loop())
        log.info("serving on %s (workers=%d, max_jobs=%d, cache=%s)",
                 self.address, self.resolver.workers, self.max_jobs,
                 self.cache.directory)
        if on_ready is not None:
            on_ready()
        try:
            await self._done.wait()
        finally:
            dispatcher.cancel()
            self._sampler.cancel()
            self._remove_signal_handlers()
            uninstall_spans(spans_token)
        log.info("shut down cleanly (%d job(s) left journaled)",
                 self.queue_depth())
        return 0

    def _unlink_stale_socket(self) -> None:
        try:
            os.unlink(self.target)
        except FileNotFoundError:
            pass

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                # non-main thread (tests) or platforms without signals
                return

    def _remove_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                return

    def request_drain(self) -> None:
        """Begin a graceful shutdown (idempotent; signal-handler safe)."""
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        log.info("drain requested: refusing new jobs, waiting up to "
                 "%.1fs for %d running job(s)", self.drain_s,
                 len([t for t in self._tasks.values() if not t.done()]))
        self._draining = True
        self._queue_event.set()  # wake the dispatcher so it exits
        running = [t for t in self._tasks.values() if not t.done()]
        if running:
            _, still_pending = await asyncio.wait(running,
                                                  timeout=self.drain_s)
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.wait(still_pending, timeout=2.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.resolver.shutdown()
        if self.journal is not None:
            self.journal.close()
        if self.kind == "unix":
            self._unlink_stale_socket()
        self._done.set()

    # ------------------------------------------------------------------
    # Dispatch + job execution
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        while not self._draining:
            if not any(True for j in self._jobs.values()
                       if j.state == QUEUED):
                self._queue_event.clear()
                await self._queue_event.wait()
                continue
            await self._job_slots.acquire()
            if self._draining:
                self._job_slots.release()
                return
            job = self._pop_next()
            if job is None:
                self._job_slots.release()
                continue
            # claim synchronously: the job task may not get scheduled
            # for a while, and the loop above must not see this job as
            # still queued (it would busy-spin on an empty heap)
            job.state = RUNNING
            root = self._begin_job_span(job)
            queued_ns = self._queued_ns.pop(job.id, None)
            if queued_ns is not None:
                self.spans.record("serve.queue", queued_ns,
                                  _span_ns(),
                                  parent_id=root.span_id, job_id=job.id)
            task = asyncio.ensure_future(self._run_job(job))
            self._tasks[job.id] = task
            task.add_done_callback(
                lambda done, job_id=job.id: self._job_finished(job_id))

    def _job_finished(self, job_id: str) -> None:
        self._tasks.pop(job_id, None)
        self._job_slots.release()

    async def _run_job(self, job: Job) -> None:
        job.state = RUNNING
        job.started_s = _wall_s()
        log.info("job_id=%s: running %d point(s) (priority %d) keys=%s",
                 job.id, len(job.points), job.priority, _key_summary(job))
        try:
            # entered before gather creates the point tasks, so every
            # exec.resolve span below lands inside this job's tree
            with span("serve.execute", parent=self._begin_job_span(job),
                      job_id=job.id):
                gathered = asyncio.gather(
                    *(self.resolver.resolve(point) for point in job.points))
                if job.timeout_s is not None:
                    results = await asyncio.wait_for(gathered,
                                                     job.timeout_s)
                else:
                    results = await gathered
        except asyncio.CancelledError:
            if self._draining:
                # drain: leave the submission journaled (no terminal
                # record) so the next server resumes it
                job.state = QUEUED
                job.started_s = None
                log.info("job_id=%s: interrupted by drain; left "
                         "journaled keys=%s", job.id, _key_summary(job))
            else:
                self._finish(job, CANCELLED)
        except asyncio.TimeoutError:
            self._finish(job, FAILED,
                         f"timeout after {job.timeout_s:g}s")
        except PointFailed as error:
            self._finish(job, FAILED, str(error))
        except Exception as error:  # pragma: no cover - defensive
            log.exception("%s: unexpected failure", job.id)
            self._finish(job, FAILED,
                         f"{type(error).__name__}: {error}")
        else:
            job.results = list(results)
            self._finish(job, DONE)
            self._h_latency.observe(
                (job.finished_s - job.submitted_s) * 1000.0)

    def _finish(self, job: Job, state: str, error: str | None = None) -> None:
        job.state = state
        job.error = error
        job.finished_s = _wall_s()
        if self.journal is not None:
            self.journal.record_state(job.id, state, error)
        counter = {DONE: self._c_completed, FAILED: self._c_failed,
                   CANCELLED: self._c_cancelled}[state]
        counter.inc()
        root = self._job_spans.pop(job.id, None)
        if root is not None:
            root.attrs["state"] = state
            self.spans.end(root)
        self._queued_ns.pop(job.id, None)
        log.info("job_id=%s: %s%s keys=%s", job.id, state,
                 f" ({error})" if error else "", _key_summary(job))

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                payload = self._route(request)
            except ProtocolError as error:
                payload = error_bytes(400, str(error))
            except Exception as error:  # pragma: no cover - defensive
                log.exception("request handling failed")
                payload = error_bytes(
                    500, f"{type(error).__name__}: {error}")
            writer.write(payload)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _route(self, request: Request) -> bytes:
        method, path = request.method, request.path
        if path == "/healthz":
            return response_bytes(200, {
                "ok": True, "draining": self._draining,
                "queue_depth": self.queue_depth(),
            })
        if path == "/stats":
            return response_bytes(200, self.registry.snapshot())
        if path == "/metrics":
            return self._metrics(request)
        if path == "/spans":
            return self._spans(request)
        if path == "/status":
            return self._status(request)
        if path == "/result":
            return self._result(request)
        if method != "POST":
            return error_bytes(405, f"{method} {path} not supported")
        if path == "/submit":
            return self._submit(request.json())
        if path == "/cancel":
            return self._cancel(request.json())
        if path == "/shutdown":
            self.request_drain()
            return response_bytes(202, {"draining": True})
        return error_bytes(404, f"unknown endpoint {path}")

    def _metrics(self, request: Request) -> bytes:
        """Live metrics: Prometheus text by default, ``?format=json``
        additionally carries the sampled time-series rings."""
        fmt = request.query.get("format", "prometheus")
        snapshot = self.registry.snapshot()
        if fmt == "json":
            return response_bytes(200, {"stats": snapshot,
                                        "series": self.board.as_dict()})
        if fmt != "prometheus":
            return error_bytes(400, f"unknown metrics format {fmt!r}")
        return text_bytes(200, to_prometheus(snapshot), CONTENT_TYPE)

    def _spans(self, request: Request) -> bytes:
        name = request.query.get("name")
        records = self.spans.spans(name)
        return response_bytes(200, {
            "dropped": self.spans.dropped,
            "spans": [record.as_dict() for record in records],
        })

    def _submit(self, body: Any) -> bytes:
        if self._draining:
            self._c_rejected.inc()
            return error_bytes(503, "server is draining")
        if not isinstance(body, dict):
            raise ProtocolError("submit body must be a JSON object")
        raw_points = body.get("points")
        if not isinstance(raw_points, list) or not raw_points:
            raise ProtocolError("'points' must be a non-empty list")
        try:
            points = [DesignPoint(**fields) for fields in raw_points]
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"bad design point: {error}") from None
        priority = body.get("priority", 0)
        timeout_s = body.get("timeout_s")
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ProtocolError("'priority' must be an integer")
        if timeout_s is not None and (
                not isinstance(timeout_s, (int, float))
                or isinstance(timeout_s, bool) or timeout_s <= 0):
            raise ProtocolError("'timeout_s' must be a positive number")

        job = make_job(self._counter, points, priority=priority,
                       timeout_s=timeout_s)
        self._counter += 1
        root = self._begin_job_span(job)
        submit_ns = _span_ns()
        # durable before the client learns the id: a crash after this
        # line re-runs the job, never loses it
        self.journal.record_submit(job)
        self._enqueue(job)
        self.spans.record("serve.submit", submit_ns,
                          _span_ns(),
                          parent_id=root.span_id, job_id=job.id)
        self._c_submitted.inc()
        log.info("job_id=%s: accepted %d point(s) (priority %d) keys=%s",
                 job.id, len(points), priority, _key_summary(job))
        return response_bytes(200, job.public())

    def _status(self, request: Request) -> bytes:
        job_id = request.query.get("id")
        if job_id is None:
            summary = [job.public() for job in self._jobs.values()]
            summary.sort(key=lambda doc: doc["id"])
            return response_bytes(200, {"jobs": summary})
        job = self._jobs.get(job_id)
        if job is None:
            return error_bytes(404, f"unknown job {job_id!r}")
        return response_bytes(200, job.public())

    def _result(self, request: Request) -> bytes:
        job_id = request.query.get("id")
        if job_id is None:
            raise ProtocolError("missing ?id= query parameter")
        job = self._jobs.get(job_id)
        if job is None:
            return error_bytes(404, f"unknown job {job_id!r}")
        if job.state != DONE:
            doc = job.public()
            doc["error"] = job.error or f"job is {job.state}, not done"
            return response_bytes(409, doc)
        return response_bytes(200, {
            "id": job.id,
            "state": job.state,
            "results": [self.encoder(result) for result in job.results],
        })

    def _cancel(self, body: Any) -> bytes:
        if not isinstance(body, dict) or "id" not in body:
            raise ProtocolError("cancel body must be {\"id\": ...}")
        job_id = str(body["id"])
        job = self._jobs.get(job_id)
        if job is None:
            return error_bytes(404, f"unknown job {job_id!r}")
        if job.state == QUEUED:
            self._finish(job, CANCELLED, "cancelled while queued")
        elif job.state == RUNNING:
            task = self._tasks.get(job_id)
            if task is not None:
                task.cancel()
        return response_bytes(200, job.public())
