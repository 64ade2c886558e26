"""The one design-point resolver: dedup, memo, cache, pool, store.

Every design point the package resolves — ``campaign run``,
``runner.simulate()``/``sweep()``, the experiment drivers and the serve
daemon — goes through :class:`Resolver`, which applies, in order:

1. **in-flight dedup** — a point already being resolved is joined, not
   started again (``dedup_hits``): repeats within one
   :meth:`SweepEngine.run <repro.exec.engine.SweepEngine.run>` list, or
   daemon jobs asking for a cache key another job is simulating;
2. **memo** — the per-process memo :data:`repro.sim.runner.memo`
   (``memo_hits``; off for the daemon, which keeps no results in memory);
3. **cache** — the on-disk :class:`~repro.exec.cache.ResultCache`
   (``cache_hits``/``cache_misses``);
4. **pool** — a fresh simulation (``simulated``), inline or in a process
   pool. A crashed worker (``BrokenExecutor``) rebuilds the pool and the
   point is retried with exponential backoff, at most
   :data:`MAX_RETRIES` times; a simulation that raises fails at once as
   :class:`PointFailed`, since re-running it would fail the same way;
5. **store** — the result is written back to the memo and the cache.

Two front-ends share that chain:

* :class:`repro.exec.engine.SweepEngine` — sync, for the CLI, the
  experiment drivers and ``runner``; its pool lives for one ``run()``;
* :meth:`Resolver.resolve` — async, for the daemon; its pool lives until
  :meth:`Resolver.shutdown`. Cancelling a caller never cancels an
  execution other callers share (``asyncio.shield``).

Both count into one :class:`ResolveMetrics`, exposed as ``exec.resolve.*``
through :meth:`Resolver.register_stats`.

``asyncio`` is imported by the methods that run a loop, not with the
module: ``campaign plan``/``stats`` and ``simulate()`` import this
module but never start a loop, and the import adds ~20 ms to every CLI
call.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable

from ..obs.log import get_logger
from ..obs.registry import Histogram
from ..obs.spans import span
from ..sim import runner
from .cache import ResultCache, default_cache_dir, point_key
from .env import env_int

if TYPE_CHECKING:
    import asyncio

log = get_logger(__name__)

#: Sentinel distinguishing "use the env-configured cache" from "no cache".
AUTO = "auto"

#: Retries of a point whose worker crashed, after the first attempt.
MAX_RETRIES = 2

#: Backoff before the first retry; doubles on each further retry.
RETRY_BACKOFF_S = 0.25

#: Bucket edges (milliseconds) of the per-point simulation histogram.
POINT_WALL_MS_BOUNDS = (10, 50, 100, 500, 1_000, 5_000, 30_000, 120_000)


def _wall_clock() -> float:
    """Wall-time meter for resolver metrics and per-point cost.

    Telemetry only: wall times feed ``exec.resolve`` stats, progress
    hooks, and log lines — never the simulation results themselves,
    which depend only on the DesignPoint.
    """
    # repro: allow(determinism) — wall-time metrics, never in results
    return time.perf_counter()


def simulate_point(point: runner.DesignPoint) -> tuple[Any, float]:
    """Run one point from scratch; return ``(result, wall_s)``.

    Module-level so it pickles by reference into pool workers. Workers
    never consult caches, which keeps pool results byte-for-byte those
    of a cold inline run.
    """
    start = _wall_clock()
    result = runner.run_point(point)
    return result, _wall_clock() - start


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS``, else ``os.cpu_count()``.

    Malformed values (non-integers, zero, negatives) raise
    :class:`~repro.exec.env.EnvKnobError` instead of being silently
    clamped.
    """
    value = env_int("REPRO_WORKERS", minimum=1)
    if value is not None:
        return value
    return os.cpu_count() or 1


class PointFailed(RuntimeError):
    """A design point could not be resolved."""

    def __init__(self, point: Any, reason: str):
        self.point = point
        self.reason = reason
        super().__init__(
            f"{getattr(point, 'workload', '?')}."
            f"{getattr(point, 'design', '?')}: {reason}")


@dataclass
class ResolveMetrics:
    """Cumulative counters of one resolver (``exec.resolve.*``)."""

    requested: int = 0  #: points asked for, repeats included
    dedup_hits: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0
    failed: int = 0
    worker_restarts: int = 0
    retries: int = 0
    wall_s: float = 0.0  #: time spent inside the sync front-end
    point_wall_ms: Histogram = field(
        default_factory=lambda: Histogram(POINT_WALL_MS_BOUNDS))

    @property
    def unique(self) -> int:
        return self.requested - self.dedup_hits

    @property
    def sim_wall_s(self) -> float:
        """Summed per-point simulation time."""
        return self.point_wall_ms.total / 1000.0

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        return (f"{self.requested} points ({self.unique} unique): "
                f"{self.memo_hits} memo + {self.cache_hits} cached + "
                f"{self.simulated} simulated in {self.wall_s:.1f}s")


class Resolver:
    """Deduplicated, cached, crash-tolerant point resolution.

    Parameters
    ----------
    workers:
        Pool size; default ``REPRO_WORKERS`` or ``os.cpu_count()``.
    cache:
        A :class:`ResultCache`, ``None`` to disable the disk layer, or
        ``"auto"`` (default) to use ``REPRO_CACHE_DIR`` when set.
    use_memo:
        Whether to consult/populate :data:`repro.sim.runner.memo`.
    simulate_fn, executor_factory:
        Test seams: the per-point simulation (default
        :func:`simulate_point`) and the pool constructor, called with
        the pool size (default a ``ProcessPoolExecutor`` of that many
        processes).
    """

    def __init__(self, workers: int | None = None,
                 cache: ResultCache | None | str = AUTO,
                 use_memo: bool = True,
                 simulate_fn: Callable[[Any], tuple[Any, float]] | None = None,
                 executor_factory: Callable[[int], Any] | None = None):
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if cache == AUTO:
            directory = default_cache_dir()
            cache = ResultCache(directory) if directory else None
        self.cache: ResultCache | None = cache
        self.use_memo = use_memo
        self.metrics = ResolveMetrics()
        self._simulate = simulate_fn or simulate_point
        self._executor_factory = executor_factory or (
            lambda n: ProcessPoolExecutor(max_workers=n))
        self._executor = None
        #: processes in the next pool built (``SweepEngine.run`` sizes
        #: it to the points that miss)
        self._pool_size = self.workers
        self._slots: asyncio.Semaphore | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        #: points holding a pool slot (running or queued in the pool)
        self.running = 0

    def register_stats(self, registry) -> None:
        """Publish ``exec.resolve.*`` and, with a cache, ``exec.cache.*``
        into an obs registry."""
        registry.register("exec.resolve", self.metrics.as_dict)
        if self.cache is not None:
            self.cache.register_stats(registry)

    @property
    def inflight(self) -> int:
        """Distinct points the async front-end is executing."""
        return len(self._inflight)

    # ------------------------------------------------------------------
    # The chain
    # ------------------------------------------------------------------
    def lookup(self, point: Any) -> tuple[Any, str]:
        """Memo, then cache: ``(result, source)``, or ``(None, "")``."""
        if self.use_memo:
            result = runner.memo.get(point)
            if result is not None:
                self.metrics.memo_hits += 1
                return result, "memo"
        if self.cache is not None:
            with span("exec.cache_lookup", workload=point.workload,
                      design=point.design):
                result = self.cache.get(point)
            if result is not None:
                self.metrics.cache_hits += 1
                if self.use_memo:
                    runner.memo[point] = result
                return result, "cache"
            self.metrics.cache_misses += 1
        return None, ""

    def _store(self, point: Any, result: Any, wall_s: float) -> None:
        self.metrics.simulated += 1
        self.metrics.point_wall_ms.observe(wall_s * 1000.0)
        if self.use_memo:
            runner.memo[point] = result
        if self.cache is not None:
            with span("exec.cache_write", workload=point.workload,
                      design=point.design):
                self.cache.put(point, result)

    def _failed(self, point: Any, error: Exception) -> PointFailed:
        self.metrics.failed += 1
        return PointFailed(point, f"{type(error).__name__}: {error}")

    def simulate_inline(self, point: Any) -> tuple[Any, float]:
        """Simulate ``point`` in this process, then store it."""
        with span("exec.simulate", workload=point.workload,
                  design=point.design):
            try:
                result, wall = self._simulate(point)
            except Exception as error:
                raise self._failed(point, error) from error
        self._store(point, result, wall)
        return result, wall

    async def execute(self, point: Any) -> tuple[Any, float]:
        """Simulate ``point`` in the pool, then store it.

        At most two points per worker hold a pool slot: one running and
        one queued behind it, so no worker idles while the caller
        stores a result. A worker crash fails only slot holders, and
        points still waiting for a slot can be cancelled before they
        start.
        """
        import asyncio

        if self._slots is None:
            self._slots = asyncio.Semaphore(2 * self.workers)
        loop = asyncio.get_running_loop()
        async with self._slots:
            self.running += 1
            try:
                attempt = 0
                while True:
                    executor = self._pool()
                    try:
                        with span("exec.simulate", workload=point.workload,
                                  design=point.design):
                            result, wall = await loop.run_in_executor(
                                executor, self._simulate, point)
                        break
                    except BrokenExecutor as error:
                        self.metrics.worker_restarts += 1
                        self._discard(executor)
                        if attempt >= MAX_RETRIES:
                            self.metrics.failed += 1
                            raise PointFailed(
                                point, f"worker crashed {attempt + 1} "
                                       f"times ({error})") from None
                        attempt += 1
                        self.metrics.retries += 1
                        delay = RETRY_BACKOFF_S * 2 ** (attempt - 1)
                        log.warning("worker crashed on %s.%s; retry %d/%d "
                                    "in %.2fs", point.workload,
                                    point.design, attempt, MAX_RETRIES,
                                    delay)
                        await asyncio.sleep(delay)
                    except Exception as error:
                        raise self._failed(point, error) from error
            finally:
                self.running -= 1
        self._store(point, result, wall)
        return result, wall

    # ------------------------------------------------------------------
    # Async front-end
    # ------------------------------------------------------------------
    async def resolve(self, point: Any) -> Any:
        """Resolve one point (in flight -> memo -> cache -> pool)."""
        import asyncio

        key = point_key(point)
        with span("exec.resolve", key=key, workload=point.workload,
                  design=point.design):
            self.metrics.requested += 1
            task = self._inflight.get(key)
            if task is not None:
                self.metrics.dedup_hits += 1
                with span("exec.dedup_wait", key=key):
                    result, _ = await asyncio.shield(task)
                return result
            result, _ = self.lookup(point)
            if result is not None:
                return result
            task = asyncio.ensure_future(self.execute(point))
            self._inflight[key] = task
            task.add_done_callback(
                lambda done, k=key: self._retire(k, done))
            # shield: cancelling THIS caller (job timeout/cancel) must not
            # kill an execution other callers may be sharing
            result, _ = await asyncio.shield(task)
            return result

    def _retire(self, key: str, task: asyncio.Future) -> None:
        self._inflight.pop(key, None)
        if not task.cancelled():
            # mark the exception retrieved so an execution whose waiters
            # were all cancelled does not warn at GC time; live waiters
            # still observe it through the shield
            task.exception()

    # ------------------------------------------------------------------
    # Pool lifetime
    # ------------------------------------------------------------------
    def _pool(self):
        if self._executor is None:
            self._executor = self._executor_factory(self._pool_size)
        return self._executor

    def _discard(self, executor) -> None:
        """Drop a broken pool, unless a retry already replaced it.

        Work other points still have in it is left alone: it either
        finishes or fails with ``BrokenExecutor`` and retries itself.
        """
        if self._executor is executor:
            self._executor = None
            executor.shutdown(wait=False)

    def shutdown(self, wait: bool = True) -> None:
        """Cancel in-flight executions and stop the pool.

        Queued pool work is always cancelled; ``wait`` blocks until the
        points already running in workers finish.
        """
        for task in list(self._inflight.values()):
            task.cancel()
        self._inflight.clear()
        self._slots = None
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)
