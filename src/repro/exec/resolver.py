"""The one design-point resolver: dedup, memo, cache, pool, store.

Every design point the package resolves — ``campaign run``,
``runner.simulate()``, ``runner.slowdowns()`` (behind ``slowdown()``,
``sweep()``, ``replicate()`` and the experiment drivers) and the serve
daemon — goes through one list-level pass, :meth:`Resolver.resolve_all`,
which applies, in order:

1. **dedup** — repeats within the list resolve once, and a point whose
   key is already being simulated (a daemon job asking for a key
   another job's task is running) joins that execution
   (``dedup_hits``);
2. **memo** — the per-process memo :data:`repro.sim.runner.memo`
   (``memo_hits``; off for the daemon, which keeps no results in memory);
3. **cache** — the on-disk :class:`~repro.exec.cache.ResultCache`
   (``cache_hits``/``cache_misses``); the daemon checks a hit through
   the entry's row header and never decodes the result;
4. **pool** — the misses, grouped into *tasks* (:func:`group_misses`):
   one point, or a baseline with the base-timing designs that ride its
   run (:func:`run_task`; ``riders``, and ``riders_diverged`` for those
   that dropped out and ran on their own), each simulated fresh
   (``simulated``) in a process pool, or inline where
   :class:`~repro.exec.engine.SweepEngine` has one worker or one task.
   A crashed worker (``BrokenExecutor``) rebuilds the pool and the task
   is retried with exponential backoff, at most :data:`MAX_RETRIES`
   times; a simulation that raises fails its own point at once as
   :class:`PointFailed`, since re-running it would fail the same way;
5. **store** — the result is written back to the memo and the cache.

Two callers run the pass: :meth:`SweepEngine.run
<repro.exec.engine.SweepEngine.run>`, for the CLI and ``runner``, whose
pool lives for one ``run()``, and the daemon, once per job, whose pool
lives until :meth:`Resolver.shutdown`. Cancelling a caller never
cancels an execution other callers share (``asyncio.shield``). Both
count into one :class:`ResolveMetrics`, exposed as ``exec.resolve.*``
through :meth:`Resolver.register_stats`.

``asyncio`` is imported where a loop runs, not with the module:
``campaign plan``/``stats`` import this module but never start a loop,
and the import adds ~20 ms to every CLI call.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..obs.log import get_logger
from ..obs.registry import Histogram
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
    """Run one point from scratch; return ``(result, wall_s)``."""
    start = _wall_clock()
    result = runner.run_point(point)
    return result, _wall_clock() - start


#: One point's outcome in a task: its result or the exception its
#: simulation raised, its wall time, and how it ran ("solo", "lead",
#: "rider", or "diverged": dropped from the lead's run, then run solo).
Outcome = tuple[Any, float, str]


def run_task(points: tuple, simulate: Callable[[Any], tuple[Any, float]]
             | None = None) -> list[Outcome]:
    """Simulate one task; one :data:`Outcome` per point, in task order.

    Module-level so it pickles by reference into pool workers. Workers
    never consult caches, which keeps pool results byte-for-byte those
    of a cold inline run. ``points[1:]`` ride ``points[0]``'s run
    (:func:`repro.sim.runner.run_group`); a rider that drops out, or
    every rider if the lead's run raises, runs solo afterwards. The
    group's wall time is split evenly over its points, so per-point
    wall times sum to the task's. ``simulate`` (a test seam) runs each
    point on its own instead.
    """
    if simulate is not None or len(points) == 1:
        return [_solo(simulate or simulate_point, point)
                for point in points]
    start = _wall_clock()
    try:
        results = runner.run_group(list(points))
    except Exception as error:
        results = [error] + [None] * (len(points) - 1)
    share = (_wall_clock() - start) / len(points)
    outcomes: list[Outcome] = [(results[0], share, "lead")]
    for point, result in zip(points[1:], results[1:]):
        if result is None:
            result, wall, _ = _solo(simulate_point, point)
            outcomes.append((result, share + wall, "diverged"))
        else:
            outcomes.append((result, share, "rider"))
    return outcomes


def _solo(simulate: Callable[[Any], tuple[Any, float]],
          point: Any) -> Outcome:
    try:
        result, wall = simulate(point)
    except BrokenExecutor:
        raise  # a crash, retried as one, not this point's failure
    except Exception as error:
        return error, 0.0, "solo"
    return result, wall, "solo"


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
    #: simulated on their baseline's run (diverged ones included)
    riders: int = 0
    #: riders dropped from that run and simulated again on their own
    riders_diverged: int = 0
    failed: int = 0
    worker_restarts: int = 0
    retries: int = 0
    wall_s: float = 0.0  #: time spent inside ``SweepEngine.run``
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
                f"{self.simulated} simulated ({self.riders} riders, "
                f"{self.riders_diverged} diverged) in {self.wall_s:.1f}s")


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
        Test seams: a per-point simulation that replaces the grouped
        :func:`run_task` (each point of a task runs through it on its
        own) and the pool constructor, called with the pool size
        (default a ``ProcessPoolExecutor`` of that many processes).
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
        self._simulate = simulate_fn
        self._executor_factory = executor_factory or (
            lambda n: ProcessPoolExecutor(max_workers=n))
        self._executor = None
        #: processes in the next pool built
        self._pool_size = self.workers
        self._slots: asyncio.Semaphore | None = None
        #: key -> (the execution of the task holding it, its position)
        self._inflight: dict[str, tuple[asyncio.Future, int]] = {}
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
        """Distinct points being simulated in the pool."""
        return len(self._inflight)

    def key(self, point: Any) -> str:
        """``point``'s dedup key: its cache key when there is a cache."""
        if self.cache is not None:
            return self.cache.key(point)
        return point_key(point)

    # ------------------------------------------------------------------
    # The pass
    # ------------------------------------------------------------------
    async def resolve_all(self, points: Sequence,
                          keys: Sequence[str] | None = None) -> list:
        """Resolve ``points``; one result per point, in input order.

        ``keys`` are the points' :meth:`key`, when the caller has them.
        A cache hit is what :meth:`_read` returns: here the entry's row
        (the daemon drops it and reads the entry back), in
        :class:`~repro.exec.engine.SweepEngine` the decoded result. The
        first point that fails raises :class:`PointFailed`.
        """
        import asyncio

        points = list(points)
        unique = dict(zip(points, keys)) if keys is not None else {
            point: self.key(point) for point in dict.fromkeys(points)}
        self.metrics.requested += len(points)
        self.metrics.dedup_hits += len(points) - len(unique)
        found: dict[Any, Any] = {}
        waits = []
        misses = []
        for index, (point, key) in enumerate(unique.items()):
            if key in self._inflight:
                self.metrics.dedup_hits += 1
                waits.append((index, point, *self._inflight[key]))
                continue
            result, source = self._lookup(point, key)
            if result is None:
                misses.append((index, point))
            else:
                found[point] = result
                self._report(index, point, result, source, 0.0)

        tasks = group_misses(misses)
        inline = self._runs_inline(tasks)
        for task in tasks:
            task_points = tuple(point for _, point in task)
            task_keys = tuple(unique[point] for point in task_points)
            if inline:
                outcomes = self._settle(
                    task_points, run_task(task_points, self._simulate),
                    task_keys)
                for (index, point), (result, wall) in zip(task, outcomes):
                    found[point] = result
                    self._report(index, point, result, "simulated", wall)
                continue
            execution = asyncio.ensure_future(
                self.execute(task_points, task_keys))
            execution.add_done_callback(_mark_retrieved)
            for position, (index, point) in enumerate(task):
                self._inflight[unique[point]] = (execution, position)
                waits.append((index, point, execution, position))

        async def wait(index, point, execution, position):
            # shield: cancelling this caller (a job's timeout or cancel)
            # must not kill an execution other callers may share
            result, wall = (await asyncio.shield(execution))[position]
            found[point] = result
            self._report(index, point, result, "simulated", wall)

        await asyncio.gather(*(wait(*waiting) for waiting in waits))
        return [found[point] for point in points]

    def _lookup(self, point: Any, key: str) -> tuple[Any, str]:
        """Memo, then cache: ``(result, source)``, or ``(None, "")``."""
        if self.use_memo:
            result = runner.memo.get(point)
            if result is not None:
                self.metrics.memo_hits += 1
                return result, "memo"
        if self.cache is not None:
            found = self._read(point, key)
            if found is not None:
                self.metrics.cache_hits += 1
                return found, "cache"
            self.metrics.cache_misses += 1
        return None, ""

    def _read(self, point: Any, key: str) -> Any:
        """``point``'s cache entry, or ``None``: its row, which
        :meth:`~repro.exec.cache.ResultCache.get_row` checks without
        decoding the result."""
        return self.cache.get_row(point, key)

    def _runs_inline(self, tasks: list) -> bool:
        """Whether this pass simulates ``tasks`` in this process; the
        daemon never does."""
        return False

    def _report(self, index: int, point: Any, result: Any, source: str,
                wall_s: float) -> None:
        """Hook called once per unique point as it resolves."""

    def _settle(self, task: tuple, outcomes: list[Outcome],
                keys: tuple) -> list[tuple[Any, float]]:
        """Store every point of ``task`` that simulated; then raise
        :class:`PointFailed` for the first that did not, else return
        ``(result, wall_s)`` per point."""
        failures = []
        for point, key, (result, wall, how) in zip(task, keys, outcomes):
            if how in ("rider", "diverged"):
                self.metrics.riders += 1
                self.metrics.riders_diverged += how == "diverged"
            if isinstance(result, Exception):
                self.metrics.failed += 1
                failures.append((point, result))
                continue
            self.metrics.simulated += 1
            self.metrics.point_wall_ms.observe(wall * 1000.0)
            if self.use_memo:
                runner.memo[point] = result
            if self.cache is not None:
                self.cache.put(point, result, key)
        if failures:
            point, error = failures[0]
            raise PointFailed(
                point, f"{type(error).__name__}: {error}") from error
        return [(result, wall) for result, wall, _ in outcomes]

    async def execute(self, task: tuple, keys: tuple
                      ) -> list[tuple[Any, float]]:
        """Simulate ``task`` in the pool, then store its points.

        ``keys`` are the points' :meth:`key`; the pass that started the
        task holds them in flight until it ends. At most two tasks per
        worker hold a pool slot: one running and one queued behind it,
        so no worker idles while the caller stores a result. A worker
        crash fails only slot holders, and tasks still waiting for a
        slot can be cancelled before they start.
        """
        try:
            return await self._execute(task, keys)
        finally:
            for key in keys:
                self._inflight.pop(key, None)

    async def _execute(self, task: tuple, keys: tuple
                       ) -> list[tuple[Any, float]]:
        import asyncio

        if self._slots is None:
            self._slots = asyncio.Semaphore(2 * self.workers)
        loop = asyncio.get_running_loop()
        async with self._slots:
            self.running += len(task)
            try:
                attempt = 0
                while True:
                    executor = self._pool()
                    try:
                        outcomes = await loop.run_in_executor(
                            executor, run_task, task, self._simulate)
                        break
                    except BrokenExecutor as error:
                        self.metrics.worker_restarts += 1
                        self._discard(executor)
                        if attempt >= MAX_RETRIES:
                            self.metrics.failed += len(task)
                            raise PointFailed(
                                task[0], f"worker crashed {attempt + 1} "
                                         f"times ({error})") from None
                        attempt += 1
                        self.metrics.retries += 1
                        delay = RETRY_BACKOFF_S * 2 ** (attempt - 1)
                        log.warning("worker crashed on %s.%s; retry %d/%d "
                                    "in %.2fs", task[0].workload,
                                    task[0].design, attempt, MAX_RETRIES,
                                    delay)
                        await asyncio.sleep(delay)
                    except Exception as error:
                        self.metrics.failed += len(task)
                        raise PointFailed(
                            task[0], f"{type(error).__name__}: {error}"
                        ) from error
            finally:
                self.running -= len(task)
        return self._settle(task, outcomes, keys)

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
        for execution in {execution for execution, _
                          in self._inflight.values()}:
            execution.cancel()
        self._inflight.clear()
        self._slots = None
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


def _mark_retrieved(execution: asyncio.Future) -> None:
    """Retrieve a finished execution's exception, so one whose waiters
    were all cancelled does not warn at GC time; live waiters still
    observe it through their shield."""
    if not execution.cancelled():
        execution.exception()


def group_misses(misses: list[tuple[int, runner.DesignPoint]]
                 ) -> list[list[tuple[int, runner.DesignPoint]]]:
    """``(index, point)`` misses grouped into tasks, in miss order.

    A point that can ride its baseline's run
    (:func:`repro.sim.runner.rides_on`) joins that baseline's task when
    the baseline misses too; the baseline leads the task. Every other
    point is a task of its own.
    """
    missed = {point for _, point in misses}
    tasks: dict[runner.DesignPoint, list] = {}
    for index, point in misses:
        lead = runner.rides_on(point)
        tasks.setdefault(lead if lead in missed else point,
                         []).append((index, point))
    for lead, task in tasks.items():
        task.sort(key=lambda miss, lead=lead: miss[1] != lead)
    return list(tasks.values())
