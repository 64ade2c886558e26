"""Experiment runner: named configurations, weighted speedup, caching.

This is the layer the benchmarks and examples talk to. A *design point* is
``(workload, design, trh, overrides)``; :func:`simulate` builds the traces
and policies, runs the :class:`~repro.sim.system.System`, and caches the
result so a sweep reuses its baseline runs.

:func:`simulate` and :func:`sweep` resolve points through the one
resolver (:mod:`repro.exec.resolver`): the per-process :data:`memo`,
then, when ``REPRO_CACHE_DIR`` is set, the content-addressed on-disk
:class:`~repro.exec.cache.ResultCache`, so re-running a figure skips
every simulation it has already performed — in any earlier process.
:func:`sweep` fans its misses out across worker processes
(``workers=1`` keeps them inline; both give bit-identical numbers).

A point's ``design`` is any name :func:`repro.mitigations.registry.buildable`
lists (``baseline`` is unprotected DDR5). Every sub-channel's policy is
built by :func:`repro.mitigations.registry.make_policy`, with the point's
design fields as knobs; a field the design's spec does not declare
must keep its default.

Slowdown is reported as the paper does: 1 - WS(design)/WS(baseline) with
weighted speedup normalised per-core against the baseline run of the same
workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from ..config import SystemConfig
from ..mitigations import registry
from ..mitigations.base import MitigationPolicy
from ..obs.log import get_logger
from ..obs.spans import span
from ..obs.tracer import EventTracer
from ..workloads.catalog import workload_cores
from ..workloads.synthetic import TraceGenerator
from .system import System, SystemResult

log = get_logger(__name__)

DESIGNS = registry.buildable()

#: DesignPoint fields that are design knobs; a design takes the ones its
#: registry spec declares
KNOB_FIELDS = ("p", "srq_size", "drain_on_ref", "chips", "sampler",
               "abo_level", "rowpress")

#: Default experiment scale: instructions per core. The paper runs 100M;
#: slowdown ratios are stationary, so the scaled default converges to the
#: same relative numbers (see EXPERIMENTS.md for the convergence check).
DEFAULT_INSTRUCTIONS = 150_000

#: Refresh-window scale for reduced runs (keeps tREFI, shrinks tREFW).
DEFAULT_REFRESH_SCALE = 1 / 64

#: Rows per bank in reduced geometry.
DEFAULT_ROWS = 4096


@dataclass(frozen=True)
class DesignPoint:
    """A fully-specified simulation configuration."""

    workload: str
    design: str
    trh: int = 500
    instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = 0x5EED
    page_policy: str = "open"
    chips: int = 1
    srq_size: int = 16
    drain_on_ref: int | None = None
    p: float | None = None
    rows_per_bank: int = DEFAULT_ROWS
    refresh_scale: float = DEFAULT_REFRESH_SCALE
    collect_row_activity: bool = False
    #: use the Row-Press-derated ATH* parameters (Appendix A)
    rowpress: bool = False
    #: MoPAC-D selection mechanism: "mint" (paper) or "para" (footnote 6)
    sampler: str = "mint"
    #: JEDEC ABO mitigation level: RFMs per ALERT (paper: 1)
    abo_level: int = 1
    #: REF style: "all-bank" (paper) or "same-bank" (DDR5 REFsb)
    refresh_mode: str = "all-bank"

    def __post_init__(self) -> None:
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}; "
                             f"choose from {DESIGNS}")
        if self.instructions <= 0:
            raise ValueError(f"instructions must be positive, got "
                             f"{self.instructions}")
        spec = registry.get(self.design)
        for name in KNOB_FIELDS:
            if getattr(self, name) != _KNOB_DEFAULTS[name] \
                    and not spec.takes(name):
                raise ValueError(
                    f"design {self.design!r} does not take {name} "
                    f"(got {getattr(self, name)!r}); its knobs: "
                    f"{', '.join(n for n, _ in spec.knobs) or 'none'}")

    def baseline(self) -> "DesignPoint":
        """The matching baseline point (same everything, no mitigation)."""
        return DesignPoint(
            workload=self.workload, design="baseline", trh=self.trh,
            instructions=self.instructions, seed=self.seed,
            page_policy=self.page_policy,
            rows_per_bank=self.rows_per_bank,
            refresh_scale=self.refresh_scale,
            collect_row_activity=self.collect_row_activity,
            refresh_mode=self.refresh_mode,
        )


_KNOB_DEFAULTS = {f.name: f.default for f in fields(DesignPoint)
                  if f.name in KNOB_FIELDS}


def make_policy_factory(point: DesignPoint,
                        config: SystemConfig) -> Callable[[int], MitigationPolicy]:
    """Build the per-sub-channel policy constructor for a design point."""
    spec = registry.get(point.design)
    knobs = {name: getattr(point, name) for name in KNOB_FIELDS
             if spec.takes(name)}

    def factory(subchannel: int) -> MitigationPolicy:
        return spec.build(
            point.trh, config.dram.banks_per_subchannel,
            config.dram.rows_per_bank, seed=point.seed,
            base_timing=config.dram.timing, subchannel=subchannel, **knobs)

    return factory


def build_config(point: DesignPoint) -> SystemConfig:
    return SystemConfig.reduced(point.rows_per_bank, point.refresh_scale)


def build_traces(point: DesignPoint, config: SystemConfig) -> list:
    specs = workload_cores(point.workload, config.cores)
    return [TraceGenerator(spec, config.dram, core_id=i, seed=point.seed)
            for i, spec in enumerate(specs)]


#: Per-process memo: point -> result, read and filled by the resolver
#: (:mod:`repro.exec.resolver`) ahead of its on-disk cache.
memo: dict[DesignPoint, SystemResult] = {}


def memo_get(point: DesignPoint) -> SystemResult | None:
    """The memo's result for ``point``, or ``None``."""
    return memo.get(point)


def resolve_engine() -> type[System]:
    """The System class that :func:`run_point` instantiates.

    There is one simulation engine; this lookup stays only because the
    campaign benchmark (``campaign_bench/workloads.py``) calls it to find
    the class whose construction and ``run`` it times.
    """
    return System


def _wall_clock() -> float:
    """Phase-timing clock behind ``result.phases``.

    The phases are wall-time provenance: they travel with a cached
    result but stay out of its stats digest and its cache key.
    """
    # repro: allow(determinism) — phase provenance, never in stats or keys
    return time.perf_counter()


def run_point(point: DesignPoint,
              tracer: EventTracer | None = None) -> SystemResult:
    """Simulate one design point from scratch (no cache layers).

    ``tracer`` (opt-in) records the run's DRAM command events. The
    tracegen/warmup/sim wall-time breakdown is attached to the result
    as ``result.phases``.
    """
    log.debug("run_point %s.%s.t%d", point.workload, point.design,
              point.trh)
    start = _wall_clock()
    with span("sim.tracegen", workload=point.workload):
        config = build_config(point)
        specs = workload_cores(point.workload, config.cores)
        windows = [round(config.rob_entries * spec.mlp_boost)
                   for spec in specs]
        traces = build_traces(point, config)
    built = _wall_clock()
    with span("sim.warmup", design=point.design):
        system = System(
            config=config,
            policy_factory=make_policy_factory(point, config),
            traces=traces,
            instruction_limit=point.instructions,
            page_policy=point.page_policy,
            collect_row_activity=point.collect_row_activity,
            windows=windows,
            refresh_mode=point.refresh_mode,
            tracer=tracer,
        )
    warm = _wall_clock()
    with span("sim.run", workload=point.workload, design=point.design,
              trh=point.trh):
        result = system.run()
    result.phases = {"tracegen": built - start, "warmup": warm - built,
                     "sim": _wall_clock() - warm}
    return result


def simulate(point: DesignPoint, use_cache: bool = True) -> SystemResult:
    """Run (or fetch) one design point.

    ``use_cache=False`` simulates from scratch and stores nothing.
    """
    if not use_cache:
        return run_point(point)
    from ..exec.engine import SweepEngine  # deferred: exec imports sim
    return SweepEngine(workers=1).run([point])[0]


def clear_cache(disk: bool = False) -> None:
    """Drop the in-process memo (and optionally the on-disk cache)."""
    memo.clear()
    if disk:
        from ..exec.cache import ResultCache, default_cache_dir
        directory = default_cache_dir()
        if directory is not None:
            ResultCache(directory).clear()


def weighted_speedup(result: SystemResult,
                     baseline: SystemResult) -> float:
    """Per-core-normalised weighted speedup (paper Section 3.2).

    Cores whose baseline IPC is zero (an idle or unstarted core) carry
    no signal and are excluded from both the sum and the divisor —
    mirroring :func:`harmonic_speedup` — rather than silently deflating
    the mean.
    """
    return weighted_speedup_of(result.ipcs, baseline.ipcs)


def weighted_speedup_of(ipcs: list[float],
                        baseline_ipcs: list[float]) -> float:
    """:func:`weighted_speedup` from the runs' per-core IPCs alone."""
    pairs = [(x, b) for x, b in zip(ipcs, baseline_ipcs) if b > 0]
    if not pairs:
        return 0.0
    return sum(x / b for x, b in pairs) / len(pairs)


def harmonic_speedup(result: SystemResult,
                     baseline: SystemResult) -> float:
    """Harmonic-mean speedup: balances throughput and fairness."""
    pairs = [(x, b) for x, b in zip(result.ipcs, baseline.ipcs)
             if x > 0 and b > 0]
    if not pairs:
        return 0.0
    return len(pairs) / sum(b / x for x, b in pairs)


def fairness(result: SystemResult, baseline: SystemResult) -> float:
    """Min/max per-core relative-progress ratio (1.0 = perfectly fair).

    A mitigation that stalls one core's hot bank while others run free
    shows up here even when the weighted speedup looks fine.
    """
    ratios = [x / b for x, b in zip(result.ipcs, baseline.ipcs) if b > 0]
    if not ratios:
        return 0.0
    return min(ratios) / max(ratios)


def slowdown(point: DesignPoint, use_cache: bool = True) -> float:
    """Slowdown of a design point vs its baseline: 1 - WS."""
    result = simulate(point, use_cache)
    base = simulate(point.baseline(), use_cache)
    return 1.0 - weighted_speedup(result, base)


@dataclass
class SweepResult:
    """Per-workload slowdowns for one design/threshold."""

    design: str
    trh: int
    slowdowns: dict[str, float] = field(default_factory=dict)

    @property
    def average(self) -> float:
        if not self.slowdowns:
            return 0.0
        return sum(self.slowdowns.values()) / len(self.slowdowns)

    @property
    def worst(self) -> tuple[str, float]:
        return max(self.slowdowns.items(), key=lambda kv: kv[1])


def sweep(workloads: list[str], design: str, trh: int,
          workers: int | None = None, **overrides: Any) -> SweepResult:
    """Slowdown of ``design`` across ``workloads`` at one threshold.

    Points (and their baselines) are resolved through the
    :class:`~repro.exec.engine.SweepEngine`: cached results are reused,
    misses fan out across ``workers`` processes (``workers=1`` runs
    them inline; both paths return bit-identical numbers).
    """
    from ..exec.engine import run_points

    result = SweepResult(design=design, trh=trh)
    points = [DesignPoint(workload=name, design=design, trh=trh,
                          **overrides)
              for name in workloads]
    flat: list[DesignPoint] = []
    for point in points:
        flat.append(point)
        flat.append(point.baseline())
    results = run_points(flat, workers=workers)
    for name, run, base in zip(workloads, results[0::2], results[1::2]):
        result.slowdowns[name] = 1.0 - weighted_speedup(run, base)
    return result
