"""End-to-end self-check of the sweep engine (``python -m repro.exec.smoke``).

Runs a tiny 2-design x 3-workload sweep (plus baselines) three ways and
verifies the engine's two contracts:

1. **Determinism** — the pool run (``workers=2``) produces numerically
   identical results to the inline one (``workers=1``): same seeds,
   deterministic merge order.
2. **Persistence** — a second, warm-cache invocation against the same
   cache directory performs zero simulations (verified via the
   engine's metrics, not timing).

Exit status 0 on success; nonzero with a diagnostic otherwise. CI runs
this after the tier-1 suite (see the Makefile ``smoke`` target).

Options::

    python -m repro.exec.smoke [--cache-dir DIR] [--workers N]

Without ``--cache-dir`` a temporary directory is used and removed.
"""

from __future__ import annotations

import argparse
import tempfile

from ..obs.log import configure, get_logger
from ..sim.runner import DesignPoint
from .cache import ResultCache
from .engine import SweepEngine

log = get_logger("repro.exec.smoke")

WORKLOADS = ("add", "mcf", "xalancbmk")
DESIGNS = ("prac", "mopac-d")
FAST = dict(trh=500, instructions=6_000, rows_per_bank=512,
            refresh_scale=1 / 256)


def smoke_points() -> list[DesignPoint]:
    points: list[DesignPoint] = []
    for workload in WORKLOADS:
        for design in DESIGNS:
            point = DesignPoint(workload=workload, design=design, **FAST)
            points.append(point)
            points.append(point.baseline())
    return points


def run_smoke(cache_dir: str, workers: int = 2) -> int:
    points = smoke_points()

    inline = SweepEngine(workers=1, cache=None, use_memo=False)
    inline_results = inline.run(points)
    log.info("inline: %s", inline.metrics.summary())

    pool = SweepEngine(workers=workers, cache=ResultCache(cache_dir),
                       use_memo=False)
    pool_results = pool.run(points)
    log.info("pool:   %s", pool.metrics.summary())

    inline_ipcs = [r.ipcs for r in inline_results]
    if [r.ipcs for r in pool_results] != inline_ipcs:
        log.error("FAIL: pool results differ from the inline path")
        return 1

    warm = SweepEngine(workers=workers, cache=ResultCache(cache_dir),
                       use_memo=False)
    warm_results = warm.run(points)
    log.info("warm:   %s", warm.metrics.summary())
    if warm.metrics.simulated != 0:
        log.error("FAIL: warm rerun simulated %d points (expected 0)",
                  warm.metrics.simulated)
        return 1
    if [r.ipcs for r in warm_results] != inline_ipcs:
        log.error("FAIL: cached results differ from fresh ones")
        return 1

    log.info("OK: pool == inline, warm rerun hit the cache for every "
             "point")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.exec.smoke", description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: temporary)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--quiet", action="store_true",
                        help="only report failures")
    args = parser.parse_args(argv)
    configure("warning" if args.quiet else None)
    if args.cache_dir:
        return run_smoke(args.cache_dir, args.workers)
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        return run_smoke(tmp, args.workers)


if __name__ == "__main__":
    raise SystemExit(main())
