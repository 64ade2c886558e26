"""Time the simulation engine on the Table 4 workload mix.

Runs each workload at one design point through ``run_point`` and
records its wall time and a digest of its results in
``benchmarks/results/BENCH_engine.json``. The digest pins *what* was
timed: ``compare.py`` refuses to compare timings of runs that simulated
different numbers. Bit-identity of the simulator itself is the job of
the golden fingerprints (``python -m repro.check.golden``).

Two profiles:

* **full** (default): the paper's mix at default instruction counts —
  the numbers quoted in docs/performance.md come from this profile.
* **--smoke**: two short workloads, used by ``make bench-engine`` in
  CI against the committed ``BENCH_engine_smoke.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py          # full
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke  # CI gate
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.check.golden import stats_digest
from repro.sim.runner import DesignPoint, run_point

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OUTPUT = RESULTS_DIR / "BENCH_engine.json"
SMOKE_OUTPUT = RESULTS_DIR / "BENCH_engine_smoke.json"

#: Table 4 mix: the six rate-mix blends plus the latency-bound and
#: streaming SPEC anchors.
FULL_WORKLOADS = ("mix1", "mix2", "mix3", "mix4", "mix5", "mix6",
                  "mcf", "lbm")
SMOKE_WORKLOADS = ("mix1", "mcf")


def bench(workloads, instructions=None, design="mopac-c"):
    rows = []
    for workload in workloads:
        kwargs = {} if instructions is None else {
            "instructions": instructions}
        point = DesignPoint(workload=workload, design=design, **kwargs)
        start = time.perf_counter()
        result = run_point(point)
        seconds = time.perf_counter() - start
        rows.append({
            "workload": workload,
            "design": design,
            "instructions": point.instructions,
            "seconds": round(seconds, 4),
            "requests": result.total_requests,
            "digest": stats_digest(result),
        })
        print(f"{workload:12s} {seconds:7.2f}s   "
              f"{result.total_requests} requests")
    total = sum(row["seconds"] for row in rows)
    print(f"{'TOTAL':12s} {total:7.2f}s")
    return {
        "design": design,
        "workloads": list(workloads),
        "total_s": round(total, 4),
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short CI profile (two workloads)")
    parser.add_argument("--instructions", type=int, default=None,
                        help="override per-core instruction budget")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help=f"JSON report path (default {OUTPUT})")
    args = parser.parse_args(argv)

    if args.smoke:
        summary = bench(SMOKE_WORKLOADS,
                        instructions=args.instructions or 40_000)
        summary["profile"] = "smoke"
    else:
        summary = bench(FULL_WORKLOADS, instructions=args.instructions)
        summary["profile"] = "full"

    # the smoke gate records beside, not over, the full-profile table
    output = args.output or (SMOKE_OUTPUT if args.smoke else OUTPUT)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
