"""Time the simulation engine on the Table 4 workload mix.

Runs each workload at one design point through ``run_point`` and
records its wall time, a digest of its results and the event census
(heap pops per opcode, and pops per serviced request) in
``benchmarks/results/BENCH_engine.json``. Each workload also gets a
*rider row* (design ``baseline+mopac-d``): the baseline run with
MoPAC-D riding it (``run_group``), timed as one group, with both
results' digests; its ``digest`` covers the two, so ``compare.py``
gates it like any other row. The digest pins *what* was
timed: ``compare.py`` refuses to compare timings of runs that simulated
different numbers. The census is the deterministic measure of the
loop's work: ``compare.py`` fails a row whose pops rise while its
digest stays. Bit-identity of the simulator itself is the job of the
golden fingerprints (``python -m repro.check.golden``).

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
import hashlib
import json
import pathlib
import time

from repro.check.golden import stats_digest
from repro.sim.runner import DesignPoint, run_group, run_point

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
OUTPUT = RESULTS_DIR / "BENCH_engine.json"
SMOKE_OUTPUT = RESULTS_DIR / "BENCH_engine_smoke.json"

#: Table 4 mix: the six rate-mix blends plus the latency-bound and
#: streaming SPEC anchors.
FULL_WORKLOADS = ("mix1", "mix2", "mix3", "mix4", "mix5", "mix6",
                  "mcf", "lbm")
SMOKE_WORKLOADS = ("mix1", "mcf")

#: the design each rider row simulates on its baseline's run
RIDER = "mopac-d"


def bench(workloads, instructions=None, design="mopac-c"):
    rows = []
    for workload in workloads:
        kwargs = {} if instructions is None else {
            "instructions": instructions}
        point = DesignPoint(workload=workload, design=design, **kwargs)
        start = time.perf_counter()
        result = run_point(point)
        seconds = time.perf_counter() - start
        pops = sum(result.census.values())
        serviced = result.total("serviced")
        rows.append({
            "workload": workload,
            "design": design,
            "instructions": point.instructions,
            "seconds": round(seconds, 4),
            "requests": result.total_requests,
            "digest": stats_digest(result),
            "pops": result.census,
            "pops_per_request": round(pops / serviced, 4),
        })
        print(f"{workload:12s} {seconds:7.2f}s   "
              f"{result.total_requests} requests   "
              f"{pops / serviced:.2f} pops/request")
    for workload in workloads:
        rows.append(rider_row(workload, instructions))
    total = sum(row["seconds"] for row in rows)
    print(f"{'TOTAL':12s} {total:7.2f}s")
    return {
        "design": design,
        "workloads": list(workloads),
        "total_s": round(total, 4),
        "rows": rows,
    }


def rider_row(workload, instructions=None):
    """One baseline run with :data:`RIDER` riding it, timed as a group.

    A rider that drops out (it asserted ALERT) is simulated on its own,
    as the sweep engine would, and that run's time and pops count too;
    its serviced requests join the lead's in ``pops_per_request``, so
    the column reads the same with or without a solo rerun.
    """
    kwargs = {} if instructions is None else {"instructions": instructions}
    rider = DesignPoint(workload=workload, design=RIDER, **kwargs)
    lead = rider.baseline()
    start = time.perf_counter()
    lead_result, rider_result = run_group([lead, rider])
    census = dict(lead_result.census)
    serviced = lead_result.total("serviced")
    diverged = rider_result is None
    if diverged:
        rider_result = run_point(rider)
        census = {op: count + rider_result.census[op]
                  for op, count in census.items()}
        serviced += rider_result.total("serviced")
    seconds = time.perf_counter() - start
    digests = {point.design: stats_digest(result) for point, result in
               ((lead, lead_result), (rider, rider_result))}
    pops = sum(census.values())
    print(f"{workload:12s} {seconds:7.2f}s   baseline+{RIDER} group"
          + ("   (rider diverged, ran solo)" if diverged else ""))
    return {
        "workload": workload,
        "design": f"baseline+{RIDER}",
        "instructions": lead.instructions,
        "seconds": round(seconds, 4),
        "requests": lead_result.total_requests,
        "digest": hashlib.sha256(
            " ".join(digests.values()).encode()).hexdigest(),
        "digests": digests,
        "diverged": diverged,
        "pops": census,
        "pops_per_request": round(pops / serviced, 4),
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
