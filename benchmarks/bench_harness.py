"""Time the attack harness on the §9.2 cross-mitigation table.

Runs every design of ``campaign compare-mitigations`` (the registry's
compared designs plus the unprotected ``baseline`` its slowdown column
divides by) through :func:`repro.check.differential.run_differential`
at the command's defaults, one design at a time, and records each
design's wall time in ``benchmarks/results/BENCH_harness.json``.

Rows share ``bench_engine.py``'s schema (``workload``, ``design``,
``instructions`` — here the activation count —, ``seconds``,
``digest``), so ``compare.py`` gates them unchanged: a changed digest
means the harness produced different results. The digest is a sha256
of the design's whole :class:`~repro.check.differential.DesignOutcome`;
the deterministic counts (ACTs, ALERTs, mitigations, counter updates)
are recorded beside it. ``seconds`` is the best of ``REPEAT`` runs,
taken round-robin over the designs.

Usage::

    PYTHONPATH=src python benchmarks/bench_harness.py
    PYTHONPATH=src python benchmarks/bench_harness.py \\
        --output benchmarks/results/BENCH_harness_current.json

With ``PYTHONPATH`` pointing at another checkout's ``src`` the same
script times that checkout (the numbers in docs/performance.md compare
a parent commit this way).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import time

from repro.check.differential import run_differential
from repro.mitigations import registry

OUTPUT = pathlib.Path(__file__).parent / "results" / "BENCH_harness.json"

#: ``compare_mitigations`` defaults
TRH, ACTIVATIONS, SEED = 500, 60_000, 0xD1FF
GEOMETRY = dict(banks=4, rows=512, refresh_groups=64)
REPEAT = 5


def run_design(design: str) -> tuple[float, str, object]:
    """(seconds, outcome digest, outcome) of one design's table run."""
    start = time.perf_counter()
    report = run_differential(trh=TRH, activations=ACTIVATIONS, seed=SEED,
                              designs=(design,), **GEOMETRY)
    seconds = time.perf_counter() - start
    outcome = report.outcomes[0]
    fields = json.dumps(dataclasses.asdict(outcome), sort_keys=True)
    return seconds, hashlib.sha256(fields.encode()).hexdigest(), outcome


def bench(designs) -> list[dict]:
    # repeats go round-robin over the designs, so a change of host
    # speed during the run reaches every design's best time alike
    best: dict[str, float] = {}
    digests: dict[str, str] = {}
    outcomes = {}
    for _ in range(REPEAT):
        for design in designs:
            seconds, digest, outcomes[design] = run_design(design)
            if digests.setdefault(design, digest) != digest:
                raise RuntimeError(f"{design}: repeated run changed results")
            best[design] = min(seconds, best.get(design, seconds))
    return [{
        "workload": "compare-mitigations",
        "design": design,
        "instructions": ACTIVATIONS,
        "seconds": round(best[design], 4),
        "digest": digests[design],
        "acts": outcomes[design].total_activations,
        "alerts": outcomes[design].alerts,
        "mitigations": outcomes[design].mitigations,
        "counter_updates": outcomes[design].counter_updates,
    } for design in designs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=pathlib.Path, default=OUTPUT,
                        help=f"JSON report path (default {OUTPUT})")
    args = parser.parse_args(argv)

    rows = bench(registry.names() + ("baseline",))
    for row in rows:
        print(f"{row['design']:16s} {row['seconds']:7.3f}s   "
              f"{row['alerts']:5d} alerts   {row['mitigations']:5d} "
              f"mitigations")
    total = sum(row["seconds"] for row in rows)
    print(f"{'TOTAL':16s} {total:7.3f}s")
    summary = {
        "workload": "compare-mitigations",
        "trh": TRH,
        "activations": ACTIVATIONS,
        "seed": SEED,
        **GEOMETRY,
        "total_s": round(total, 4),
        "rows": rows,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
