#!/usr/bin/env python3
"""Design-space capstone: security x performance x energy x DoS.

One table that compares every secure design along the four axes the
paper's argument runs on:

* benign slowdown (the PRAC adoption blocker, Figures 2/9/11),
* DRAM energy overhead (extension),
* ALERT traffic under a benign hot-row workload,
* worst unmitigated activation count under a fuzzing campaign
  (the security margin).

Run:  python examples/design_space.py [--trh 500]
"""

import argparse
import random

from repro.attacks.fuzzer import fuzz
from repro.dram.energy import energy_overhead
from repro.mitigations import (MoPACCPolicy, MoPACDPolicy, PRACMoatPolicy,
                               QPRACPolicy)
from repro.exec.engine import run_points
from repro.sim.runner import DesignPoint, weighted_speedup

GEO = dict(banks=4, rows=1024, refresh_groups=64)
INSTRUCTIONS = 50_000


def fuzz_margin(trh: int) -> dict[str, int]:
    designs = {
        "prac": lambda: PRACMoatPolicy(trh, **GEO),
        "qprac": lambda: QPRACPolicy(trh, **GEO),
        "mopac-c": lambda: MoPACCPolicy(trh, **GEO,
                                        rng=random.Random(31)),
        "mopac-d": lambda: MoPACDPolicy(trh, **GEO,
                                        rng=random.Random(32)),
        "mopac-d-nup": lambda: MoPACDPolicy(trh, nup=True, **GEO,
                                            rng=random.Random(33)),
    }
    return {name: fuzz(factory, trh=trh, cases=8, acts_per_case=50_000,
                       seed=77, **GEO).worst_count
            for name, factory in designs.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trh", type=int, default=500)
    parser.add_argument("--workload", default="hammer")
    args = parser.parse_args()

    margins = fuzz_margin(args.trh)
    # qprac is not a sim runner design (identical timing to prac); show
    # the sim rows for the four runner designs and fuzz for all five.
    points = [DesignPoint(workload=args.workload, design=design,
                          trh=args.trh, instructions=INSTRUCTIONS)
              for design in ("prac", "mopac-c", "mopac-d", "mopac-d-nup")]
    # one call resolves the baseline and every design
    base, *results = run_points([points[0].baseline(), *points])

    print(f"Design space at T_RH = {args.trh}, workload "
          f"{args.workload} ({INSTRUCTIONS:,} instr/core)\n")
    print(f"{'design':>12s} {'slowdown':>9s} {'energy':>8s} "
          f"{'ALERTs':>7s} {'fuzz worst':>11s} {'margin':>7s}")
    for point, result in zip(points, results):
        design = point.design
        sd = 1 - weighted_speedup(result, base)
        energy = energy_overhead(result, base)
        worst = margins[design]
        margin = 1 - worst / args.trh
        print(f"{design:>12s} {sd:>9.1%} {energy:>8.1%} "
              f"{result.total_alerts:>7d} {worst:>11d} {margin:>7.0%}")
    print(f"{'qprac':>12s} {'= prac':>9s} {'= prac':>8s} {'~0':>7s} "
          f"{margins['qprac']:>11d} "
          f"{1 - margins['qprac'] / args.trh:>7.0%}")
    print("\n(margin = headroom below T_RH under the fuzzing campaign;"
          "\n qprac matches PRAC's timings but services mitigations "
          "proactively at REF)")


if __name__ == "__main__":
    main()
