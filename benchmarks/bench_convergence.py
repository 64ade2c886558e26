"""Methodology check: slowdown stationarity in run length.

EXPERIMENTS.md claims the scaled runs measure the same slowdown ratios
the paper's 100M-instruction runs would — because slowdown is a
stationary property of the trace statistics. This bench sweeps the run
length and asserts the PRAC slowdown settles.
"""

from _common import record, run_once

from repro.sim.runner import DesignPoint, slowdowns

LENGTHS = (30_000, 60_000, 120_000)
WORKLOADS = ("mcf", "add")


def sweep():
    values = iter(slowdowns([
        DesignPoint(workload=workload, design="prac", trh=500,
                    instructions=n)
        for workload in WORKLOADS for n in LENGTHS]))
    return {workload: {n: next(values) for n in LENGTHS}
            for workload in WORKLOADS}


def test_convergence(benchmark):
    out = run_once(benchmark, sweep)
    lines = ["Methodology: PRAC slowdown vs run length",
             f"{'workload':>9s}" + "".join(f"{n:>10,d}" for n in LENGTHS)]
    for workload, row in out.items():
        lines.append(f"{workload:>9s}" + "".join(
            f"{row[n]:>10.1%}" for n in LENGTHS))
    record("convergence", "\n".join(lines) + "\n")
    for workload, row in out.items():
        values = [row[n] for n in LENGTHS]
        assert max(values) - min(values) < 0.05, \
            f"{workload} slowdown not stationary: {values}"
