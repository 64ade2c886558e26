"""Extension: DRAM energy overhead of PRAC vs MoPAC.

Not a paper experiment — PRAC's counter read-modify-write costs array
energy on every activation, and MoPAC's probabilistic updates shrink that
the same way they shrink the latency tax. Energy is post-processed from
the simulation's operation counts with DDR5-class per-op constants.
"""

from _common import bench_instructions, record, run_once

from repro.dram.energy import energy_of, energy_overhead
from repro.exec.engine import run_points
from repro.sim.runner import DesignPoint

WORKLOAD = "mcf"


def results(*designs):
    """The T_RH 500 runs of ``designs`` on WORKLOAD, from one call."""
    return run_points([DesignPoint(workload=WORKLOAD, design=design,
                                   trh=500,
                                   instructions=bench_instructions())
                       for design in designs])


def sweep():
    designs = ("baseline", "prac", "mopac-c", "mopac-d")
    runs = dict(zip(designs, results(*designs)))
    base = runs["baseline"]
    return {design: (energy_of(result), energy_overhead(result, base))
            for design, result in runs.items()}


def test_extension_energy(benchmark):
    out = run_once(benchmark, sweep)
    lines = [f"Extension: DRAM energy on {WORKLOAD} (T_RH = 500)",
             f"{'design':>9s} {'total mJ':>9s} {'counter mJ':>11s} "
             f"{'cu share':>9s} {'overhead':>9s}"]
    for design, (breakdown, overhead) in out.items():
        lines.append(
            f"{design:>9s} {breakdown.total_mj:>9.3f} "
            f"{breakdown.counter_update_mj:>11.4f} "
            f"{breakdown.counter_update_share:>9.1%} {overhead:>9.1%}")
    record("extension_energy", "\n".join(lines) + "\n")
    assert out["baseline"][0].counter_update_mj == 0
    assert out["prac"][1] > out["mopac-c"][1] > -0.02
    assert out["mopac-d"][1] < out["prac"][1]


def test_extension_energy_counter_scaling(benchmark):
    """MoPAC-C's counter-update energy is ~p x PRAC's."""
    def measure():
        prac, mopac = results("prac", "mopac-c")
        return (energy_of(mopac).counter_update_mj
                / energy_of(prac).counter_update_mj)

    ratio = run_once(benchmark, measure)
    assert ratio < 0.25  # p = 1/8 plus noise
