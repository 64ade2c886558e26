"""Ablation: all-bank REF vs DDR5 same-bank REFsb.

The paper evaluates with all-bank REF (410 ns of full stall every
3.9 us). REFsb spreads one short (130 ns) per-bank refresh across the
tREFI instead, removing the global freeze; drain-on-REF opportunities
become per-bank. This bench compares the two modes for the baseline,
PRAC and MoPAC-D.
"""

from _common import bench_instructions, record, run_once

from repro.exec.engine import run_points
from repro.sim.runner import DesignPoint, weighted_speedup

WORKLOADS = ("mcf", "hammer")
MODES = ("all-bank", "same-bank")
DESIGNS = ("baseline", "prac", "mopac-d")


def sweep():
    grid = [(mode, w, design)
            for mode in MODES for w in WORKLOADS for design in DESIGNS]
    results = dict(zip(grid, run_points([
        DesignPoint(workload=w, design=design, trh=500, refresh_mode=mode,
                    instructions=bench_instructions())
        for mode, w, design in grid])))
    out = {}
    for mode in MODES:
        base = {w: results[mode, w, "baseline"] for w in WORKLOADS}
        out[mode] = {"base_us": {w: base[w].elapsed_ps / 1e6
                                 for w in WORKLOADS}}
        for design in DESIGNS[1:]:
            out[mode][design] = sum(
                1.0 - weighted_speedup(results[mode, w, design], base[w])
                for w in WORKLOADS) / len(WORKLOADS)
    return out


def test_ablation_refsb(benchmark):
    out = run_once(benchmark, sweep)
    lines = ["Ablation: all-bank REF vs same-bank REFsb (T_RH = 500)",
             f"{'mode':>10s} {'prac':>7s} {'mopac-d':>8s}  baseline us"]
    for mode, row in out.items():
        base = ", ".join(f"{w}={v:.0f}" for w, v in row["base_us"].items())
        lines.append(f"{mode:>10s} {row['prac']:>7.1%} "
                     f"{row['mopac-d']:>8.1%}  {base}")
    record("ablation_refsb", "\n".join(lines) + "\n")
    # both modes keep the headline ordering
    for row in out.values():
        assert row["mopac-d"] < row["prac"]
    # MoPAC-D stays cheap with per-bank drain opportunities too
    assert out["same-bank"]["mopac-d"] < 0.06
