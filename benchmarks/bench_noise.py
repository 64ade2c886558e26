"""Methodology: seed-to-seed noise and statistical significance.

Quantifies the measurement noise of the probabilistic designs at bench
scale and confirms the headline ordering (MoPAC-C < PRAC) is significant
beyond that noise.
"""

from dataclasses import replace

from _common import record, run_once

from repro.sim.replication import Replication, significantly_faster
from repro.sim.runner import DesignPoint, slowdowns

SEEDS = (1, 2, 3, 4)
FAST = dict(instructions=40_000)


def measure():
    """Every design's replication, from one slowdowns() call."""
    points = [DesignPoint(workload="mcf", design=design, trh=500, **FAST)
              for design in ("prac", "mopac-c", "mopac-d")]
    values = slowdowns([replace(point, seed=seed)
                        for point in points for seed in SEEDS])
    n = len(SEEDS)
    return {point.design: Replication(point, tuple(values[i * n:(i + 1) * n]))
            for i, point in enumerate(points)}


def test_noise(benchmark):
    out = run_once(benchmark, measure)
    lines = ["Methodology: seed-to-seed noise (mcf, T_RH = 500)"]
    for design, repl in out.items():
        lines.append(f"  {design:>9s}: {repl}")
    record("noise", "\n".join(lines) + "\n")
    # probabilistic designs carry bounded noise at this scale
    assert out["mopac-c"].ci95 < 0.05
    # the headline ordering survives the noise
    assert out["mopac-c"].mean < out["prac"].mean
    assert not out["mopac-c"].overlaps(out["prac"])


def test_significance_helper(benchmark):
    result = run_once(benchmark, lambda: significantly_faster(
        DesignPoint(workload="mcf", design="mopac-d", trh=500, **FAST),
        DesignPoint(workload="mcf", design="prac", trh=500, **FAST),
        seeds=SEEDS))
    assert result
