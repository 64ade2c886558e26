"""Multi-seed replication and confidence intervals.

Single runs of the probabilistic designs carry about ±1 pp of slowdown
noise at the scaled run lengths (the paper's 100M-instruction runs
average it out). :func:`replicate` re-runs a design point under several
seeds and reports the mean with a Student-t confidence interval, which
is what EXPERIMENTS.md quotes for the headline comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .runner import DesignPoint, slowdowns

#: two-sided 95% Student-t critical values by degrees of freedom
#: (df = n-1); past the table, the df-30 entry, which is wider than the
#: true value, so the interval never narrows
_T_95 = {1: 12.71, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
         7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
         13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110,
         18: 2.101, 19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074,
         23: 2.069, 24: 2.064, 25: 2.060, 26: 2.056, 27: 2.052,
         28: 2.048, 29: 2.045, 30: 2.042}


@dataclass(frozen=True)
class Replication:
    """Mean slowdown over seeds with a 95% confidence half-width."""

    point: DesignPoint
    samples: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / self.n

    @property
    def stdev(self) -> float:
        if self.n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples)
                         / (self.n - 1))

    @property
    def ci95(self) -> float:
        """95% confidence half-width (Student t)."""
        if self.n < 2:
            return float("inf")
        t = _T_95[min(self.n - 1, max(_T_95))]
        return t * self.stdev / math.sqrt(self.n)

    def overlaps(self, other: "Replication") -> bool:
        """Whether the two 95% intervals overlap."""
        return abs(self.mean - other.mean) <= self.ci95 + other.ci95

    def __str__(self) -> str:
        return f"{self.mean:.1%} ± {self.ci95:.1%} (n={self.n})"


def replicate(point: DesignPoint, seeds: Sequence[int] = (1, 2, 3, 4, 5)
              ) -> Replication:
    """Measure a design point's slowdown across seeds, resolving every
    seed's point and baseline in one :func:`~repro.sim.runner.slowdowns`
    call."""
    if not seeds:
        raise ValueError("need at least one seed")
    samples = slowdowns([replace(point, seed=seed) for seed in seeds])
    return Replication(point=point, samples=tuple(samples))


def significantly_faster(a: DesignPoint, b: DesignPoint,
                         seeds: Sequence[int] = (1, 2, 3, 4, 5)) -> bool:
    """True when design ``a``'s slowdown is below ``b``'s beyond noise."""
    ra = replicate(a, seeds)
    rb = replicate(b, seeds)
    return ra.mean < rb.mean and not ra.overlaps(rb)
