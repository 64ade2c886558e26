"""Security telemetry: how well sampled counters track ground truth.

MoPAC's security argument is statistical — probabilistic activation
counting trades PRAC's exact per-row counters for sampled estimates —
yet until this module the simulator exported nothing about how far the
estimates stray. :class:`SecurityTelemetry` gives every counting policy
a shadow **true-activation** ledger with exact-PRAC semantics (the same
accounting the PR 3 :class:`~repro.check.differential.CounterConservationAuditor`
maintains externally): +1 per ACT, aggressor reset plus blast-radius
victim increments per mitigation (paper footnote 5), refresh ranges
cleared in lockstep with the policy's own clears. Policies feed it from
the exact sites where they mutate their own counters, so the shadow is
valid under both the full-system simulator and the activation-level
attack harness.

Exported under ``mitigation.{sc}.security.*`` on every result snapshot:

* ``drift.*`` — histogram of ``|estimate - truth|`` observed at every
  counter-update, plus ``drift_max``. Exact-PRAC designs must show
  identically zero drift (the differential harness asserts it);
  MoPAC's drift is the quantity its ATH*/TTH analysis bounds.
* ``precu_rate`` / ``srq_insertion_rate`` — PRE-insertion rates per
  activation (the performance side of the trade).
* ``max_disturbance`` and ``bank.{b}.max_disturbance`` — the highest
  true activation count any row reached between clears, per bank: the
  number MOAT's guarantee caps at the tolerated activation count.
* ``rfm_cadence.*`` — histogram of activations between RFM services
  (the ABO duty cycle).

Determinism: the telemetry reads no clock and no RNG; every value is a
pure function of the policy-hook sequence, so snapshots stay
bit-identical across serial/parallel execution and across engines.
"""

from __future__ import annotations

import numpy as np

from ..obs.registry import Histogram
from .prac_state import BLAST_RADIUS

#: Drift histogram bucket edges (|estimate - truth| in activations).
DRIFT_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: RFM cadence bucket edges (activations between RFM services).
CADENCE_BOUNDS = (10, 100, 1_000, 10_000, 100_000, 1_000_000)


class SecurityTelemetry:
    """Shadow true-activation counters plus drift/cadence accounting."""

    __slots__ = ("banks", "rows", "true_counts", "peak", "drift",
                 "drift_max", "drift_total", "cadence", "_last_rfm_acts")

    def __init__(self, banks: int, rows: int):
        if banks <= 0 or rows <= 0:
            raise ValueError("banks and rows must be positive")
        self.banks = banks
        self.rows = rows
        self.true_counts = [np.zeros(rows, dtype=np.int64)
                            for _ in range(banks)]
        #: per-bank maximum true count captured at clear time
        self.peak = [0] * banks
        self.drift = Histogram(DRIFT_BOUNDS)
        self.drift_max = 0
        self.drift_total = 0
        self.cadence = Histogram(CADENCE_BOUNDS)
        self._last_rfm_acts = 0

    # -- feeding sites (called by the owning policy) -----------------------
    def on_activate(self, bank: int, row: int) -> None:
        """One true activation of (bank, row)."""
        self.true_counts[bank][row] += 1

    def on_counter_update(self, bank: int, row: int, estimate: int) -> None:
        """The policy wrote ``estimate`` into its (bank, row) counter."""
        drift = abs(int(estimate) - int(self.true_counts[bank][row]))
        self.drift.observe(drift)
        self.drift_total += drift
        if drift > self.drift_max:
            self.drift_max = drift

    def on_mitigation(self, bank: int, row: int) -> None:
        """Victim refresh of ``row``: truth resets, neighbours +1."""
        counts = self.true_counts[bank]
        value = int(counts[row])
        if value > self.peak[bank]:
            self.peak[bank] = value
        counts[row] = 0
        for offset in range(1, BLAST_RADIUS + 1):
            for victim in (row - offset, row + offset):
                if 0 <= victim < self.rows:
                    counts[victim] += 1

    def on_refresh_range(self, bank: int, start: int, stop: int) -> None:
        """Periodic refresh cleared rows [start, stop) of ``bank``."""
        if stop <= start:
            return
        counts = self.true_counts[bank]
        window_max = int(counts[start:stop].max())
        if window_max > self.peak[bank]:
            self.peak[bank] = window_max
        counts[start:stop] = 0

    def on_rfm(self, total_activations: int) -> None:
        """One RFM service; pass the policy's running activation count."""
        self.cadence.observe(total_activations - self._last_rfm_acts)
        self._last_rfm_acts = total_activations

    # -- introspection -----------------------------------------------------
    def true_count(self, bank: int, row: int) -> int:
        return int(self.true_counts[bank][row])

    def max_disturbance(self, bank: int) -> int:
        """Highest true count any row of ``bank`` ever reached."""
        return max(self.peak[bank], int(self.true_counts[bank].max()))

    def as_dict(self, stats) -> dict:
        """``mitigation.{sc}.security.*`` snapshot fragment.

        ``stats`` is the policy's :class:`~repro.mitigations.base.PolicyStats`
        — the rates are derived from its counters so they agree with
        the neighbouring ``mitigation.{sc}.*`` family by construction.
        """
        acts = stats.activations
        per_bank = [self.max_disturbance(bank)
                    for bank in range(self.banks)]
        return {
            "drift": self.drift,
            "drift_max": self.drift_max,
            "drift_total": self.drift_total,
            "precu_rate": stats.counter_updates / acts if acts else 0.0,
            "srq_insertion_rate":
                stats.srq_insertions / acts if acts else 0.0,
            "rfm_cadence": self.cadence,
            "max_disturbance": max(per_bank) if per_bank else 0,
            "bank": {str(bank): {"max_disturbance": value}
                     for bank, value in enumerate(per_bank)},
        }
