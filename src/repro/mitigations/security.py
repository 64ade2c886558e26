"""Security telemetry: how well sampled counters track ground truth.

MoPAC's security argument is statistical — probabilistic activation
counting trades PRAC's exact per-row counters for sampled estimates —
yet until this module the simulator exported nothing about how far the
estimates stray. :class:`SecurityTelemetry` gives every counting policy
a shadow **true-activation** ledger with exact-PRAC semantics: it is a
:class:`~repro.mitigations.prac_state.PRACShadow`, the class the
differential harness's
:class:`~repro.check.differential.CounterConservationAuditor` also
feeds, from outside. +1 per ACT, aggressor reset plus blast-radius
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

from ..obs.registry import Histogram
from .prac_state import PRACShadow

#: Drift histogram bucket edges (|estimate - truth| in activations).
DRIFT_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: RFM cadence bucket edges (activations between RFM services).
CADENCE_BOUNDS = (10, 100, 1_000, 10_000, 100_000, 1_000_000)


class SecurityTelemetry(PRACShadow):
    """Shadow true-activation counters plus drift/cadence accounting."""

    __slots__ = ("drift", "drift_max", "drift_total", "cadence",
                 "_last_rfm_acts")

    def __init__(self, banks: int, rows: int):
        super().__init__(banks, rows)
        self.drift = Histogram(DRIFT_BOUNDS)
        self.drift_max = 0
        self.drift_total = 0
        self.cadence = Histogram(CADENCE_BOUNDS)
        self._last_rfm_acts = 0

    # -- feeding sites (called by the owning policy) -----------------------
    # on_activate / on_mitigation / on_refresh_range: the PRACShadow truth

    def on_counter_update(self, bank: int, row: int, estimate: int) -> None:
        """The policy wrote ``estimate`` into its (bank, row) counter."""
        drift = abs(estimate - self.counts[bank][row])
        self.drift.observe(drift)
        self.drift_total += drift
        if drift > self.drift_max:
            self.drift_max = drift

    def on_rfm(self, total_activations: int) -> None:
        """One RFM service; pass the policy's running activation count."""
        self.cadence.observe(total_activations - self._last_rfm_acts)
        self._last_rfm_acts = total_activations

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
