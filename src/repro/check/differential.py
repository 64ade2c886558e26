"""Differential verification across the mitigation designs.

QPRAC's evaluation leans on exact-PRAC as its ground truth; we do the
same, structurally: run MoPAC-C, MoPAC-D, QPRAC, and exact-PRAC (MOAT)
through the activation-level harness on *identical* seeded target
streams and assert the invariants every correct implementation must
satisfy, whatever its internals:

* **security** — the omniscient :class:`~repro.attacks.ledger.HammerLedger`
  never sees a row exceed the tolerated activation count between
  mitigations (``attack_succeeded`` stays False for every design);
* **counter conservation** (exact-PRAC designs: ``prac``, ``qprac``) —
  every per-row PRAC counter equals an independently maintained shadow
  (+1 per ACT, aggressor zeroed and blast-radius victims +1 per
  mitigation, refresh groups cleared in lockstep), and the policy's
  ``counter_updates`` stat equals its ``activations`` stat;
* **workload identity** — all designs observed the same activation
  stream (equal ledger totals);
* **drift** — the policies' own
  :class:`~repro.mitigations.security.SecurityTelemetry` (sampled
  counter vs shadow true count) reports *identically zero* drift for
  the exact designs, and drift bounded by ``drift_bound`` (default:
  the Rowhammer threshold) for the probabilistic MoPAC designs.

Target streams are derived from a master seed through
:func:`repro.rng.derive_seed`, so any divergence replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..attacks.harness import AttackHarness, Target
from ..mitigations import registry as mitigation_registry
from ..mitigations.prac_state import PRACShadow, RefreshSchedule
from ..rng import derive_seed

#: designs whose per-row counters must exactly track activations
EXACT_DESIGNS = tuple(s.name for s in mitigation_registry.specs() if s.exact)

#: every registered design, in registry (presentation) order
DESIGNS = mitigation_registry.names()


class CounterConservationAuditor(PRACShadow):
    """Shadow PRAC counters maintained from the ledger-observer stream.

    Implements the harness observer interface. The shadow is the
    exact-PRAC :class:`~repro.mitigations.prac_state.PRACShadow` —
    +1 per activation, aggressor reset plus blast-radius victim
    increments per mitigation (footnote 5) — with refresh groups
    cleared round-robin by the auditor's own schedules, and touches no
    policy state, so comparing it against ``policy.counter_value``
    catches lost, duplicated, or misattributed counter updates on
    either side.
    """

    __slots__ = ("schedules",)

    def __init__(self, banks: int, rows: int, refresh_groups: int):
        super().__init__(banks, rows)
        self.schedules = [RefreshSchedule(rows, refresh_groups)
                          for _ in range(banks)]

    def on_refresh(self) -> None:
        for bank in range(self.banks):
            self.on_refresh_range(bank, *self.schedules[bank].advance())

    def mismatches(self, policy) -> list[tuple[int, int, int, int]]:
        """(bank, row, shadow, policy) for every diverging counter."""
        out = []
        for bank in range(self.banks):
            counts = self.counts[bank]
            for row in range(self.rows):
                value = policy.counter_value(bank, row)
                if counts[row] != value:
                    out.append((bank, row, counts[row], value))
        return out


@dataclass
class DesignOutcome:
    design: str
    max_count: int
    attack_succeeded: bool
    total_activations: int
    counter_mismatches: list = field(default_factory=list)
    stats_conserved: bool = True
    #: largest |estimate - truth| the policy's own telemetry observed
    drift_max: int = 0
    #: sum of per-update drifts (0 for exact designs)
    drift_total: int = 0
    #: threshold the security verdict held the design to
    #: (``spec.effective_trh``: trh, or the design's tolerated minimum)
    effective_trh: int = 0
    #: False for registered known-broken strawmen (trr): the ledger
    #: exceeding the threshold is then recorded, not a failure
    expected_secure: bool = True
    #: spec contract bits, echoed for table rendering
    exact: bool = False
    timing: str = "prac"
    #: harness wall-clock and service activity (compare-mitigations)
    elapsed_ps: int = 0
    alerts: int = 0
    mitigations: int = 0
    counter_updates: int = 0
    #: highest unmitigated true count any bank's telemetry saw
    max_disturbance: int = 0


@dataclass
class DifferentialReport:
    """Aggregate verdict of one differential run."""

    trh: int
    activations: int
    seed: int
    outcomes: list[DesignOutcome] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [f"differential trh={self.trh} acts={self.activations} "
                 f"seed={hex(self.seed)}: "
                 + ("OK" if self.ok else f"{len(self.failures)} failure(s)")]
        for o in self.outcomes:
            lines.append(f"  {o.design}: max_count={o.max_count} "
                         f"acts={o.total_activations} "
                         f"drift_max={o.drift_max}"
                         + ("" if not o.counter_mismatches else
                            f" counter_mismatches="
                            f"{len(o.counter_mismatches)}"))
        lines.extend(f"  FAIL: {f}" for f in self.failures)
        return "\n".join(lines)


def make_targets(seed: int, banks: int, rows: int,
                 activations: int) -> list[Target]:
    """Seeded adversarial target stream shared by every design.

    A blend of focused hammering (few hot rows — the single-sided /
    many-sided regimes) and background noise, which exercises both the
    trackers' hot paths and their eviction/refresh interactions.
    """
    rng = random.Random(derive_seed(seed, "differential-targets"))
    hot = [(rng.randrange(banks), rng.randrange(rows))
           for _ in range(max(2, banks // 2))]
    targets: list[Target] = []
    for _ in range(activations):
        roll = rng.random()
        if roll < 0.7:
            targets.append(rng.choice(hot))
        elif roll < 0.8:  # neighbouring rows: blast-radius interactions
            bank, row = rng.choice(hot)
            targets.append((bank, min(rows - 1,
                                      max(0, row + rng.choice((-1, 1))))))
        else:
            targets.append((rng.randrange(banks), rng.randrange(rows)))
    return targets


def _make_policy(design: str, trh: int, banks: int, rows: int,
                 groups: int, seed: int):
    return mitigation_registry.make_policy(design, trh, banks, rows,
                                           groups, seed=seed)


def run_differential(trh: int = 500, activations: int = 60_000,
                     banks: int = 4, rows: int = 512,
                     refresh_groups: int = 64,
                     seed: int = 0xD1FF,
                     designs: tuple[str, ...] | None = None,
                     drift_bound: int | None = None
                     ) -> DifferentialReport:
    """Run every registered design on one seeded stream; check invariants.

    ``designs`` defaults to the full :mod:`repro.mitigations.registry`.
    Each design is judged by its registered contract: the security ledger
    holds it to ``spec.effective_trh(trh)`` (designs with a tolerated
    threshold above ``trh`` are judged there; known-broken strawmen are
    recorded, not failed), exact designs additionally run the
    counter-conservation shadow audit and must show identically zero
    telemetry drift, and sampled counting designs stay within
    ``drift_bound`` (``None``: the Rowhammer threshold — an estimate that
    falls behind the truth by ``trh`` has lost the security argument).
    """
    if activations <= 0:
        raise ValueError(
            f"activations must be positive, got {activations}")
    if designs is None:
        designs = mitigation_registry.names()
    if drift_bound is None:
        drift_bound = trh
    report = DifferentialReport(trh=trh, activations=activations, seed=seed)
    targets = make_targets(seed, banks, rows, activations)
    totals: dict[str, int] = {}
    for design in designs:
        spec = mitigation_registry.get(design)
        policy = spec.build(trh, banks, rows, refresh_groups, seed=seed)
        effective_trh = spec.effective_trh(trh)
        auditor = (CounterConservationAuditor(banks, rows, refresh_groups)
                   if spec.exact else None)
        harness = AttackHarness(
            policy, effective_trh, banks, rows, refresh_groups,
            observers=[auditor] if auditor else [])
        result = harness.run(iter(targets), activations)
        stats = policy.stats
        outcome = DesignOutcome(
            design=design, max_count=result.ledger.max_count,
            attack_succeeded=result.attack_succeeded,
            total_activations=result.ledger.total_activations,
            effective_trh=effective_trh, expected_secure=spec.secure,
            exact=spec.exact, timing=spec.timing,
            elapsed_ps=result.elapsed_ps, alerts=result.alerts,
            mitigations=stats.mitigations,
            counter_updates=stats.counter_updates)
        if result.attack_succeeded and spec.secure:
            report.failures.append(
                f"{design}: row ({result.ledger.max_bank},"
                f"{result.ledger.max_row}) reached "
                f"{result.ledger.max_count} > trh={effective_trh} "
                f"unmitigated")
        if auditor is not None:
            outcome.counter_mismatches = auditor.mismatches(policy)[:10]
            if outcome.counter_mismatches:
                bank, row, shadow, got = outcome.counter_mismatches[0]
                report.failures.append(
                    f"{design}: counter conservation broken, e.g. "
                    f"bank {bank} row {row}: shadow {shadow} != "
                    f"policy {got}")
            if spec.update_per_act:
                outcome.stats_conserved = \
                    stats.counter_updates == stats.activations
                if not outcome.stats_conserved:
                    report.failures.append(
                        f"{design}: counter_updates "
                        f"{stats.counter_updates} "
                        f"!= activations {stats.activations}")
            else:
                # coalescing designs commit fewer writes than ACTs, but
                # never more — and must have committed something
                outcome.stats_conserved = \
                    0 < stats.counter_updates <= stats.activations
                if not outcome.stats_conserved:
                    report.failures.append(
                        f"{design}: counter_updates "
                        f"{stats.counter_updates} outside "
                        f"(0, activations={stats.activations}]")
        if policy.security is not None:
            outcome.drift_max = policy.security.drift_max
            outcome.drift_total = policy.security.drift_total
            outcome.max_disturbance = max(
                policy.security.max_disturbance(bank)
                for bank in range(banks))
            if spec.exact and outcome.drift_total:
                report.failures.append(
                    f"{design}: exact design drifted from ground truth "
                    f"(drift_max={outcome.drift_max}, "
                    f"drift_total={outcome.drift_total})")
            elif spec.counting and outcome.drift_max > drift_bound:
                report.failures.append(
                    f"{design}: sampled-counter drift {outcome.drift_max} "
                    f"exceeds bound {drift_bound}")
        totals[design] = result.ledger.total_activations
        report.outcomes.append(outcome)
    if len(set(totals.values())) > 1:
        report.failures.append(f"designs saw different streams: {totals}")
    return report
