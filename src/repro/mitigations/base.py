"""Mitigation policy interface.

A :class:`MitigationPolicy` instance encapsulates everything one
*sub-channel* worth of DRAM does about Rowhammer: per-row activation
counters (when the design has them), trackers (MOAT / SRQ / TRR table),
the probabilistic samplers, and the decision to assert ALERT.

The same policy object is driven by two harnesses:

* the full-system simulator (cores -> MC -> banks), which additionally
  enforces the per-episode DRAM timings the policy requests, and
* the fast activation-level attack simulator (``repro.attacks``), which
  issues back-to-back activations and only consults the hooks — this is
  how security verification runs millions of activations quickly.

Hooks are synchronous and must be cheap; all are called with the current
simulation time in picoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dram.timing import TimingSet, ddr5_base
from .prac_state import RefreshSchedule
from .security import SecurityTelemetry


@dataclass(frozen=True)
class EpisodeDecision:
    """What the policy decided for one activation episode of a bank.

    ``act_timing`` governs tRCD/tRAS/tRC of this episode; ``pre_timing``
    governs the closing precharge's tRP. ``counter_update`` marks whether
    the closing precharge performs the PRAC read-modify-write (and should
    therefore be a PREcu for MC-side designs).
    """

    act_timing: TimingSet
    pre_timing: TimingSet
    counter_update: bool


@dataclass
class MitigationEvent:
    """A victim-refresh performed by the policy (for the security ledger)."""

    bank: int
    row: int
    time_ps: int


@dataclass
class PolicyStats:
    """Counters every policy maintains; subclasses may extend."""

    activations: int = 0
    counter_updates: int = 0
    alerts: int = 0
    alerts_mitigation: int = 0
    alerts_srq_full: int = 0
    alerts_tardiness: int = 0
    mitigations: int = 0
    srq_insertions: int = 0
    ref_drains: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class MitigationPolicy:
    """Base class: the do-nothing (baseline, unprotected) policy.

    It also holds what every design shares, so that a design implements
    only its counting rule (see :meth:`on_refresh` and :meth:`on_rfm`).
    Given a geometry (``banks`` not None) it builds the per-bank
    :class:`~repro.mitigations.prac_state.RefreshSchedule` list and the
    :class:`~repro.mitigations.security.SecurityTelemetry` shadow.
    """

    #: short name used in experiment output
    name = "baseline"

    #: "subchannel": an ALERT's RFMs stall the whole sub-channel;
    #: "bank": only :meth:`alert_banks` stall (PRACtical)
    recovery_scope = "subchannel"

    def __init__(self, timing: TimingSet | None = None,
                 banks: int | None = None, rows: int = 0,
                 refresh_groups: int = 8192):
        self.timing = timing or ddr5_base()
        self.stats = PolicyStats()
        #: JEDEC ABO mitigation level: RFMs issued per ALERT (paper: 1).
        #: The harness stalls abo_level * tALERT_RFM and calls
        #: :meth:`on_rfm` that many times per ALERT episode.
        self.abo_level = 1
        #: mitigation events since the last drain, for the attack
        #: harness's ledger; None keeps none (a System's policies, whose
        #: runs read none)
        self.pending_mitigations: list[MitigationEvent] | None = []
        #: opt-in event tracer (set by the harness; None = no tracing)
        self.tracer = None
        #: sub-channel index for trace attribution (set by the harness)
        self.tracer_subchannel = -1
        #: shadow true-activation accounting
        #: (:class:`~repro.mitigations.security.SecurityTelemetry`);
        #: None for a policy built without a geometry (baseline)
        self.security: SecurityTelemetry | None = None
        #: one round-robin refresh schedule per bank
        self.refresh_schedules: list[RefreshSchedule] = []
        if banks is not None:
            self.security = SecurityTelemetry(banks, rows)
            self.refresh_schedules = [RefreshSchedule(rows, refresh_groups)
                                      for _ in range(banks)]
        #: the design has raised ALERT; :meth:`alert_requested` asserts
        #: it once an ACT has arrived since the last RFM
        self._alert = False
        #: what raised the pending ALERT, for the trace (MoPAC-D names
        #: its causes; an ALERT of the PRAC family has none)
        self.alert_causes: set[str] = set()
        # stats.activations at the last RFM; -1 lets the first ALERT
        # assert before any RFM
        self._rfm_acts = -1
        # Decisions are frozen and depend only on the (fixed) timing
        # sets, so the two flavours are built once instead of allocating
        # a fresh EpisodeDecision on every ACT of the hot path.
        self._plain_decision = EpisodeDecision(self.timing, self.timing,
                                               False)
        self._cu_decision = EpisodeDecision(self.timing, self.timing, True)

    # -- activation path -------------------------------------------------
    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        """Called when the MC issues an ACT. Returns the episode timings."""
        self.stats.activations += 1
        return self._plain_decision

    def on_precharge(self, bank: int, row: int, now: int,
                     counter_update: bool) -> None:
        """Called when the episode is closed."""

    def note_row_open(self, bank: int, row: int, open_ps: int) -> None:
        """Row-open-time report for Row-Press accounting (Appendix A).

        Called alongside the precharge with the episode's total open time;
        Row-Press-aware designs convert long open times into extra damage
        units. The default policy ignores it.
        """

    # -- maintenance path --------------------------------------------------
    def on_refresh(self, now: int, bank: int | None = None) -> None:
        """Called at every REF command (policy may drain/mitigate here).

        ``bank`` is None for an all-bank REF (the paper's setup) or the
        refreshed bank's index for DDR5 same-bank REFsb. Each refreshed
        bank advances its schedule, clears the refreshed rows from the
        shadow truth and runs :meth:`_refresh_bank`, bank by bank, so an
        all-bank REF is one same-bank REF of every bank in order.
        """
        schedules = self.refresh_schedules
        if not schedules:
            return  # no geometry (baseline): nothing is tracked
        for index in range(len(schedules)) if bank is None else (bank,):
            start, stop = schedules[index].advance()
            self.security.on_refresh_range(index, start, stop)
            self._refresh_bank(index, start, stop, now)

    def _refresh_bank(self, bank: int, start: int, stop: int,
                      now: int) -> None:
        """One bank's share of a REF, which refreshes rows [start, stop):
        clear the design's counters of those rows, drain or mitigate."""

    def alert_requested(self) -> bool:
        """True when the sub-channel is asserting ALERT.

        ABO allows a new ALERT only after an activation: a raised ALERT
        stays silent until an ACT arrives after the last RFM.
        """
        return self._alert and self.stats.activations > self._rfm_acts

    def alert_banks(self) -> tuple[int, ...]:
        """Banks the pending ALERT recovers when ``recovery_scope`` is
        "bank"; a sub-channel-wide recovery names none."""
        return ()

    def on_rfm(self, now: int) -> None:
        """Perform the work of one RFM (the 350 ns ABO service window).

        Called ``abo_level`` times per ALERT episode. Counts the RFM,
        records the RFM cadence at the episode's first, runs the
        design's :meth:`_serve_rfm` and re-arms: ALERT stays raised if
        the design says so, and asserts again after the next ACT.
        """
        stats = self.stats
        stats.alerts += 1
        if stats.activations > self._rfm_acts:  # first RFM of the episode
            self.security.on_rfm(stats.activations)
        self._alert = self._serve_rfm(now)
        self._rfm_acts = stats.activations

    def _serve_rfm(self, now: int) -> bool:
        """The design's RFM work; returns whether ALERT stays raised."""
        return False

    def timing_pair(self) -> tuple[TimingSet, TimingSet]:
        """(normal, counter-update) timing sets this policy can request.

        Most designs run every episode on one timing set, so both slots
        are :attr:`timing`; MoPAC-C overrides this with its dual sets.
        The MC uses the pair to bound episode timings before the episode
        decision exists, and the conformance oracle uses it to pick the
        right set from a traced episode's counter-update flag.
        """
        return self.timing, self.timing

    # -- introspection -----------------------------------------------------
    def counter_value(self, bank: int, row: int) -> int:
        """Current PRAC counter value for (bank, row); 0 if untracked."""
        return 0

    def drain_mitigations(self) -> list[MitigationEvent]:
        """Return and clear mitigation events (harness ledger hookup)."""
        events = self.pending_mitigations
        if not events:
            return []
        self.pending_mitigations = []
        return events

    def register_stats(self, registry, prefix: str) -> None:
        """Expose the policy's counters under ``prefix`` (registry hookup).

        Counting policies additionally publish the
        ``<prefix>.security.*`` family (drift vs ground truth, PRE
        rates, per-bank max disturbance, RFM cadence — see
        :mod:`repro.mitigations.security`).
        """
        registry.register(prefix, self.stats.as_dict)
        if self.security is not None:
            registry.register(f"{prefix}.security",
                              lambda: self.security.as_dict(self.stats))

    # -- helpers for subclasses ---------------------------------------------
    def _record_mitigation(self, bank: int, row: int, now: int) -> None:
        self.stats.mitigations += 1
        if self.tracer is not None:
            self.tracer.record(now, "MITIGATE", self.tracer_subchannel,
                               bank, row)
        # mirror the victim refresh into the shadow truth: the
        # aggressor's victims are fresh, and each victim row was
        # itself activated once by the refresh (footnote 5)
        self.security.on_mitigation(bank, row)
        if self.pending_mitigations is not None:
            self.pending_mitigations.append(MitigationEvent(bank, row, now))


class RefMitigationPolicy(MitigationPolicy):
    """A tracker that mitigates under REF (MINT, PrIDE, TRR).

    Every ``refs_per_mitigation``-th REF of a bank grants that bank one
    mitigation, :meth:`_mitigate_on_ref`. Each bank counts its own
    REFs, so an all-bank REF and a round of same-bank REFs grant the
    same mitigations.
    """

    def __init__(self, timing: TimingSet | None, banks: int, rows: int,
                 refresh_groups: int, refs_per_mitigation: int):
        super().__init__(timing, banks, rows, refresh_groups)
        if refs_per_mitigation < 1:
            raise ValueError("refs_per_mitigation must be >= 1")
        self.refs_per_mitigation = refs_per_mitigation
        self._bank_refs = [0] * banks

    def _refresh_bank(self, bank: int, start: int, stop: int,
                      now: int) -> None:
        self._bank_refs[bank] += 1
        if self._bank_refs[bank] % self.refs_per_mitigation == 0:
            self._mitigate_on_ref(bank, now)

    def _mitigate_on_ref(self, bank: int, now: int) -> None:
        """Spend the bank's granted mitigation."""
