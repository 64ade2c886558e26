"""Activation-level attack harness.

Drives a :class:`~repro.mitigations.base.MitigationPolicy` with an attack
pattern at the maximum legal activation rate, without the full memory
controller in the loop. Pacing model:

* per bank, one activation episode per row cycle (the episode's
  tRAS + tRP — attackers precharge immediately);
* across banks, ACT commands are spaced by tRRD, so a multi-bank pattern
  (Figure 14b) genuinely runs the banks in parallel;
* REF occupies the sub-channel for tRFC every tREFI;
* an ALERT lets the attacker keep operating for 180 ns, then stalls
  everything for the 350 ns RFM (the ABO protocol of Figure 3).

Two consumers:

* security verification — run millions of activations, then ask the
  :class:`~repro.attacks.ledger.HammerLedger` whether any row ever
  exceeded T_RH unmitigated;
* attack-throughput measurement (Tables 9/10) — via
  :func:`measure_slowdown`, which compares wall time against an identical
  run on the unprotected baseline.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from ..mitigations.base import MitigationPolicy
from ..mitigations.prac import BaselinePolicy
from .ledger import HammerLedger, LedgerReport

Target = tuple[int, int]


@dataclass
class AttackResult:
    """Outcome of one harness run."""

    ledger: LedgerReport
    activations: int
    elapsed_ps: int
    alerts: int

    @property
    def acts_per_alert(self) -> float:
        return self.activations / self.alerts if self.alerts else float("inf")

    @property
    def attack_succeeded(self) -> bool:
        return self.ledger.attack_succeeded


class AttackHarness:
    """Paces a pattern through a policy with REF and ABO timing."""

    def __init__(self, policy: MitigationPolicy, trh: int,
                 banks: int = 32, rows: int = 65536,
                 refresh_groups: int = 8192, enable_refresh: bool = True,
                 observers: list | None = None):
        self.policy = policy
        self.trh = trh
        self.banks = banks
        self.rows = rows
        self.ledger = HammerLedger(banks, rows, trh, refresh_groups)
        #: notified in lockstep with the ledger (on_activate /
        #: on_refresh / on_mitigation) — the differential harness's
        #: shadow auditors plug in here
        self.observers = list(observers or [])
        self.enable_refresh = enable_refresh
        self.now = 0
        self.next_ref = policy.timing.tREFI
        self.bank_ready = [0] * banks
        self._recent_acts: collections.deque[int] = \
            collections.deque(maxlen=4)
        self._alert_deadline: int | None = None
        self._alerts = 0
        self._acts = 0

    def run(self, pattern: Iterator[Target], activations: int,
            stop_on_failure: bool = False) -> AttackResult:
        """Issue ``activations`` targets from ``pattern``."""
        if activations <= 0:
            raise ValueError(
                f"activations must be positive, got {activations}")
        # The per-ACT path is the hot loop of every security verdict:
        # hooks and timing fields live in locals, and the ALERT, REF and
        # mitigation helpers are entered only when they have work.
        # alert_requested() is pure in every policy, so it is not asked
        # while an ALERT deadline is already pending.
        policy = self.policy
        timing = policy.timing
        t_faw, t_rrd = timing.tFAW, timing.tRRD
        t_alert = timing.tALERT_NORMAL
        on_activate = policy.on_activate
        on_precharge = policy.on_precharge
        note_row_open = policy.note_row_open
        alert_requested = policy.alert_requested
        ledger = self.ledger
        count = ledger.on_activate
        observe = [observer.on_activate for observer in self.observers]
        bank_ready = self.bank_ready
        recent = self._recent_acts
        trh = self.trh
        now = self.now
        next_ref = self.next_ref if self.enable_refresh else math.inf
        deadline = self._alert_deadline
        acts = 0
        for _ in range(activations):
            bank, row = next(pattern)
            issue = bank_ready[bank]
            if issue < now:
                issue = now
            if len(recent) == 4 and recent[0] + t_faw > issue:
                issue = recent[0] + t_faw
            if deadline is not None and issue >= deadline:
                self.now = now
                self._maybe_service_alert(issue)
                now = self.now
                deadline = self._alert_deadline
                if issue < now:
                    issue = now
            if issue >= next_ref:
                issue = self._maybe_refresh(issue)
                next_ref = self.next_ref
            recent.append(issue)

            decision = on_activate(bank, row, issue)
            count(bank, row)
            for hook in observe:
                hook(bank, row)
            acts += 1
            act_timing = decision.act_timing
            t_ras = act_timing.tRAS
            on_precharge(bank, row, issue + t_ras, decision.counter_update)
            note_row_open(bank, row, t_ras)
            episode = t_ras + decision.pre_timing.tRP
            if episode < act_timing.tRC:
                episode = act_timing.tRC
            bank_ready[bank] = issue + episode
            if issue + t_rrd > now:
                now = issue + t_rrd
            if policy.pending_mitigations:
                self._apply_mitigations()
            if deadline is None and alert_requested():
                deadline = self._alert_deadline = issue + t_alert
            if stop_on_failure and ledger.max_count > trh:
                break
        self.now = now
        self._acts += acts
        return AttackResult(
            ledger=ledger.report(), activations=self._acts,
            elapsed_ps=max(now, max(bank_ready)),
            alerts=self._alerts,
        )

    # ------------------------------------------------------------------
    def _maybe_refresh(self, issue: int) -> int:
        """Inject REF commands due before ``issue``; returns revised time."""
        timing = self.policy.timing
        while issue >= self.next_ref:
            self.policy.on_refresh(self.next_ref)
            self.ledger.on_refresh()
            for observer in self.observers:
                observer.on_refresh()
            self._apply_mitigations()
            ref_end = self.next_ref + timing.tRFC
            issue = max(issue, ref_end)
            self._block_all(ref_end)
            self.next_ref += timing.tREFI
        return issue

    def _maybe_service_alert(self, issue: int) -> None:
        """If the ALERT window has closed, pay the RFM stall."""
        if self._alert_deadline is None or issue < self._alert_deadline:
            return
        timing = self.policy.timing
        level = getattr(self.policy, "abo_level", 1)
        scope = getattr(self.policy, "recovery_scope", "subchannel")
        recovery = (list(self.policy.alert_banks())
                    if scope == "bank" else None)
        stall_end = self._alert_deadline + level * timing.tALERT_RFM
        for _ in range(level):
            self.policy.on_rfm(stall_end)
        self._alerts += 1
        self._apply_mitigations()
        if recovery is None:
            self._block_all(stall_end)
            self.now = max(self.now, stall_end)
        else:
            # bank-scoped recovery: only the banks the ALERT named stall
            # for the RFM; the rest of the sub-channel keeps issuing
            for bank in recovery:
                self.bank_ready[bank] = max(self.bank_ready[bank],
                                            stall_end)
            self.now = max(self.now, self._alert_deadline)
        self._alert_deadline = None
        if self.policy.alert_requested():
            self._alert_deadline = stall_end + timing.tALERT_NORMAL

    def _block_all(self, until: int) -> None:
        for bank in range(self.banks):
            self.bank_ready[bank] = max(self.bank_ready[bank], until)

    def _apply_mitigations(self) -> None:
        for event in self.policy.drain_mitigations():
            self.ledger.on_mitigation(event.bank, event.row)
            for observer in self.observers:
                observer.on_mitigation(event.bank, event.row)


def run_attack(policy: MitigationPolicy, pattern: Iterator[Target],
               activations: int, trh: int, banks: int = 32,
               rows: int = 65536, refresh_groups: int = 8192,
               enable_refresh: bool = True,
               stop_on_failure: bool = False) -> AttackResult:
    """One-shot convenience wrapper around :class:`AttackHarness`."""
    harness = AttackHarness(policy, trh, banks, rows, refresh_groups,
                            enable_refresh)
    return harness.run(pattern, activations, stop_on_failure)


def measure_slowdown(policy: MitigationPolicy,
                     pattern_factory: Callable[[], Iterator[Target]],
                     activations: int, trh: int, banks: int = 32,
                     rows: int = 65536, refresh_groups: int = 8192) -> float:
    """Attack-throughput slowdown vs the unprotected baseline.

    Runs the same pattern through ``policy`` and through
    :class:`BaselinePolicy` (baseline timings, no ALERTs) and compares
    wall-clock time — the Section 7 metric behind Tables 9 and 10.
    """
    protected = run_attack(policy, pattern_factory(), activations, trh,
                           banks, rows, refresh_groups)
    baseline = run_attack(BaselinePolicy(), pattern_factory(), activations,
                          trh, banks, rows, refresh_groups)
    if protected.elapsed_ps == 0:
        return 0.0
    return 1.0 - baseline.elapsed_ps / protected.elapsed_ps
