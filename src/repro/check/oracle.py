"""Independent DDR5 protocol-conformance oracle.

Replays a :mod:`repro.obs` event stream (ACT / PRE / RD / WR / REF /
RFM / ALERT) and re-verifies it against a legality model implemented
*from the JEDEC rules*, not from the memory controller's per-bank timing
state. The controller dates every command at its earliest legal time
and does not re-check legality itself, so this oracle is the
independent second implementation that catches a misunderstanding of
the rules (HammerSim's validation argument, applied to our own model).

Checked rules (rule ids in parentheses):

* open-row exclusivity — ACT only on an idle bank (``act.open``),
  column commands only on the open row (``col.closed`` / ``col.row``),
  PRE only on an open bank (``pre.idle`` / ``pre.row``);
* ACT spacing — tRP/tRC after the closing PRE (``act.early``), tRRD
  between any two ACTs of a sub-channel (``act.trrd``), at most four
  ACTs per rolling tFAW window (``act.tfaw``);
* column timing — tRCD after the ACT (``col.early``), data-bus bursts
  serialized tBURST apart, the model's tCCD equivalent (``bus.overlap``);
* precharge timing — tRAS after ACT and tWR + tBURST after a write
  (``pre.early``);
* refresh — REFab cadence anchored at k·tREFI (``ref.cadence``) with
  forced closes confined to the refresh window and all banks quiet
  until tRFC after the last close (``act.refblock`` / ``act.blocked``
  / ``col.refblock`` / ``col.blocked`` / ``pre.blocked``); REFsb
  round-robin rotation (``ref.rotation``) and per-bank cadence at
  (k·tREFI)/banks (``ref.cadence``) with a tRFCsb blackout;
* the ABO contract — once ALERT is asserted the controller may operate
  for at most tALERT_NORMAL (180 ns) before the RFM; any command dated
  past an unserviced ALERT's deadline is flagged (``abo.window``), and
  every RFM group imposes a level × tALERT_RFM (350 ns) stall
  (``act.blocked`` etc. via the block window).

Per-episode timing: an ACT/PRE record carries the episode's
counter-update flag (``cu``), which selects between the normal and the
PRAC (counter-update) timing sets — exactly how MoPAC-C's dual
precharge flavours enter the rules. The pair comes from
:meth:`repro.mitigations.base.MitigationPolicy.timing_pair`.

Model conventions the oracle mirrors (documented in
``docs/verification.md``): a refresh executes "late" when it would
collide with an imminent ABO stall, so the cadence check allows a
bounded slack past each anchor; a trailing ALERT with no RFM before the
trace ends is only a violation if commands continue past its deadline.
"""

from __future__ import annotations

import collections
import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from ..dram.timing import TimingSet, ddr5_base
from ..obs.tracer import TraceEvent

#: column commands
_COLUMN_KINDS = ("RD", "WR")

#: hard cap so a broken trace cannot produce an unbounded report
DEFAULT_MAX_VIOLATIONS = 200


class Violation(NamedTuple):
    """One legality-rule breach found in a trace."""

    rule: str
    time_ps: int
    subchannel: int
    bank: int
    row: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"[{self.rule}] t={self.time_ps}ps sc={self.subchannel} "
                f"bank={self.bank} row={self.row}: {self.detail}")


@dataclass(frozen=True)
class OracleConfig:
    """Everything the oracle needs to know about the device under test."""

    #: timing set of plain episodes
    normal: TimingSet
    #: timing set of counter-update (PREcu) episodes
    counter_update: TimingSet
    #: banks per sub-channel
    banks: int
    #: "all-bank" (REFab) or "same-bank" (REFsb)
    refresh_mode: str = "all-bank"
    #: RFMs issued per ALERT episode
    abo_level: int = 1
    #: "subchannel": an RFM stalls everything; "bank": RFMs carry a bank
    #: index and stall only that bank (PRACtical recovery isolation)
    recovery_scope: str = "subchannel"

    @property
    def cadence_slack_ps(self) -> int:
        """How far past its anchor a refresh may legally execute.

        A refresh defers past an imminent ABO stall (ALERT window plus
        the full RFM stall) and its forced closes wait out tRAS / write
        recovery; everything beyond that bound means a skipped or
        drifting refresh.
        """
        t = self.normal
        return (t.tALERT_NORMAL + self.abo_level * t.tALERT_RFM
                + t.tRAS + t.tWR + 2 * t.tBURST)

    def episode(self, cu: bool) -> TimingSet:
        return self.counter_update if cu else self.normal

    @classmethod
    def from_policy(cls, policy, banks: int,
                    refresh_mode: str = "all-bank") -> "OracleConfig":
        normal, cu = policy.timing_pair()
        return cls(normal=normal, counter_update=cu, banks=banks,
                   refresh_mode=refresh_mode,
                   abo_level=getattr(policy, "abo_level", 1),
                   recovery_scope=getattr(policy, "recovery_scope",
                                          "subchannel"))


@dataclass
class _BankState:
    open_row: int | None = None
    act_cu: bool = False
    last_act: int = -(10 ** 18)
    ready_act: int = 0
    ready_col: int = 0
    ready_pre: int = 0
    #: REF/RFM blackout
    block_end: int = 0
    #: refresh that must force-close this bank is still pending
    ref_pending: bool = False


@dataclass
class _ChannelState:
    banks: list[_BankState]
    last_act: int = -(10 ** 18)
    recent_acts: collections.deque = field(
        default_factory=lambda: collections.deque(maxlen=4))
    last_col: int = -(10 ** 18)
    #: assertion times of ALERTs not yet answered by an RFM group
    alerts: collections.deque = field(default_factory=collections.deque)
    #: current RFM group's start time (same-time RFMs share one ALERT)
    rfm_group_time: int | None = None
    #: end of the current ABO stall (level x tALERT_RFM past the RFM)
    stall_end: int = 0
    #: pending REFab: (base_time, max forced-close time so far)
    refab_pending: tuple[int, int] | None = None
    refab_count: int = 0
    refsb_count: int = 0


class ConformanceOracle:
    """Replays an event stream against the independent legality model."""

    def __init__(self, config: OracleConfig,
                 max_violations: int = DEFAULT_MAX_VIOLATIONS):
        self.config = config
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        self._channels: dict[int, _ChannelState] = {}
        self.events_checked = 0

    # -- public API --------------------------------------------------------
    def verify(self, events: Iterable[TraceEvent]) -> list[Violation]:
        """Check every event; returns (and stores) the violations found."""
        ordered = sorted(events, key=lambda e: e.time_ps)  # stable: ties
        for event in ordered:                              # keep rec order
            if len(self.violations) >= self.max_violations:
                break
            self._dispatch(event)
            self.events_checked += 1
        return self.violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self, limit: int = 10) -> str:
        lines = [f"{len(self.violations)} violation(s) in "
                 f"{self.events_checked} events"]
        lines += [str(v) for v in self.violations[:limit]]
        if len(self.violations) > limit:
            lines.append(f"... and {len(self.violations) - limit} more")
        return "\n".join(lines)

    # -- plumbing ----------------------------------------------------------
    def _channel(self, sc: int) -> _ChannelState:
        state = self._channels.get(sc)
        if state is None:
            state = _ChannelState(
                banks=[_BankState() for _ in range(self.config.banks)])
            self._channels[sc] = state
        return state

    def _flag(self, rule: str, event: TraceEvent, detail: str) -> None:
        self.violations.append(Violation(
            rule, event.time_ps, event.subchannel, event.bank,
            event.row, detail))

    def _dispatch(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == "ACT":
            self._on_act(event)
        elif kind == "PRE":
            self._on_pre(event)
        elif kind in _COLUMN_KINDS:
            self._on_column(event)
        elif kind == "REF":
            self._on_ref(event)
        elif kind == "RFM":
            self._on_rfm(event)
        elif kind == "ALERT":
            self._channel(event.subchannel).alerts.append(event.time_ps)
        # DRAIN / MITIGATE are policy-internal bookkeeping, not commands.

    def _check_alert_deadline(self, ch: _ChannelState,
                              event: TraceEvent) -> None:
        """Any command past an unserviced ALERT's deadline is illegal."""
        if not ch.alerts:
            return
        deadline = ch.alerts[0] + self.config.normal.tALERT_NORMAL
        if event.time_ps >= deadline:
            self._flag("abo.window", event,
                       f"command at {event.time_ps} but ALERT from "
                       f"{ch.alerts[0]} required an RFM by {deadline}")

    # -- row commands ------------------------------------------------------
    def _on_act(self, event: TraceEvent) -> None:
        ch = self._channel(event.subchannel)
        bank = ch.banks[event.bank]
        t = event.time_ps
        timing = self.config.episode(event.cu)
        self._check_alert_deadline(ch, event)
        if ch.refab_pending is not None or bank.ref_pending:
            self._flag("act.refblock", event,
                       "ACT while a refresh is still closing rows")
        if bank.open_row is not None:
            self._flag("act.open", event,
                       f"ACT while row {bank.open_row} open")
        if t < bank.ready_act:
            self._flag("act.early", event,
                       f"ACT at {t} before tRP/tRC allow {bank.ready_act}")
        if t < bank.block_end:
            self._flag("act.blocked", event,
                       f"ACT at {t} inside REF blackout until "
                       f"{bank.block_end}")
        if t < ch.stall_end:
            self._flag("abo.stall", event,
                       f"ACT at {t} inside ABO stall until {ch.stall_end}")
        if t < ch.last_act + self.config.normal.tRRD:
            self._flag("act.trrd", event,
                       f"ACT at {t} within tRRD of ACT at {ch.last_act}")
        if (len(ch.recent_acts) == 4
                and t < ch.recent_acts[0] + self.config.normal.tFAW):
            self._flag("act.tfaw", event,
                       f"fifth ACT at {t} inside the tFAW window opened "
                       f"at {ch.recent_acts[0]}")
        bank.open_row = event.row
        bank.act_cu = event.cu
        bank.last_act = t
        bank.ready_col = t + timing.tRCD
        bank.ready_pre = t + timing.tRAS
        ch.last_act = t
        ch.recent_acts.append(t)

    def _on_pre(self, event: TraceEvent) -> None:
        ch = self._channel(event.subchannel)
        bank = ch.banks[event.bank]
        t = event.time_ps
        forced = self._consume_forced_close(ch, bank, t)
        if not forced:
            self._check_alert_deadline(ch, event)
            if t < bank.block_end:
                self._flag("pre.blocked", event,
                           f"PRE at {t} inside REF blackout until "
                           f"{bank.block_end}")
            if t < ch.stall_end:
                self._flag("abo.stall", event,
                           f"PRE at {t} inside ABO stall until "
                           f"{ch.stall_end}")
        if bank.open_row is None:
            self._flag("pre.idle", event, "PRE while bank idle")
            return
        if event.row != -1 and event.row != bank.open_row:
            self._flag("pre.row", event,
                       f"PRE names row {event.row} but open row is "
                       f"{bank.open_row}")
        if t < bank.ready_pre:
            self._flag("pre.early", event,
                       f"PRE at {t} before tRAS/tWR allow {bank.ready_pre}")
        timing = self.config.episode(event.cu)
        bank.ready_act = max(t + timing.tRP, bank.last_act + timing.tRC)
        bank.open_row = None

    def _on_column(self, event: TraceEvent) -> None:
        ch = self._channel(event.subchannel)
        bank = ch.banks[event.bank]
        t = event.time_ps
        timing = self.config.episode(bank.act_cu)
        self._check_alert_deadline(ch, event)
        if ch.refab_pending is not None or bank.ref_pending:
            self._flag("col.refblock", event,
                       "column command while a refresh is closing rows")
        if bank.open_row is None:
            self._flag("col.closed", event,
                       f"{event.kind} on an idle bank")
            return
        if bank.open_row != event.row:
            self._flag("col.row", event,
                       f"{event.kind} to row {event.row} but open row is "
                       f"{bank.open_row}")
        if t < bank.ready_col:
            self._flag("col.early", event,
                       f"{event.kind} at {t} before tRCD allows "
                       f"{bank.ready_col}")
        if t < bank.block_end:
            self._flag("col.blocked", event,
                       f"{event.kind} at {t} inside REF blackout "
                       f"until {bank.block_end}")
        if t < ch.stall_end:
            self._flag("abo.stall", event,
                       f"{event.kind} at {t} inside ABO stall until "
                       f"{ch.stall_end}")
        if t < ch.last_col + self.config.normal.tBURST:
            self._flag("bus.overlap", event,
                       f"{event.kind} at {t} overlaps the burst started "
                       f"at {ch.last_col}")
        ch.last_col = t
        if event.kind == "WR":
            bank.ready_pre = max(bank.ready_pre,
                                 t + timing.tBURST + timing.tWR)

    # -- maintenance -------------------------------------------------------
    def _on_ref(self, event: TraceEvent) -> None:
        if self.config.refresh_mode == "same-bank" or event.bank != -1:
            self._on_refsb(event)
        else:
            self._on_refab(event)

    def _on_refab(self, event: TraceEvent) -> None:
        ch = self._channel(event.subchannel)
        t = event.time_ps
        self._finalize_refab(ch)  # previous window must be fully closed
        ch.refab_count += 1
        anchor = ch.refab_count * self.config.normal.tREFI
        if not 0 <= t - anchor <= self.config.cadence_slack_ps:
            self._flag("ref.cadence", event,
                       f"REFab #{ch.refab_count} at {t}, anchor {anchor} "
                       f"(slack {self.config.cadence_slack_ps})")
        open_banks = [b for b in ch.banks if b.open_row is not None]
        for bank in open_banks:
            bank.ref_pending = True
        ch.refab_pending = (t, t)
        if not open_banks:
            self._finalize_refab(ch)

    def _on_refsb(self, event: TraceEvent) -> None:
        ch = self._channel(event.subchannel)
        t = event.time_ps
        ch.refsb_count += 1
        expected_bank = (ch.refsb_count - 1) % self.config.banks
        if event.bank != expected_bank:
            self._flag("ref.rotation", event,
                       f"REFsb #{ch.refsb_count} on bank {event.bank}, "
                       f"round-robin expects {expected_bank}")
        anchor = (ch.refsb_count * self.config.normal.tREFI
                  // self.config.banks)
        if not 0 <= t - anchor <= self.config.cadence_slack_ps:
            self._flag("ref.cadence", event,
                       f"REFsb #{ch.refsb_count} at {t}, anchor {anchor} "
                       f"(slack {self.config.cadence_slack_ps})")
        if 0 <= event.bank < self.config.banks:
            bank = ch.banks[event.bank]
            if bank.open_row is not None:
                bank.ref_pending = True
                bank.block_end = max(bank.block_end, t)
            else:
                bank.block_end = max(bank.block_end,
                                     t + self.config.normal.tRFCsb)

    def _consume_forced_close(self, ch: _ChannelState, bank: _BankState,
                              t: int) -> bool:
        """Recognize a refresh's forced close; returns True if it was one.

        After the commit-horizon rules, no normal PRE can be dated at or
        past a refresh that touches its bank, so a PRE on a
        refresh-pending bank is unambiguously the refresh closing it.
        """
        if not bank.ref_pending:
            return False
        bank.ref_pending = False
        if ch.refab_pending is not None:
            base, close_by = ch.refab_pending
            ch.refab_pending = (base, max(close_by, t))
            if not any(b.ref_pending for b in ch.banks):
                self._finalize_refab(ch)
        else:  # REFsb forced close: blackout runs tRFCsb past the close
            bank.block_end = max(bank.block_end,
                                 t + self.config.normal.tRFCsb)
        return True

    def _finalize_refab(self, ch: _ChannelState) -> None:
        """All forced closes seen: impose the shared tRFC blackout."""
        if ch.refab_pending is None:
            return
        base, close_by = ch.refab_pending
        end = max(base, close_by) + self.config.normal.tRFC
        for bank in ch.banks:
            bank.block_end = max(bank.block_end, end)
            bank.ref_pending = False
        ch.refab_pending = None

    def _on_rfm(self, event: TraceEvent) -> None:
        ch = self._channel(event.subchannel)
        t = event.time_ps
        stall = self.config.normal.tALERT_RFM
        bank_scoped = (self.config.recovery_scope == "bank"
                       and event.bank >= 0)
        if ch.rfm_group_time == t:
            if bank_scoped:
                # same recovery group, another named bank: only that
                # bank gains a blackout — the sub-channel keeps issuing
                bank = ch.banks[event.bank]
                bank.block_end = max(bank.block_end, t + stall)
            else:
                # another RFM of the same ALERT episode: extend the stall
                ch.stall_end += stall
            return
        ch.rfm_group_time = t
        if ch.alerts:
            alert_t = ch.alerts.popleft()
            deadline = alert_t + self.config.normal.tALERT_NORMAL
            if t > deadline:
                self._flag("abo.window", event,
                           f"RFM at {t} but the ALERT from {alert_t} "
                           f"required it by {deadline}")
        else:
            self._flag("abo.unprompted", event, "RFM with no ALERT pending")
        if bank_scoped:
            bank = ch.banks[event.bank]
            bank.block_end = max(bank.block_end, t + stall)
        else:
            ch.stall_end = max(ch.stall_end, t + stall)


# ---------------------------------------------------------------------------
# Conveniences
# ---------------------------------------------------------------------------
def verify_events(events: Iterable[TraceEvent],
                  config: OracleConfig) -> list[Violation]:
    """One-shot verification; returns the violations found."""
    return ConformanceOracle(config).verify(events)


def events_from_jsonl(path: str) -> list[TraceEvent]:
    """Load a tracer JSONL export back into :class:`TraceEvent` records."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            d = json.loads(line)
            events.append(TraceEvent(d["t"], d["kind"], d.get("sc", -1),
                                     d.get("bank", -1), d.get("row", -1),
                                     d.get("cause", ""),
                                     bool(d.get("cu", False))))
    return events


def default_config(banks: int | None = None,
                   refresh_mode: str = "all-bank") -> OracleConfig:
    """Oracle config for a baseline (single timing set) device."""
    from ..config import DRAMConfig
    base = ddr5_base()
    return OracleConfig(normal=base, counter_update=base,
                        banks=banks or DRAMConfig().banks_per_subchannel,
                        refresh_mode=refresh_mode)
