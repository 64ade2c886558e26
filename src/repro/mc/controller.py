"""Memory controller: one instance per DDR5 sub-channel.

Implements a per-bank-queue FR-FCFS scheduler (row hits first, then oldest)
over per-bank timing state (:class:`~repro.dram.bank.TimingSoA`), a shared
data bus, ACT-to-ACT spacing, all-bank refresh every tREFI, the ABO ALERT
protocol, and the pluggable row-closure policies of Appendix C.

The controller is event-driven: it pushes opcode events onto the
simulation's :class:`~repro.mc.events.EventLoop` and runs them from
:meth:`MemoryController.service` and :meth:`MemoryController.maintain`.
Every DRAM-side decision asks the mitigation policy for the episode's
timing set, which is how PRAC's inflated timings and MoPAC-C's dual
precharge flavours enter the timing path.

The per-request path is written for speed: one function selects,
dates and issues a service (PRE / ACT / column) with no intermediate
allocation, reading bank timing by index. It elides the legality
guards a bank state machine would assert, so :mod:`repro.check`'s
conformance oracle and fuzzer re-verify every rule from traces.
"""

from __future__ import annotations

import collections
import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from ..config import DRAMConfig
from ..dram.bank import BankStats, TimingSoA
from ..mitigations.base import EpisodeDecision, MitigationPolicy
from ..obs.registry import Histogram, StatsRegistry
from ..obs.tracer import EventTracer
from .events import (FASTFORWARD_MIN_GAP_PS, OP_COMPLETE, OP_REF,
                     OP_REFSB, OP_RFM, OP_SERVICE, OP_TIMEOUT, EventLoop)
from .pagepolicy import OpenPagePolicy, PagePolicy
from .request import MemRequest

#: How deep into a bank queue FR-FCFS looks for a row hit.
FRFCFS_WINDOW = 8

#: Latency histogram bucket edges (ps): 50 ns .. 10 us.
LATENCY_BOUNDS_PS = tuple(n * 1000 for n in (
    50, 75, 100, 150, 200, 300, 400, 500, 750,
    1000, 1500, 2000, 3000, 5000, 10000))


@dataclass
class MCStats:
    requests: int = 0
    reads: int = 0
    writes: int = 0
    serviced: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    activations: int = 0
    refreshes: int = 0
    alerts: int = 0
    rfm_commands: int = 0
    total_latency_ps: int = 0
    read_latency_ps: int = 0
    read_serviced: int = 0

    @property
    def classified_accesses(self) -> int:
        """Serviced requests, by row-buffer outcome (one class each)."""
        return self.row_hits + self.row_misses + self.row_conflicts

    @property
    def row_buffer_hit_rate(self) -> float:
        total = self.classified_accesses
        return self.row_hits / total if total else 0.0

    #: alias matching the registry/ISSUE nomenclature
    row_hit_rate = row_buffer_hit_rate

    @property
    def mean_latency_ns(self) -> float:
        return (self.total_latency_ps / self.requests / 1000
                if self.requests else 0.0)

    @property
    def mean_read_latency_ns(self) -> float:
        """Average arrival-to-data latency of serviced reads."""
        return (self.read_latency_ps / self.read_serviced / 1000
                if self.read_serviced else 0.0)

    def derived(self) -> dict[str, float]:
        """The derived accessors, for stats-registry snapshots."""
        return {
            "row_buffer_hit_rate": self.row_buffer_hit_rate,
            "mean_latency_ns": self.mean_latency_ns,
            "mean_read_latency_ns": self.mean_read_latency_ns,
        }


class MemoryController:
    """FR-FCFS controller for one sub-channel."""

    def __init__(self, subchannel: int, config: DRAMConfig,
                 policy: MitigationPolicy, events: EventLoop,
                 page_policy: PagePolicy | None = None,
                 refresh_mode: str = "all-bank"):
        if refresh_mode not in ("all-bank", "same-bank"):
            raise ValueError(f"unknown refresh_mode {refresh_mode!r}")
        self.refresh_mode = refresh_mode
        self._all_bank = refresh_mode == "all-bank"
        self._next_ref_bank = 0
        self.subchannel = subchannel
        self.config = config
        self.policy = policy
        self.events = events
        # the service path pushes straight onto the heap
        self._heap = events.heap
        self._seq = events.seq
        self._owners = events.owners
        self._return_ps = events.return_ps
        self.page_policy = page_policy or OpenPagePolicy()
        #: OpenPagePolicy's post-column hook is a pure no-op (keep_open
        #: is always True, no timeout); skipping it saves a queue scan
        #: per serviced request. Only the exact library classes qualify
        #: — a subclass may override the hooks.
        self._page_noop = self.page_policy.__class__ in (
            OpenPagePolicy, PagePolicy)
        n = config.banks_per_subchannel
        self.soa = TimingSoA(n)
        self.bank_stats = [BankStats() for _ in range(n)]
        self.queues: list[collections.deque[MemRequest]] = [
            collections.deque() for _ in range(n)
        ]
        #: the episode decision governing each bank's current open row
        self.episodes: list[EpisodeDecision | None] = [None] * n
        #: whether a service pass is already scheduled per bank
        self._bank_scheduled = [False] * n
        self._bank_last_access = [0] * n
        self.bus_free = 0
        self.next_act_ok = 0
        #: issue times of the last four ACTs (tFAW rolling window)
        self._recent_acts = collections.deque(maxlen=4)
        self.next_ref = policy.timing.tREFI
        #: when the pending refresh event will actually execute (equals
        #: the cadence anchor unless the refresh was deferred past an
        #: RFM stall); this is what the commit horizon consults
        self._ref_horizon = self.next_ref
        #: REFsb commands issued so far (same-bank mode cadence anchor)
        self._refsb_count = 0
        self._alert_in_flight = False
        #: RFM pop time of the in-flight ALERT episode (commit horizon)
        self._alert_deadline: int | None = None
        pair = policy.timing_pair()
        #: pessimistic tRCD before the episode decision exists
        self._trcd_bound = max(pair[0].tRCD, pair[1].tRCD)
        #: pessimistic span from the column grant to the last date the
        #: episode can commit (the closing PRE behind a write's
        #: recovery, or the tRAS wait)
        tail = max(t.tRAS + t.tWR + 2 * t.tBURST for t in pair)
        #: how far past an event pop a service may date commands and
        #: still stay inside the tALERT_NORMAL grace of any ALERT that
        #: a later-popping event asserts
        self._fresh_slack = policy.timing.tALERT_NORMAL - tail
        # The bus/ACT-spacing constants come from the policy's fixed
        # timing set; scalar copies spare the attribute chain per service.
        timing = policy.timing
        self._tCAS = timing.tCAS
        self._tBURST = timing.tBURST
        self._tRRD = timing.tRRD
        self._tFAW = timing.tFAW
        # id(TimingSet) -> (timing, tRCD, tRAS, tCAS+tBURST, tBURST,
        # tBURST+tWR). Policies hand out a couple of timing singletons;
        # keeping the object in the tuple pins its id.
        self._tscal: dict = {}
        self.stats = MCStats()
        #: arrival-to-data latency census of serviced requests
        self.latency_hist = Histogram(LATENCY_BOUNDS_PS)
        #: optional callback (time_ps, bank, row) fired on every ACT
        self.act_hook: Callable[[int, int, int], None] | None = None
        #: opt-in event tracer; None (the default) costs one check per site
        self.tracer: EventTracer | None = None

    def register_stats(self, registry: StatsRegistry, prefix: str) -> None:
        """Expose controller, latency, and per-bank stats under ``prefix``."""
        registry.register(prefix, lambda: {
            **{k: v for k, v in self.stats.__dict__.items()},
            **self.stats.derived(),
        })
        registry.register(f"{prefix}.latency_ps",
                          self.latency_hist.as_dict)
        for index, stats in enumerate(self.bank_stats):
            registry.register(f"{prefix}.bank.{index}",
                              lambda s=stats: dict(s.__dict__))

    # ------------------------------------------------------------------
    # Request entry
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic refresh stream.

        All-bank mode issues one REFab every tREFI (the paper's setup);
        same-bank mode spreads one REFsb per bank across each tREFI, so
        every bank is still refreshed at the tREFI cadence but only one
        bank is ever blocked (for the shorter tRFCsb).
        """
        if self.refresh_mode == "same-bank":
            self.next_ref = self.policy.timing.tREFI \
                // len(self.bank_stats)
            self._refsb_count = 0
            self._ref_horizon = self.next_ref
            self.events.push(self.next_ref, OP_REFSB, self, 0)
        else:
            self._ref_horizon = self.next_ref
            self.events.push(self.next_ref, OP_REF, self, 0)

    def enqueue(self, request: MemRequest, now: int) -> None:
        stats = self.stats
        stats.requests += 1
        if request.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        self.queues[request.bank].append(request)
        arrival = request.arrival_ps
        self._kick(request.bank, now if now >= arrival else arrival)

    def pending(self) -> int:
        return sum(len(q) for q in self.queues)

    def _kick(self, bank_index: int, when: int) -> None:
        if self._bank_scheduled[bank_index]:
            return
        self._bank_scheduled[bank_index] = True
        self.events.push(when, OP_SERVICE, self, bank_index)

    def maintain(self, op: int, arg, now: int) -> None:
        """Run one of this controller's non-service events."""
        if op == OP_TIMEOUT:
            self._timeout_close(arg[0], arg[1], now)
        elif op == OP_REF:
            self._ref_event(now)
        elif op == OP_REFSB:
            self._refsb_event(now)
        elif op == OP_RFM:
            self._rfm_event(now)
        else:
            raise ValueError(f"not a controller event: {op!r}")

    # ------------------------------------------------------------------
    # Per-bank service
    # ------------------------------------------------------------------
    def service(self, bank_index: int, now: int) -> int:
        """Service ``bank_index`` at ``now``; returns the advanced clock.

        Selects the request (FR-FCFS: oldest row hit within the window,
        else oldest), defers it if its commands would be dated past the
        commit horizon or the ALERT grace, else issues PRE / ACT /
        column as needed. When the post-column re-arm would be the very
        next event the loop pops (no pending heap entry fires at or
        before it), the next service runs *inline* instead of
        round-tripping through the heap; the returned time tells the
        event loop how far the clock moved.
        """
        scheduled = self._bank_scheduled
        scheduled[bank_index] = False
        queue = self.queues[bank_index]
        heappush = heapq.heappush
        heap = self._heap
        seq = self._seq
        soa = self.soa
        while True:
            if not queue:
                return now
            blocked = soa.blocked_until[bank_index]
            if blocked > now:
                scheduled[bank_index] = True
                heappush(heap, (blocked, next(seq), OP_SERVICE, self,
                                bank_index))
                return now

            # FR-FCFS: oldest row hit within the window, else oldest.
            open_rows = soa.open_row
            open_row = open_rows[bank_index]
            request = queue[0]
            req_pos = 0
            if open_row >= 0 and request.row != open_row:
                pos = 1
                for other in queue:
                    if pos > FRFCFS_WINDOW:
                        break
                    if other.row == open_row:
                        request = other
                        req_pos = pos - 1
                        break
                    pos += 1

            # Commit-freshness check: compute the latest command date
            # this service would commit, without mutating anything, using
            # the pessimistic tRCD bound in place of the not-yet-made
            # episode decision; defer past the horizon / outside the
            # grace. Re-kicking at the horizon means the deferred service
            # observes the maintenance event's blocking (and forced
            # closes) exactly as an in-order controller would.
            arrival = request.arrival_ps
            eff_now = now if now >= arrival else arrival
            if self._all_bank:
                horizon = self._ref_horizon
                deadline = self._alert_deadline
                if deadline is not None and deadline < horizon:
                    horizon = deadline
            else:
                horizon = self._commit_horizon(bank_index)
            bus_floor = self.bus_free - self._tCAS
            hit = open_row >= 0 and request.row == open_row
            t_pre = t_act = 0
            if hit:
                t_col = eff_now
                ready_col = soa.ready_col[bank_index]
                earliest = ready_col if ready_col >= blocked else blocked
                if earliest > t_col:
                    t_col = earliest
                if bus_floor > t_col:
                    t_col = bus_floor
                latest = t_col
            else:
                if open_row >= 0:  # conflict: the close chains into the ACT
                    pre_timing = self.episodes[bank_index].pre_timing
                    ready_pre = soa.ready_pre[bank_index]
                    earliest = ready_pre if ready_pre >= blocked else blocked
                    t_pre = eff_now if eff_now >= earliest else earliest
                    ready_act = t_pre + pre_timing.tRP
                    bound = soa.last_act[bank_index] + pre_timing.tRC
                    if bound > ready_act:
                        ready_act = bound
                    if blocked > ready_act:
                        ready_act = blocked
                else:
                    ready_act = soa.ready_act[bank_index]
                    if blocked > ready_act:
                        ready_act = blocked
                t_act = eff_now if eff_now >= ready_act else ready_act
                if self.next_act_ok > t_act:
                    t_act = self.next_act_ok
                recent = self._recent_acts
                if len(recent) == 4:
                    bound = recent[0] + self._tFAW
                    if bound > t_act:
                        t_act = bound
                latest = t_act + self._trcd_bound
                if bus_floor > latest:
                    latest = bus_floor
            if latest - now > self._fresh_slack:
                # A not-yet-arrived request, a deep data-bus backlog, or
                # a long ready-time chain would forward-date commands
                # more than tALERT_NORMAL past this pop — potentially
                # inside the window or stall of an ALERT that a
                # later-popping event asserts. Wait until the whole
                # chain's dates fall within the grace.
                scheduled[bank_index] = True
                heappush(heap, (latest - self._fresh_slack, next(seq),
                                OP_SERVICE, self, bank_index))
                return now
            if latest >= horizon:
                scheduled[bank_index] = True
                heappush(heap, (horizon, next(seq), OP_SERVICE, self,
                                bank_index))
                return now

            # Issue: PRE / ACT / column as needed.
            stats = self.stats
            row = request.row
            bank_stats = self.bank_stats[bank_index]
            tracer = self.tracer
            if hit:
                stats.row_hits += 1
                episode_timing = self.episodes[bank_index].act_timing
                scal = self._tscal.get(id(episode_timing))
                if scal is None:
                    scal = self._new_scal(episode_timing)
            else:
                if open_row >= 0:
                    stats.row_conflicts += 1
                    bank_stats.row_conflicts += 1
                    self._close(bank_index, t_pre)
                    act_cause = "conflict"
                else:
                    stats.row_misses += 1
                    act_cause = "miss"
                decision = self.policy.on_activate(bank_index, row, t_act)
                self.episodes[bank_index] = decision
                episode_timing = decision.act_timing
                scal = self._tscal.get(id(episode_timing))
                if scal is None:
                    scal = self._new_scal(episode_timing)
                open_rows[bank_index] = row
                soa.last_act[bank_index] = t_act
                ready_col = t_act + scal[1]
                soa.ready_col[bank_index] = ready_col
                soa.ready_pre[bank_index] = t_act + scal[2]
                bank_stats.activations += 1
                self.next_act_ok = t_act + self._tRRD
                self._recent_acts.append(t_act)
                stats.activations += 1
                if self.act_hook is not None:
                    self.act_hook(t_act, bank_index, row)
                if tracer is not None:
                    tracer.record(t_act, "ACT", self.subchannel,
                                  bank_index, row, act_cause,
                                  cu=decision.counter_update)
                self._check_alert(t_act)
                # blocked_until <= t_act <= ready_col, so the column's
                # earliest time is ready_col.
                t_col = eff_now
                if ready_col > t_col:
                    t_col = ready_col
                if bus_floor > t_col:
                    t_col = bus_floor

            # Column command: the episode timing governs the bank, the
            # policy timing governs the bus. A read's burst must leave
            # the bank before the row closes; a write adds recovery.
            bank_stats.row_hits += 1
            is_write = request.is_write
            if is_write:
                bank_stats.writes += 1
                bound = t_col + scal[5]
            else:
                bank_stats.reads += 1
                bound = t_col + scal[4]
            ready_pres = soa.ready_pre
            if bound > ready_pres[bank_index]:
                ready_pres[bank_index] = bound
            done = t_col + scal[3]
            if tracer is not None:
                tracer.record(t_col, "WR" if is_write else "RD",
                              self.subchannel, bank_index, row)
            self.bus_free = t_col + self._tCAS + self._tBURST
            self._bank_last_access[bank_index] = t_col

            if req_pos == 0:
                queue.popleft()
            else:
                del queue[req_pos]
            request.completion_ps = done
            stats.serviced += 1
            latency = done - arrival
            stats.total_latency_ps += latency
            if not is_write:
                stats.read_serviced += 1
                stats.read_latency_ps += latency
            hist = self.latency_hist
            hist.counts[bisect_left(hist.bounds, latency)] += 1
            hist.count += 1
            hist.total += latency
            # wake the core waiting on this read, if any
            request_id = request.request_id
            owner = self._owners.pop(request_id, None)
            if owner is not None:
                heappush(heap, (done + self._return_ps, next(seq),
                                OP_COMPLETE, owner, request_id))
            if not self._page_noop:
                self._after_column(bank_index, t_col)
            if queue and not scheduled[bank_index]:
                # The bank can take its next column command one burst
                # later; the data of the previous one drains meanwhile.
                t_next = t_col + self._tBURST
                if not heap or heap[0][0] > t_next:
                    # Every pending event fires strictly after t_next, so
                    # the re-arm pushed here would be the very next pop:
                    # run it inline. Eliding the push skips one seq draw,
                    # which preserves relative order — all live seqs are
                    # smaller, and nothing can allocate between the push
                    # and its pop. A tie (heap[0][0] == t_next) must go
                    # through the heap: the pending event has the smaller
                    # seq and pops first.
                    gap = t_next - now
                    if gap >= FASTFORWARD_MIN_GAP_PS:
                        self.events.fastforward_ps += gap
                    now = t_next
                    continue
                scheduled[bank_index] = True
                heappush(heap, (t_next, next(seq), OP_SERVICE,
                                self, bank_index))
            return now

    def _new_scal(self, timing) -> tuple:
        """Memoise the episode-timing scalars the column path re-reads."""
        scal = (timing, timing.tRCD, timing.tRAS,
                timing.tCAS + timing.tBURST, timing.tBURST,
                timing.tBURST + timing.tWR)
        self._tscal[id(timing)] = scal
        return scal

    def _commit_horizon(self, bank_index: int) -> int:
        """Exclusive upper bound on command dates committable right now.

        A service commits commands with forward-dated timestamps (a
        conflict's PRE + ACT chain, the bus-serialisation skew), so a
        command could otherwise be dated inside a maintenance window that
        a later-popping event imposes: past the next REF that touches
        this bank, or past the RFM pop of an in-flight ALERT. Commands at
        or beyond the horizon must be deferred until the boundary event
        has run and re-blocked the banks.
        """
        if self.refresh_mode == "same-bank":
            # this bank's own next REFsb slot on the cumulative cadence;
            # refreshes execute in event order, so nothing touching this
            # bank can run before the pending refresh's execution time
            banks = len(self.bank_stats)
            ahead = (bank_index - self._next_ref_bank) % banks
            slot = self._refsb_count + 1 + ahead
            anchor = slot * self.policy.timing.tREFI // banks
            horizon = max(self._ref_horizon, anchor)
            # a REFsb to ANY bank may drain mitigations and assert an
            # ALERT whose all-bank RFM stall opens tALERT_NORMAL after
            # the pop, so no command may be dated at or past that point
            horizon = min(horizon, self._ref_horizon
                          + self.policy.timing.tALERT_NORMAL)
        else:
            horizon = self._ref_horizon
        if self._alert_deadline is not None:
            horizon = min(horizon, self._alert_deadline)
        return horizon

    # ------------------------------------------------------------------
    # Row closure
    # ------------------------------------------------------------------
    def _after_column(self, bank_index: int, now: int) -> None:
        """Apply the row-closure policy after a column access."""
        open_row = self.soa.open_row[bank_index]
        if open_row < 0:
            return
        queued_hits = 0
        for request in self.queues[bank_index]:
            if request.row == open_row:
                queued_hits += 1
        if not self.page_policy.keep_open(queued_hits):
            self._policy_close(bank_index, now)
            return
        timeout = self.page_policy.timeout_ps()
        if timeout is not None:
            self.events.push(now + timeout, OP_TIMEOUT, self,
                             (bank_index, self._bank_last_access[bank_index]))

    def _timeout_close(self, bank_index: int, access_stamp: int,
                       now: int) -> None:
        if self.soa.open_row[bank_index] < 0:
            return
        if self._bank_last_access[bank_index] != access_stamp:
            return  # the row was touched again; a fresh timer is armed
        self._policy_close(bank_index, now)

    def _policy_close(self, bank_index: int, now: int) -> None:
        """Close the open row at its earliest precharge, unless that
        crosses the commit horizon: then retry after the boundary event
        (stamp-guarded, so a fresh access or a forced close cancels the
        retry)."""
        when = self.soa.earliest_precharge(bank_index)
        if when < now:
            when = now
        horizon = self._commit_horizon(bank_index)
        if when >= horizon:
            self.events.push(horizon, OP_TIMEOUT, self,
                             (bank_index, self._bank_last_access[bank_index]))
            return
        self._close(bank_index, when)

    def _close(self, bank_index: int, when: int) -> None:
        """Precharge the open row, honouring the episode's decision."""
        decision = self.episodes[bank_index]
        soa = self.soa
        row = soa.open_row[bank_index]
        open_since = soa.last_act[bank_index]
        pre_timing = decision.pre_timing
        soa.open_row[bank_index] = -1
        ready_act = when + pre_timing.tRP
        bound = open_since + pre_timing.tRC
        if bound > ready_act:
            ready_act = bound
        soa.ready_act[bank_index] = ready_act
        bank_stats = self.bank_stats[bank_index]
        bank_stats.precharges += 1
        counter_update = decision.counter_update
        if counter_update:
            bank_stats.counter_update_precharges += 1
        if self.tracer is not None:
            self.tracer.record(
                when, "PRE", self.subchannel, bank_index, row,
                "counter_update" if counter_update else "",
                cu=counter_update)
        self.policy.on_precharge(bank_index, row, when, counter_update)
        self.policy.note_row_open(bank_index, row, when - open_since)
        self.episodes[bank_index] = None
        self._check_alert(when)

    def _force_close(self, bank_index: int, now: int) -> int:
        """Close an open row for a refresh; returns the PRE date."""
        when = self.soa.earliest_precharge(bank_index)
        if when < now:
            when = now
        self._close(bank_index, when)
        return when

    # ------------------------------------------------------------------
    # Refresh and ALERT
    # ------------------------------------------------------------------
    def _refresh_collides_with_alert(self, now: int,
                                     bank_index: int | None) -> int | None:
        """Stall end if an imminent RFM would overlap refresh execution.

        A refresh force-closes the open rows of every bank (all-bank,
        ``bank_index`` None) or of one bank (REFsb), dating the PREs at
        each bank's earliest precharge; if the in-flight ALERT's RFM pops
        at or before the last such close, those PREs would land inside
        the ABO stall. The refresh is then re-run right after the stall
        instead (the tREFI cadence anchor is untouched — the refresh
        merely executes late, which the conformance oracle allows up to
        the stall bound).
        """
        if self._alert_deadline is None:
            return None
        soa = self.soa
        if bank_index is None:
            close_by = soa.close_bound(now)
        else:
            close_by = now
            if soa.open_row[bank_index] >= 0:
                close_by = max(now, soa.earliest_precharge(bank_index))
        if close_by < self._alert_deadline:
            return None
        level = getattr(self.policy, "abo_level", 1)
        return self._alert_deadline + level * self.policy.timing.tALERT_RFM

    def _ref_event(self, now: int) -> None:
        retry = self._refresh_collides_with_alert(now, None)
        if retry is not None:
            self._ref_horizon = retry
            self.events.push(retry, OP_REF, self, 0)
            return
        self.stats.refreshes += 1
        if self.tracer is not None:
            self.tracer.record(now, "REF", self.subchannel, -1, -1,
                               "all-bank")
        soa = self.soa
        close_by = now
        for index in range(soa.n):
            if soa.open_row[index] >= 0:
                when = self._force_close(index, now)
                if when > close_by:
                    close_by = when
        ref_end = close_by + self.policy.timing.tRFC
        soa.block_all(ref_end)
        self.policy.on_refresh(now)
        self._check_alert(now)
        self.next_ref += self.policy.timing.tREFI
        self._ref_horizon = self.next_ref
        self.events.push(self.next_ref, OP_REF, self, 0)
        queues = self.queues
        for index in range(soa.n):
            if queues[index]:
                self._kick(index, ref_end)

    def _refsb_event(self, now: int) -> None:
        """Same-bank refresh: one bank closed and blocked for tRFCsb."""
        index = self._next_ref_bank
        retry = self._refresh_collides_with_alert(now, index)
        if retry is not None:
            self._ref_horizon = retry
            self.events.push(retry, OP_REFSB, self, 0)
            return
        banks = len(self.bank_stats)
        self.stats.refreshes += 1
        self._next_ref_bank = (index + 1) % banks
        if self.tracer is not None:
            self.tracer.record(now, "REF", self.subchannel, index, -1,
                               "same-bank")
        soa = self.soa
        start = now
        if soa.open_row[index] >= 0:
            start = max(start, self._force_close(index, now))
        block_end = start + self.policy.timing.tRFCsb
        if soa.blocked_until[index] < block_end:
            soa.blocked_until[index] = block_end
        self.policy.on_refresh(now, bank=index)
        self._check_alert(now)
        # Cumulative cadence: the k-th REFsb fires at (k*tREFI)//banks,
        # so every full rotation lands exactly on a tREFI boundary.
        # Accumulating tREFI//banks instead would drop the integer-
        # division remainder each step and drift the refresh rate high.
        self._refsb_count += 1
        self.next_ref = ((self._refsb_count + 1) * self.policy.timing.tREFI
                         // banks)
        # catch-up after a deferral: the anchor may already have passed,
        # in which case the next REFsb runs immediately (at ``now``, not
        # at the stale anchor — events cannot execute in the past)
        self._ref_horizon = max(self.next_ref, now)
        self.events.push(self._ref_horizon, OP_REFSB, self, 0)
        if self.queues[index]:
            self._kick(index, block_end)

    def _check_alert(self, now: int) -> None:
        if self._alert_in_flight or not self.policy.alert_requested():
            return
        self._alert_in_flight = True
        if self.tracer is not None:
            causes = getattr(self.policy, "alert_causes", None)
            self.tracer.record(now, "ALERT", self.subchannel, -1, -1,
                               ",".join(sorted(causes)) if causes else "")
        deadline = now + self.policy.timing.tALERT_NORMAL
        self._alert_deadline = deadline
        self.events.push(deadline, OP_RFM, self, 0)

    def _rfm_event(self, now: int) -> None:
        level = getattr(self.policy, "abo_level", 1)
        end = now + level * self.policy.timing.tALERT_RFM
        scope = getattr(self.policy, "recovery_scope", "subchannel")
        recovery = (tuple(self.policy.alert_banks())
                    if scope == "bank" else None)
        if recovery is None:
            self.soa.block_all(end)
        else:
            # bank-scoped recovery (PRACtical): only the banks the ALERT
            # named stall; their neighbours keep scheduling through the
            # RFM window
            blocked = self.soa.blocked_until
            for index in recovery:
                if blocked[index] < end:
                    blocked[index] = end
        for _ in range(level):
            if self.tracer is not None:
                if recovery is None:
                    self.tracer.record(now, "RFM", self.subchannel, -1, -1,
                                       "abo")
                else:
                    for index in recovery:
                        self.tracer.record(now, "RFM", self.subchannel,
                                           index, -1, "abo")
            self.policy.on_rfm(end)
        self.stats.alerts += 1
        self.stats.rfm_commands += \
            level * (1 if recovery is None else len(recovery))
        self._alert_in_flight = False
        self._alert_deadline = None
        self._check_alert(end)
        queues = self.queues
        for index in range(len(queues)):
            if queues[index]:
                self._kick(index,
                           end if recovery is None or index in recovery
                           else now)
