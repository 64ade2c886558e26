"""Full-system simulator: cores -> (LLC) -> address mapper -> controllers.

The :class:`System` owns a global event heap (time-ordered callbacks) and
wires together:

* one :class:`~repro.cpu.core.Core` per trace,
* optionally the shared LLC (by default the calibrated workloads generate
  miss streams, so the LLC is bypassed — see
  :mod:`repro.cpu.cache` for the rationale),
* the MOP address mapper,
* one :class:`~repro.mc.controller.MemoryController` per sub-channel, each
  with its own :class:`~repro.mitigations.base.MitigationPolicy` instance.

``System.run()`` executes until every core has retired its instruction
budget and returns a :class:`SystemResult` with per-core IPCs and all
subsystem statistics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..config import SystemConfig
from ..cpu.cache import SetAssociativeCache
from ..cpu.core import Core, CoreStats
from ..cpu.trace import TraceItem
from ..dram.address import make_mapper
from ..mc.controller import MCStats, MemoryController
from ..mc.events import (FASTFORWARD_MIN_GAP_PS, OP_COMPLETE, OP_DRIVE,
                         OP_SERVICE, EventLoop)
from ..mc.pagepolicy import make_page_policy
from ..mc.request import MemRequest, next_request_id
from ..mitigations.base import MitigationPolicy
from ..obs.registry import StatsRegistry
from ..obs.tracer import EventTracer
from ..workloads.synthetic import TraceGenerator

PolicyFactory = Callable[[int], MitigationPolicy]


@dataclass
class SystemResult:
    """Everything a run produces."""

    config: SystemConfig
    core_stats: list[CoreStats]
    mc_stats: list[MCStats]
    policy_stats: list[dict]
    elapsed_ps: int
    row_activity: "RowActivityStats | None" = None
    #: flat dotted-namespace stats snapshot (see docs/observability.md)
    stats: dict[str, float] = field(default_factory=dict)
    #: wall-time phase breakdown of the run that produced this result
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def ipcs(self) -> list[float]:
        ghz = self.config.core_ghz
        return [stats.ipc(ghz) for stats in self.core_stats]

    @property
    def total_requests(self) -> int:
        return sum(stats.requests for stats in self.mc_stats)

    @property
    def row_buffer_hit_rate(self) -> float:
        hits = sum(s.row_hits for s in self.mc_stats)
        total = sum(s.row_hits + s.row_misses + s.row_conflicts
                    for s in self.mc_stats)
        return hits / total if total else 0.0

    @property
    def total_alerts(self) -> int:
        return sum(s.alerts for s in self.mc_stats)

    @property
    def total_activations(self) -> int:
        return sum(s.activations for s in self.mc_stats)

    def bus_utilization(self) -> float:
        """Fraction of wall time the data buses carried bursts."""
        if self.elapsed_ps <= 0:
            return 0.0
        timing = self.config.dram.timing
        busy = self.total_requests * timing.tBURST
        return busy / (self.elapsed_ps * self.config.dram.subchannels)

    def mean_ipc(self) -> float:
        ipcs = self.ipcs
        return sum(ipcs) / len(ipcs) if ipcs else 0.0

    def bandwidth_gbps(self) -> float:
        """Achieved DRAM bandwidth in GB/s."""
        if self.elapsed_ps <= 0:
            return 0.0
        bytes_moved = self.total_requests * self.config.dram.line_bytes
        return bytes_moved / (self.elapsed_ps / 1e12) / 1e9

    def summary(self) -> str:
        """One-paragraph human-readable run summary."""
        return (
            f"elapsed {self.elapsed_ps / 1e6:.1f} us | "
            f"{self.total_requests} requests, "
            f"{self.total_activations} ACTs | "
            f"RBHR {self.row_buffer_hit_rate:.2f} | "
            f"bus {self.bus_utilization():.0%} | "
            f"{self.bandwidth_gbps():.1f} GB/s | "
            f"mean IPC {self.mean_ipc():.2f} | "
            f"{self.total_alerts} ALERTs"
        )


@dataclass
class RowActivityStats:
    """Per-refresh-window row-activation census (Table 4 columns).

    ``windows`` counts completed tREFW windows; the hot-row tallies are
    means per window per bank, directly comparable to the paper's ACT-64+
    and ACT-200+ columns (which use the full 32 ms window — scaled runs
    report the scaled-window equivalent).
    """

    windows: int = 0
    total_acts: int = 0
    total_refis: int = 0
    banks: int = 0
    act64_total: int = 0
    act200_total: int = 0

    @property
    def apri(self) -> float:
        """Mean activations per tREFI per bank."""
        if not self.total_refis or not self.banks:
            return 0.0
        return self.total_acts / self.total_refis / self.banks

    @property
    def act64(self) -> float:
        if not self.windows or not self.banks:
            return 0.0
        return self.act64_total / self.windows / self.banks

    @property
    def act200(self) -> float:
        if not self.windows or not self.banks:
            return 0.0
        return self.act200_total / self.windows / self.banks


class _RowActivityMonitor:
    """Collects :class:`RowActivityStats` from activation callbacks."""

    def __init__(self, banks_total: int, trefw_ps: int, trefi_ps: int):
        self.stats = RowActivityStats(banks=banks_total)
        self.trefw = trefw_ps
        self.trefi = trefi_ps
        self.window_end = trefw_ps
        self.counts: dict[tuple[int, int, int], int] = {}

    def notify(self, time_ps: int, subchannel: int, bank: int,
               row: int) -> None:
        if time_ps >= self.window_end:
            self._advance_to(time_ps)
        self.counts[(subchannel, bank, row)] = \
            self.counts.get((subchannel, bank, row), 0) + 1
        self.stats.total_acts += 1

    def finalize(self, elapsed_ps: int) -> RowActivityStats:
        # Roll every window the run actually completed — including idle
        # ones no activation ever touched — and discard the partial
        # trailing window: counting it as a full window would skew the
        # per-window ACT-64+/ACT-200+ means (Table 4). A run shorter
        # than one (scaled) tREFW has no completed window at all; report
        # it as a single truncated window rather than an empty census.
        if elapsed_ps >= self.window_end:
            self._advance_to(elapsed_ps)
        if not self.stats.windows and elapsed_ps > 0:
            self._roll_window()
        self.counts.clear()
        self.stats.total_refis = max(elapsed_ps // self.trefi, 1)
        return self.stats

    def _advance_to(self, time_ps: int) -> None:
        """Complete every window whose end is at or before ``time_ps``.

        An event at exactly ``window_end`` belongs to the *next* window
        (windows are half-open ``[start, start + tREFW)``), so the first
        roll flushes the live census; any further windows crossed by a
        large time jump are empty by construction and are skipped in
        O(1) instead of re-scanning the (already empty) counts per
        window. The closed-form skip lands ``window_end`` strictly
        beyond ``time_ps``, which keeps exact-boundary jumps (an ACT at
        ``k * tREFW``) in the same window as the one-roll-per-iteration
        loop it replaces.
        """
        self._roll_window()
        if time_ps >= self.window_end:
            skipped = (time_ps - self.window_end) // self.trefw + 1
            self.stats.windows += skipped
            self.window_end += skipped * self.trefw

    def _roll_window(self) -> None:
        self.stats.windows += 1
        for count in self.counts.values():
            if count >= 64:
                self.stats.act64_total += 1
            if count >= 200:
                self.stats.act200_total += 1
        self.counts.clear()
        self.window_end += self.trefw


class System:
    """One simulation instance.

    The event loop is an opcode heap (:class:`~repro.mc.events.EventLoop`)
    shared with the controllers. Core doneness is monotone (traces only
    advance, outstanding sets only drain), so the loop keeps a count of
    active cores, updated at the only events that can change it, and
    stops the moment it reaches zero.
    """

    def __init__(self, config: SystemConfig,
                 policy_factory: PolicyFactory,
                 traces: list[Iterator[TraceItem]],
                 instruction_limit: int,
                 mapper_kind: str = "mop",
                 page_policy: str = "open",
                 use_llc: bool = False,
                 collect_row_activity: bool = False,
                 windows: list[int] | None = None,
                 refresh_mode: str = "all-bank",
                 tracer: EventTracer | None = None):
        if len(traces) != config.cores:
            raise ValueError(
                f"need {config.cores} traces, got {len(traces)}")
        self.config = config
        self.mapper = make_mapper(config.dram, mapper_kind)
        # a request reaches its controller llc_hit_ps after issue, and
        # its data reaches the core llc_hit_ps after the burst
        self.events = EventLoop(return_ps=config.llc_hit_ps)
        self.policies = [policy_factory(i)
                         for i in range(config.dram.subchannels)]
        self.controllers = [
            MemoryController(i, config.dram, self.policies[i], self.events,
                             make_page_policy(page_policy),
                             refresh_mode=refresh_mode)
            for i in range(config.dram.subchannels)
        ]
        if windows is not None and len(windows) != len(traces):
            raise ValueError("windows must match traces")
        self.cores = [
            Core(i, trace, config, instruction_limit,
                 window=windows[i] if windows is not None else None)
            for i, trace in enumerate(traces)
        ]
        for core in self.cores:
            # Synthetic traces refill in blocks; the exact-type check
            # matters, since a subclass could override the draw helpers
            # that next_block inlines.
            if type(core.trace) is TraceGenerator:
                core._gen = core.trace
        self.llc = (SetAssociativeCache(config.llc_bytes, config.llc_ways,
                                        config.dram.line_bytes)
                    if use_llc else None)
        self.tracer = tracer
        if tracer is not None:
            for mc in self.controllers:
                mc.tracer = tracer
            for index, policy in enumerate(self.policies):
                policy.tracer = tracer
                policy.tracer_subchannel = index
        self.registry = StatsRegistry()
        for mc in self.controllers:
            mc.register_stats(self.registry, f"mc.{mc.subchannel}")
        for index, policy in enumerate(self.policies):
            policy.register_stats(self.registry, f"mitigation.{index}")
        self.registry.register("mitigation", self._mitigation_aggregates)
        for core in self.cores:
            self.registry.register(
                f"core.{core.core_id}",
                lambda c=core: {
                    "instructions": c.stats.instructions,
                    "requests": c.stats.requests,
                    "finish_ps": c.stats.finish_ps,
                    "ipc": c.stats.ipc(self.config.core_ghz),
                })
        self._monitor: _RowActivityMonitor | None = None
        if collect_row_activity:
            timing = config.dram.timing
            self._monitor = _RowActivityMonitor(
                config.dram.total_banks, timing.tREFW, timing.tREFI)
            for mc in self.controllers:
                mc.act_hook = (
                    lambda t, bank, row, _sub=mc.subchannel:
                    self._monitor.notify(t, _sub, bank, row))
        self._llc_ps = config.llc_hit_ps
        self._line_bytes = config.dram.line_bytes
        self._total_lines = self.mapper.total_lines()
        #: line index -> (controller, bank, row); the working set is
        #: bounded by the workload footprint
        self._line_memo: dict[int, tuple] = {}

    def _mitigation_aggregates(self) -> dict[str, int]:
        """Cross-sub-channel totals under the bare ``mitigation.`` prefix."""
        return {
            "rfm_events": sum(p.stats.alerts for p in self.policies),
            "mitigations": sum(p.stats.mitigations for p in self.policies),
            "counter_updates": sum(p.stats.counter_updates
                                   for p in self.policies),
            "ref_drains": sum(p.stats.ref_drains for p in self.policies),
        }

    # ------------------------------------------------------------------
    # Core driving
    # ------------------------------------------------------------------
    def _drive_core(self, core: Core, now: int) -> bool:
        """Issue ``core``'s accesses as far as ``now`` allows.

        An access issues ``gap`` instructions after the previous one
        (4-wide dispatch), but never before the core resumes from a ROB
        stall; the core stalls when the next access would sit a full
        miss window past its oldest outstanding read. Returns True when
        the core is *done* on exit (trace exhausted or budget spent,
        with nothing outstanding).
        """
        heap = self.events.heap
        seq = self.events.seq
        limit = core.instruction_limit
        rob = core.rob
        pspi = core.pspi
        while True:
            item = core._next_item
            if item is None:
                item = core.pull()
                if item is None:
                    return not core.outstanding
            gap = item[0]
            advance = gap + 1
            inst_index = core.inst_index
            if limit - inst_index < advance:
                # finish: budget cannot cover the next access
                return not core.outstanding
            order = core._order
            if order:
                oldest_id, oldest_index = order[0]
                if inst_index + advance - oldest_index >= rob:
                    core._waiting_on = oldest_id
                    return False
            issue_f = core.dispatch_ps + gap * pspi
            if issue_f < core._resume_floor:
                issue_f = core._resume_floor
            issue = int(issue_f)
            if issue > now:
                heapq.heappush(heap, (issue, next(seq), OP_DRIVE, core, 0))
                return False
            core._next_item = None
            core.inst_index = inst_index = inst_index + advance
            core.dispatch_ps = float(issue)
            core.stats.instructions = inst_index
            core.stats.requests += 1
            self._dispatch(core, item, issue)

    def _dispatch(self, core: Core, item: tuple, issue: int) -> None:
        """Send one access through the LLC (if any) to its controller."""
        is_write = item[2]
        if self.llc is not None and self.llc.access(item[1], is_write):
            # LLC hit: no DRAM traffic, but the data still returns only
            # after the LLC lookup latency. Reads occupy the core's miss
            # window until then, and the completion wakes a core that
            # filled its ROB on cache-resident data.
            if not is_write:
                request_id = next_request_id()
                core.track(request_id)
                self.events.push(issue + self._llc_ps, OP_COMPLETE, core,
                                 request_id)
            return
        arrival = issue + self._llc_ps
        line_index = (item[1] // self._line_bytes) % self._total_lines
        entry = self._line_memo.get(line_index)
        if entry is None:
            sub, bank, row = self.mapper.map_line_raw(line_index)
            entry = self._line_memo[line_index] = (
                self.controllers[sub], bank, row)
        mc, bank_index, row = entry
        request = MemRequest(core.core_id, mc.subchannel, bank_index, row,
                             arrival, is_write)
        if not is_write:
            # Writes are dirty-line writebacks: they consume DRAM
            # bandwidth but never block retirement.
            core.track(request.request_id)
            self.events.owners[request.request_id] = core
        mc.enqueue(request, arrival)

    def _complete(self, core: Core, request_id: int, now: int) -> bool:
        """A read returned to ``core``; returns True if the core is done.

        A core stalled on this read resumes and drives on. For any other
        core the drive can only act when its next access is issueable at
        this exact instant (the completion tied with the core's own
        pending wake and popped first), or when the read was the one the
        ROB was waiting past; otherwise the core's pending wake already
        covers its next issue, and driving would only push a duplicate.
        """
        outstanding = core.outstanding
        outstanding.pop(request_id, None)
        order = core._order
        while order and order[0][0] not in outstanding:
            order.popleft()
        if now > core._last_completion:
            core._last_completion = float(now)
        if request_id == core._waiting_on:
            if now > core._resume_floor:
                core._resume_floor = float(now)
            core._waiting_on = None
            return self._drive_core(core, now)
        item = core._next_item
        if item is None:
            item = core.pull()
            if item is None:  # trace exhausted
                return not outstanding
        gap = item[0]
        advance = gap + 1
        inst_index = core.inst_index
        if core.instruction_limit - inst_index < advance:  # budget spent
            return not outstanding
        if order and inst_index + advance - order[0][1] >= core.rob:
            return self._drive_core(core, now)
        issue_f = core.dispatch_ps + gap * core.pspi
        if issue_f < core._resume_floor:
            issue_f = core._resume_floor
        if int(issue_f) <= now:
            return self._drive_core(core, now)
        return False

    # ------------------------------------------------------------------
    def run(self) -> SystemResult:
        for mc in self.controllers:
            mc.start()
        active = 0
        for core in self.cores:
            core.done = self._drive_core(core, 0)
            if not core.done:
                active += 1
        events = self.events
        heap = events.heap
        heappop = heapq.heappop
        drive = self._drive_core
        complete = self._complete
        now = 0
        min_gap = FASTFORWARD_MIN_GAP_PS
        while heap and active:
            time_ps, _, op, target, arg = heappop(heap)
            if time_ps - now >= min_gap:
                events.fastforward_ps += time_ps - now
            now = time_ps
            if op == OP_SERVICE:
                # an inlined service chain advances the clock
                now = target.service(arg, time_ps)
                continue
            if op == OP_COMPLETE:
                done = complete(target, arg, time_ps)
            elif op == OP_DRIVE:
                done = drive(target, time_ps)
            else:
                target.maintain(op, arg, time_ps)
                continue
            if done and not target.done:
                target.done = True
                active -= 1
        return self._finalize()

    def _finalize(self) -> SystemResult:
        core_stats = [core.finalize() for core in self.cores]
        elapsed = max((s.finish_ps for s in core_stats), default=0)
        activity = (self._monitor.finalize(elapsed)
                    if self._monitor is not None else None)
        sim_stats: dict[str, float] = {
            "elapsed_ps": elapsed,
            "fastforward_ps": self.events.fastforward_ps,
        }
        if activity is not None:
            sim_stats["row_activity"] = {
                "windows": activity.windows,
                "total_acts": activity.total_acts,
                "apri": activity.apri,
                "act64": activity.act64,
                "act200": activity.act200,
            }
        self.registry.register("sim", lambda: sim_stats)
        return SystemResult(
            config=self.config,
            core_stats=core_stats,
            mc_stats=[mc.stats for mc in self.controllers],
            policy_stats=[p.stats.as_dict() for p in self.policies],
            elapsed_ps=elapsed,
            row_activity=activity,
            stats=self.registry.snapshot(),
        )
