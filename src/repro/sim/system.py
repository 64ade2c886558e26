"""Full-system simulator: cores -> (LLC) -> address mapper -> controllers.

The :class:`System` owns a global event heap (time-ordered opcode
events) and wires together:

* one :class:`~repro.cpu.core.Core` per trace,
* optionally the shared LLC (by default the calibrated workloads generate
  miss streams, so the LLC is bypassed — see
  :mod:`repro.cpu.cache` for the rationale),
* the MOP address mapper,
* one :class:`~repro.mc.controller.MemoryController` per sub-channel, each
  with its own :class:`~repro.mitigations.base.MitigationPolicy` instance.

``System.run()`` executes until every core has retired its instruction
budget and returns a :class:`SystemResult`: the configuration and one
flat stats snapshot of every subsystem (cores, controllers, policies,
the run itself), which its accessors (IPCs, totals) read.

*Riders.* A design that runs every episode on the base timings
changes the command stream only by asserting ALERT, so until then its
run is its baseline's. ``rider_factories`` adds one policy set per
such design: each sub-channel's controller drives a
:class:`RiderPolicy`, which forwards every hook to the lead's policy
and to each rider's, and drops a rider the moment it could have
issued a different command (see :class:`RiderPolicy`). ``run()`` then
also fills :attr:`System.rider_results`, one result per rider (None
for a dropped one), each built from its own stats registry exactly as
the lead's is.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from ..config import SystemConfig
from ..cpu.cache import SetAssociativeCache
from ..cpu.core import Core
from ..cpu.trace import TraceItem
from ..dram.address import make_mapper
from ..mc.controller import MemoryController
from ..mc.events import (FASTFORWARD_MIN_GAP_PS, OP_COMPLETE, OP_DRIVE,
                         OP_SERVICE, EventLoop)
from ..mc.pagepolicy import make_page_policy
from ..mc.request import UNSTAMPED, MemRequest
from ..mitigations.base import EpisodeDecision, MitigationPolicy
from ..obs.registry import StatsRegistry
from ..obs.tracer import EventTracer

PolicyFactory = Callable[[int], MitigationPolicy]


@dataclass
class SystemResult:
    """Everything a run produces: its configuration and its flat
    dotted-namespace stats snapshot (see docs/observability.md), which
    every accessor below reads."""

    config: SystemConfig
    stats: dict[str, float]
    #: events the run's loop popped, by opcode name: a census of the
    #: engine's work, outside ``stats`` and not cached
    census: dict[str, int] = field(default_factory=dict)

    @property
    def ipcs(self) -> list[float]:
        return [self.stats[f"core.{i}.ipc"]
                for i in range(self.config.cores)]

    @property
    def elapsed_ps(self) -> int:
        return self.stats["sim.elapsed_ps"]

    def total(self, name: str) -> int:
        """``mc.{sc}.<name>`` summed over the sub-channels."""
        return sum(self.stats[f"mc.{sc}.{name}"]
                   for sc in range(self.config.dram.subchannels))

    @property
    def total_requests(self) -> int:
        return self.total("requests")

    @property
    def row_buffer_hit_rate(self) -> float:
        hits = self.total("row_hits")
        total = hits + self.total("row_misses") + self.total("row_conflicts")
        return hits / total if total else 0.0

    @property
    def total_alerts(self) -> int:
        return self.total("alerts")

    @property
    def total_activations(self) -> int:
        return self.total("activations")

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


class _RowActivityMonitor:
    """Per-refresh-window row-activation census (Table 4 columns),
    collected from activation callbacks.

    ``windows`` counts completed tREFW windows; the hot-row tallies
    become means per window per bank, directly comparable to the
    paper's ACT-64+ and ACT-200+ columns (which use the full 32 ms
    window — scaled runs report the scaled-window equivalent).
    """

    def __init__(self, banks_total: int, trefw_ps: int, trefi_ps: int):
        self.banks = banks_total
        self.trefw = trefw_ps
        self.trefi = trefi_ps
        self.window_end = trefw_ps
        self.counts: dict[tuple[int, int, int], int] = {}
        self.windows = 0
        self.total_acts = 0
        self.act64_total = 0
        self.act200_total = 0

    def notify(self, time_ps: int, subchannel: int, bank: int,
               row: int) -> None:
        if time_ps >= self.window_end:
            self._advance_to(time_ps)
        self.counts[(subchannel, bank, row)] = \
            self.counts.get((subchannel, bank, row), 0) + 1
        self.total_acts += 1

    def finalize(self, elapsed_ps: int) -> dict[str, float]:
        """The ``sim.row_activity`` stats: completed windows, ACTs, mean
        ACTs per tREFI per bank (``apri``) and hot rows per window per
        bank (``act64``, ``act200``)."""
        # Roll every window the run actually completed — including idle
        # ones no activation ever touched — and discard the partial
        # trailing window: counting it as a full window would skew the
        # per-window ACT-64+/ACT-200+ means (Table 4). A run shorter
        # than one (scaled) tREFW has no completed window at all; report
        # it as a single truncated window rather than an empty census.
        if elapsed_ps >= self.window_end:
            self._advance_to(elapsed_ps)
        if not self.windows and elapsed_ps > 0:
            self._roll_window()
        self.counts.clear()
        refis = max(elapsed_ps // self.trefi, 1)
        windows, banks = self.windows, self.banks
        return {
            "windows": windows,
            "total_acts": self.total_acts,
            "apri": self.total_acts / refis / banks,
            "act64": self.act64_total / windows / banks if windows else 0.0,
            "act200": self.act200_total / windows / banks if windows else 0.0,
        }

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
            self.windows += skipped
            self.window_end += skipped * self.trefw

    def _roll_window(self) -> None:
        self.windows += 1
        for count in self.counts.values():
            if count >= 64:
                self.act64_total += 1
            if count >= 200:
                self.act200_total += 1
        self.counts.clear()
        self.window_end += self.trefw


class RiderPolicy:
    """One sub-channel's lead policy with the riders' policies beside it.

    The controller sees only the lead: every decision, every
    ``alert_requested`` answer and every attribute it reads is the
    lead's. Each hook goes to the lead, then to every live rider. A
    rider drops out, on every sub-channel at once, when its episode
    decision differs from the lead's, when its ``alert_requested()``
    is true after a hook, or when a hook raises. Up to that hook its
    own run would have issued the same commands at the same times, so
    a rider that never drops has had its own run. The lead must never
    assert ALERT itself (it is a ``baseline``), since an ALERT would
    change the stream under the riders.
    """

    def __init__(self, lead: MitigationPolicy,
                 riders: list[tuple[int, MitigationPolicy]],
                 drop: Callable[[int], None]):
        self.lead = lead
        #: ``(rider index, policy)`` of the riders still live
        self.riders = riders
        self._drop = drop
        self.timing = lead.timing
        self.timing_pair = lead.timing_pair
        self.alert_requested = lead.alert_requested

    def __getattr__(self, name: str):
        # anything else the controller reads (abo_level, ...) is the lead's
        return getattr(self.lead, name)

    def _ride(self, hook: str, args: tuple,
              decision: EpisodeDecision | None = None) -> None:
        for index, policy in self.riders:
            try:
                mine = getattr(policy, hook)(*args)
                agrees = (decision is None or mine is decision
                          or mine == decision) \
                    and not policy.alert_requested()
            except Exception:
                agrees = False
            if not agrees:
                self._drop(index)

    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        decision = self.lead.on_activate(bank, row, now)
        self._ride("on_activate", (bank, row, now), decision)
        return decision

    def on_precharge(self, bank: int, row: int, now: int,
                     counter_update: bool) -> None:
        self.lead.on_precharge(bank, row, now, counter_update)
        self._ride("on_precharge", (bank, row, now, counter_update))

    def note_row_open(self, bank: int, row: int, open_ps: int) -> None:
        self.lead.note_row_open(bank, row, open_ps)
        self._ride("note_row_open", (bank, row, open_ps))

    def on_refresh(self, now: int, bank: int | None = None) -> None:
        self.lead.on_refresh(now, bank)
        self._ride("on_refresh", (now, bank))

    def on_rfm(self, now: int) -> None:
        self.lead.on_rfm(now)
        self._ride("on_rfm", (now,))


class System:
    """One simulation instance.

    The event loop is an opcode heap (:class:`~repro.mc.events.EventLoop`)
    shared with the controllers. A core gets an event only when it needs
    one: a wake (OP_DRIVE) when its next access falls due, and a
    completion (OP_COMPLETE) for the read it is stalled on or, once
    draining, for each read still out. Every other read returns through
    the stamp the controller stores on it and retires lazily, in the
    order its completion event would have popped (see
    :meth:`_drive_core`). Core doneness is monotone (traces only advance,
    miss windows only drain), so the loop keeps a count of active cores,
    updated at the only events that can change it, and stops the moment
    it reaches zero.
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
                 tracer: EventTracer | None = None,
                 rider_factories: Sequence[PolicyFactory] = ()):
        if len(traces) != config.cores:
            raise ValueError(
                f"need {config.cores} traces, got {len(traces)}")
        if tracer is not None and rider_factories:
            raise ValueError("a traced run takes no riders")
        self.config = config
        self.mapper = make_mapper(config.dram, mapper_kind)
        # a request reaches its controller llc_hit_ps after issue, and
        # its data reaches the core llc_hit_ps after the burst
        self.events = EventLoop(return_ps=config.llc_hit_ps)
        self.events.returns_within = self._returns_within
        subchannels = range(config.dram.subchannels)
        self.policies = [policy_factory(i) for i in subchannels]
        #: one policy set per rider; None once the rider has dropped
        self.rider_sets: list[list[MitigationPolicy] | None] = []
        for factory in rider_factories:
            try:
                self.rider_sets.append([factory(i) for i in subchannels])
            except Exception:
                self.rider_sets.append(None)
        #: filled by :meth:`run`: one result per rider, None if dropped
        self.rider_results: list[SystemResult | None] = []
        self._riding = [RiderPolicy(
            self.policies[i],
            [(r, rider[i]) for r, rider in enumerate(self.rider_sets)
             if rider is not None],
            self._drop_rider) for i in subchannels] if rider_factories else []
        driven = self._riding or self.policies
        self.controllers = [
            MemoryController(i, config.dram, driven[i], self.events,
                             make_page_policy(page_policy),
                             refresh_mode=refresh_mode)
            for i in subchannels
        ]
        if windows is not None and len(windows) != len(traces):
            raise ValueError("windows must match traces")
        self.cores = [
            Core(i, trace, config, instruction_limit,
                 window=windows[i] if windows is not None else None)
            for i, trace in enumerate(traces)
        ]
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
        self.registry = self._registry(self.policies)
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

    def _registry(self, policies: list[MitigationPolicy]) -> StatsRegistry:
        """The stats registry of the run seen through ``policies`` (the
        lead's or a rider's): the shared controllers and cores, and
        these policies' own counters."""
        registry = StatsRegistry()
        for mc in self.controllers:
            mc.register_stats(registry, f"mc.{mc.subchannel}")
        for index, policy in enumerate(policies):
            policy.register_stats(registry, f"mitigation.{index}")
        registry.register("mitigation",
                          lambda: _mitigation_aggregates(policies))
        for core in self.cores:
            registry.register(
                f"core.{core.core_id}",
                lambda c=core: {
                    "instructions": c.stats.instructions,
                    "requests": c.stats.requests,
                    "finish_ps": c.stats.finish_ps,
                    "ipc": c.stats.ipc(self.config.core_ghz),
                })
        return registry

    def _drop_rider(self, index: int) -> None:
        """Rider ``index`` could have diverged: stop driving it, and
        hand the controllers the lead's policies once no rider is left."""
        self.rider_sets[index] = None
        for mc, riding in zip(self.controllers, self._riding):
            riding.riders = [(r, policy) for r, policy in riding.riders
                             if r != index]
            if not riding.riders:
                mc.policy = riding.lead

    # ------------------------------------------------------------------
    # Core driving
    # ------------------------------------------------------------------
    def _drive_core(self, core: Core, now: int, seq: int) -> bool:
        """Issue ``core``'s accesses as far as the event ``(now, seq)``
        allows.

        First every read at the head of the miss window whose return
        stamp is at or before ``(now, seq)`` retires: its completion
        event would already have popped. An access then issues ``gap``
        instructions after the previous one (4-wide dispatch), but never
        before the core resumes from a ROB stall; the core stalls when
        the next access would sit a full miss window past its oldest
        unretired read. Returns True when the core is *done* on exit
        (trace exhausted or budget spent, with every read returned).
        """
        order = core._order
        returning = core._returning
        while order:
            head = order[0]
            ret = head.ret
            if ret > now or (ret == now and head.rseq > seq):
                break
            order.popleft()
            returning.pop(ret, None)
        seqs = self.events.seq
        heap = self.events.heap
        limit = core.instruction_limit
        rob = core.rob
        pspi = core.pspi
        llc = self.llc
        while True:
            item = core._next_item
            if item is None:
                item = core.pull()
                if item is None:
                    return self._drain(core, now, seq)
            gap = item[0]
            advance = gap + 1
            inst_index = core.inst_index
            if limit - inst_index < advance:
                # finish: budget cannot cover the next access
                return self._drain(core, now, seq)
            if order:
                oldest = order[0]
                if inst_index + advance - oldest.index >= rob:
                    # stall; a stamped read gets its completion now, an
                    # unstamped one from the controller at its column
                    core._waiting_on = oldest
                    if oldest.ret != UNSTAMPED:
                        heapq.heappush(heap, (oldest.ret, oldest.rseq,
                                              OP_COMPLETE, core, oldest))
                    return False
            issue_f = core.dispatch_ps + gap * pspi
            if issue_f < core._resume_floor:
                issue_f = core._resume_floor
            issue = int(issue_f)
            if issue > now:
                # A read returning at ``issue``, stamped before this wake,
                # would as an event pop first and issue the access: the
                # wake takes that read's stamp.
                first = returning.get(issue)
                heapq.heappush(heap, (issue, next(seqs) if first is None
                                      else first.rseq, OP_DRIVE, core, 0))
                return False
            core._next_item = None
            core.inst_index = inst_index = inst_index + advance
            core.dispatch_ps = float(issue)
            core.stats.requests += 1

            # Send the access through the LLC (if any) to its controller.
            is_write = item[2]
            if llc is not None and llc.access(item[1], is_write):
                # LLC hit: no DRAM traffic, but a read's data still
                # returns only after the lookup latency, and the read
                # holds the miss window until then. The core is neither
                # stalled on it nor draining, so it gets no event yet.
                if not is_write:
                    request = MemRequest(core.core_id, -1, -1, -1, issue,
                                         False, core, inst_index)
                    core.stamp(request, issue + self._llc_ps, next(seqs))
                    order.append(request)
                continue
            arrival = issue + self._llc_ps
            sub, bank_index, row = self.mapper.map_line_raw(
                item[1] // self._line_bytes)
            if is_write:
                # Writes are dirty-line writebacks: they consume DRAM
                # bandwidth but never block retirement.
                request = MemRequest(core.core_id, sub, bank_index, row,
                                     arrival, True)
            else:
                request = MemRequest(core.core_id, sub, bank_index, row,
                                     arrival, False, core, inst_index)
                order.append(request)
            self.controllers[sub].enqueue(request, arrival)

    def _drain(self, core: Core, now: int, seq: int) -> bool:
        """``core`` can issue nothing more; True once every read returned.

        On entering the drain, each read still out past ``(now, seq)``
        gets its completion event, so the core sees its last return;
        reads stamped later get theirs from the controller.
        """
        order = core._order
        if not order:
            return True
        if not core.draining:
            core.draining = True
            heap = self.events.heap
            for request in order:
                ret = request.ret
                if ret != UNSTAMPED and (
                        ret > now or (ret == now and request.rseq > seq)):
                    heapq.heappush(heap, (ret, request.rseq, OP_COMPLETE,
                                          core, request))
        return False

    def _complete(self, core: Core, request: MemRequest, now: int,
                  seq: int) -> bool:
        """``request`` returned to ``core``, which is stalled on it or
        draining; returns True if the core is done."""
        if not core.draining:
            # the stall ends: nothing issues before the data is back
            if now > core._resume_floor:
                core._resume_floor = float(now)
            core._waiting_on = None
        return self._drive_core(core, now, seq)

    def _returns_within(self, start: int, end: int) -> list[int]:
        """Return times of stamped reads strictly inside ``(start, end)``.

        These are the returns whose completion was never pushed: a
        pushed completion pops at its time, so no jump crosses it.
        """
        return [request.ret for core in self.cores
                for request in core._order if start < request.ret < end]

    # ------------------------------------------------------------------
    def run(self) -> SystemResult:
        for mc in self.controllers:
            mc.start()
        active = 0
        for core in self.cores:
            # below every stamp: nothing has returned yet
            core.done = self._drive_core(core, 0, -1)
            if not core.done:
                active += 1
        events = self.events
        heap = events.heap
        pops = events.pops
        heappop = heapq.heappop
        drive = self._drive_core
        complete = self._complete
        now = 0
        min_gap = FASTFORWARD_MIN_GAP_PS
        services = drives = completions = 0
        while heap and active:
            time_ps, seq, op, target, arg = heappop(heap)
            if time_ps - now >= min_gap:
                events.jump(now, time_ps)
            now = time_ps
            if op == OP_SERVICE:
                services += 1
                target.service(arg, time_ps)
                continue
            if op == OP_DRIVE:
                drives += 1
                done = drive(target, time_ps, seq)
            elif op == OP_COMPLETE:
                completions += 1
                done = complete(target, arg, time_ps, seq)
            else:
                pops[op] += 1
                target.maintain(op, arg, time_ps)
                continue
            if done and not target.done:
                target.done = True
                active -= 1
        pops[OP_SERVICE] += services
        pops[OP_DRIVE] += drives
        pops[OP_COMPLETE] += completions
        return self._finalize()

    def _finalize(self) -> SystemResult:
        elapsed = max((core.finalize().finish_ps for core in self.cores),
                      default=0)
        sim_stats: dict[str, object] = {
            "elapsed_ps": elapsed,
            "fastforward_ps": self.events.fastforward_ps,
        }
        if self._monitor is not None:
            sim_stats["row_activity"] = self._monitor.finalize(elapsed)

        def result(registry: StatsRegistry) -> SystemResult:
            registry.register("sim", lambda: sim_stats)
            return SystemResult(self.config, registry.snapshot(),
                                self.events.census())

        self.rider_results = []
        for policies in self.rider_sets:
            try:
                self.rider_results.append(
                    None if policies is None else
                    result(self._registry(policies)))
            except Exception:
                self.rider_results.append(None)
        return result(self.registry)


def _mitigation_aggregates(policies: list[MitigationPolicy]
                           ) -> dict[str, int]:
    """Cross-sub-channel totals under the bare ``mitigation.`` prefix."""
    return {
        "rfm_events": sum(p.stats.alerts for p in policies),
        "mitigations": sum(p.stats.mitigations for p in policies),
        "counter_updates": sum(p.stats.counter_updates for p in policies),
        "ref_drains": sum(p.stats.ref_drains for p in policies),
    }
