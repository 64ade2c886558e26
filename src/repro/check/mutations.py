"""Seeded trace mutations that the oracle must catch.

A verification oracle that never fires is indistinguishable from one
that checks nothing, so each mutation below takes a *legal* traced
stream, breaks exactly one protocol rule, and returns the mutated
stream; ``tests/check/test_oracle.py`` asserts the oracle flags it.

* :func:`drop_pre` — remove a PRE whose bank is re-activated later:
  the next ACT lands on an open bank (open-row exclusivity);
* :func:`shrink_trc` — move an ACT to one nanosecond before its
  tRP/tRC-derived earliest issue time;
* :func:`skip_rfm` — remove an RFM group whose ALERT is followed by
  more commands: the stream keeps operating past the 180 ns ABO window.

Mutation sites are chosen with a seeded :class:`random.Random` so
failures replay exactly.
"""

from __future__ import annotations

import random

from ..dram.timing import TimingSet
from ..obs.tracer import TraceEvent
from .oracle import OracleConfig

NS = 1000  # ps per ns


class MutationError(ValueError):
    """The trace has no site where this mutation can apply."""


def _ordered(events: list[TraceEvent]) -> list[TraceEvent]:
    return sorted(events, key=lambda e: e.time_ps)


def drop_pre(events: list[TraceEvent], rng: random.Random
             ) -> list[TraceEvent]:
    """Remove one PRE that is followed by an ACT on the same bank."""
    ordered = _ordered(events)
    reactivated: list[int] = []
    seen_act: set[tuple[int, int]] = set()
    for i in range(len(ordered) - 1, -1, -1):
        event = ordered[i]
        key = (event.subchannel, event.bank)
        if event.kind == "ACT":
            seen_act.add(key)
        elif event.kind == "PRE" and key in seen_act:
            reactivated.append(i)
    reactivated.reverse()
    if not reactivated:
        raise MutationError("no PRE with a later ACT on its bank")
    victim = rng.choice(reactivated)
    return ordered[:victim] + ordered[victim + 1:]


def shrink_trc(events: list[TraceEvent], config: OracleConfig,
               rng: random.Random) -> list[TraceEvent]:
    """Back-date one ACT to just before tRP/tRC allow it.

    The target is the second ACT of a PRE -> ACT pair on one bank; its
    legal earliest issue time is ``max(pre + tRP, prev_act + tRC)``
    (both from the closing PRE's episode timing), so dating it 1 ns
    earlier violates exactly the ACT-spacing rule.
    """
    ordered = _ordered(events)
    candidates: list[tuple[int, int]] = []  # (act index, earliest legal)
    last_act: dict[tuple[int, int], TraceEvent] = {}
    last_pre: dict[tuple[int, int], TraceEvent] = {}
    for i, event in enumerate(ordered):
        key = (event.subchannel, event.bank)
        if event.kind == "PRE":
            last_pre[key] = event
        elif event.kind == "ACT":
            pre, prev = last_pre.get(key), last_act.get(key)
            if pre is not None and prev is not None:
                timing = _episode(config, pre.cu)
                earliest = max(pre.time_ps + timing.tRP,
                               prev.time_ps + timing.tRC)
                # moving to earliest-1ns must stay after the PRE (no
                # reordering) and actually move the ACT backwards
                if pre.time_ps < earliest - NS < event.time_ps:
                    candidates.append((i, earliest))
            last_act[key] = event
    if not candidates:
        raise MutationError("no ACT tight against its tRP/tRC bound")
    index, earliest = rng.choice(candidates)
    moved = ordered[index]._replace(time_ps=earliest - NS)
    return ordered[:index] + [moved] + ordered[index + 1:]


def skip_rfm(events: list[TraceEvent], rng: random.Random
             ) -> list[TraceEvent]:
    """Remove one RFM group whose sub-channel keeps operating after it."""
    ordered = _ordered(events)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, event in enumerate(ordered):
        if event.kind == "RFM":
            groups.setdefault((event.subchannel, event.time_ps),
                              []).append(i)
    viable = []
    for (sc, t), indices in groups.items():
        follow_on = any(e.kind in ("ACT", "PRE", "RD", "WR")
                        and e.subchannel == sc
                        for e in ordered[max(indices) + 1:])
        if follow_on:
            viable.append(indices)
    if not viable:
        raise MutationError("no RFM group with later commands to expose it")
    victim = set(rng.choice(viable))
    return [e for i, e in enumerate(ordered) if i not in victim]


def _episode(config: OracleConfig, cu: bool) -> TimingSet:
    return config.episode(cu)
