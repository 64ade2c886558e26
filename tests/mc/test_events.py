"""The standalone event loop that drives controllers alone."""

import pytest

from repro.config import DRAMConfig
from repro.dram.timing import ddr5_base
from repro.mc.controller import MemoryController
from repro.mc.events import OP_COMPLETE, OP_REF, EventLoop
from repro.mitigations.prac import BaselinePolicy
from repro.obs.tracer import EventTracer


def refreshing_controller():
    timing = ddr5_base()
    config = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                        rows_per_bank=128, timing=timing)
    events = EventLoop()
    mc = MemoryController(0, config, BaselinePolicy(timing), events)
    mc.tracer = EventTracer()
    mc.start()  # an endless REF stream, one event per tREFI
    return events, mc, timing.tREFI


class TestRun:
    def test_until_bounds_the_run(self):
        events, mc, trefi = refreshing_controller()
        assert events.run(until=3 * trefi) == 3
        assert mc.stats.refreshes == 3
        assert events.heap[0][0] == 4 * trefi  # the next one is queued

    def test_stop_sees_the_next_event_time(self):
        events, mc, trefi = refreshing_controller()
        seen = []

        def stop(time_ps):
            seen.append(time_ps)
            return time_ps > 2 * trefi

        assert events.run(stop=stop) == 2
        assert seen == [trefi, 2 * trefi, 3 * trefi]

    def test_max_events(self):
        events, mc, _ = refreshing_controller()
        assert events.run(max_events=5) == 5
        assert len(mc.tracer.events("REF")) == 5

    def test_ties_pop_in_push_order(self):
        events = EventLoop()
        order = []

        class Probe:
            def __init__(self, name):
                self.name = name

            def maintain(self, op, arg, now):
                order.append((self.name, now))

        for name in "abc":
            events.push(10, OP_REF, Probe(name), 0)
        events.push(5, OP_REF, Probe("first"), 0)
        events.run()
        assert order == [("first", 5), ("a", 10), ("b", 10), ("c", 10)]

    def test_controller_rejects_core_events(self):
        events, mc, _ = refreshing_controller()
        with pytest.raises(ValueError, match="not a controller event"):
            mc.maintain(OP_COMPLETE, 0, 0)
