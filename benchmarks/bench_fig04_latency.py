"""Figure 4: row-buffer-conflict read latency, baseline vs PRAC —
analytically and through the full memory controller."""

from _common import record, run_once

from repro.analysis import experiments as ex
from repro.config import DRAMConfig
from repro.dram.timing import ddr5_base, ddr5_prac
from repro.mc.controller import MemoryController
from repro.mc.events import EventLoop
from repro.mc.request import MemRequest
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy
from repro.units import ns, to_ns


def _conflict_latency(timing, policy):
    config = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                        rows_per_bank=128, timing=timing)
    events = EventLoop()
    mc = MemoryController(0, config, policy, events)
    mc.enqueue(MemRequest(0, 0, 0, 5, 0), 0)
    events.run()
    conflict = MemRequest(0, 0, 0, 9, ns(500))
    mc.enqueue(conflict, ns(500))
    events.run()
    return to_ns(conflict.latency_ps)


def test_fig04_latency(benchmark):
    analytic = run_once(benchmark, ex.fig4_latency)
    base_mc = _conflict_latency(ddr5_base(), BaselinePolicy(ddr5_base()))
    prac_mc = _conflict_latency(
        ddr5_prac(), PRACMoatPolicy(500, 4, 128, 32, timing=ddr5_prac()))
    text = (
        "Figure 4: row-conflict read latency\n"
        f"  analytic  : baseline {analytic['baseline_ns']:.0f} ns, "
        f"PRAC {analytic['prac_ns']:.0f} ns (paper: 40 / 62 ns)\n"
        f"  controller: baseline {base_mc:.1f} ns, PRAC {prac_mc:.1f} ns "
        "(includes CAS + burst)\n"
    )
    record("fig04_latency", text)
    assert analytic["baseline_ns"] == 40
    # PRAC's PRE+ACT component is 52 ns vs 28 ns (>= 55% worse overall)
    assert prac_mc - base_mc == to_ns(ns(24))
