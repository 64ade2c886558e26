"""Observability wired through the full stack: snapshots and tracing."""

import io
import json

import pytest

from repro.obs import EventTracer
from repro.sim.runner import DesignPoint, build_system, run_point

FAST = dict(trh=500, instructions=6_000, rows_per_bank=512,
            refresh_scale=1 / 256)
#: SRQ-pressure point guaranteeing ALERT/RFM traffic.
ABO = dict(workload="hammer", design="mopac-d", trh=250,
           instructions=12_000, rows_per_bank=128, refresh_scale=1 / 256,
           p=1.0, srq_size=5, drain_on_ref=0)


@pytest.fixture(scope="module")
def result():
    return run_point(DesignPoint(workload="mcf", design="prac", **FAST))


@pytest.fixture(scope="module")
def traced():
    tracer = EventTracer()
    result = run_point(DesignPoint(**ABO), tracer=tracer)
    return tracer, result


@pytest.fixture(scope="module")
def plain():
    return run_point(DesignPoint(**ABO))


class TestSnapshot:
    def test_dotted_namespace_present(self, result):
        snap = result.stats
        assert "mc.0.row_hits" in snap
        assert "mc.0.bank.0.activations" in snap
        assert "mitigation.0.alerts" in snap
        assert "mitigation.rfm_events" in snap
        assert "core.0.ipc" in snap
        assert "sim.elapsed_ps" in snap

    def test_snapshot_matches_dataclass_stats(self):
        point = DesignPoint(workload="mcf", design="prac", **FAST)
        system = build_system(point)
        result = system.run()
        assert result.stats["mc.0.row_hits"] == \
            system.controllers[0].stats.row_hits
        assert result.stats["sim.elapsed_ps"] == result.elapsed_ps == \
            max(core.stats.finish_ps for core in system.cores)
        assert result.stats["core.0.ipc"] == result.ipcs[0] == \
            system.cores[0].stats.ipc(result.config.core_ghz)

    def test_latency_histogram_in_snapshot(self, result):
        snap = result.stats
        total = result.total("serviced")
        count = sum(snap[f"mc.{i}.latency_ps.count"]
                    for i in range(result.config.dram.subchannels))
        assert count == total
        assert snap["mc.0.latency_ps.p50"] > 0

    def test_keys_sorted(self, result):
        keys = list(result.stats)
        assert keys == sorted(keys)

    def test_snapshot_deterministic(self, result):
        again = run_point(DesignPoint(workload="mcf", design="prac",
                                      **FAST))
        assert again.stats == result.stats


class TestTracing:
    def test_alert_and_rfm_events_match_stats(self, traced):
        tracer, result = traced
        counts = tracer.counts()
        assert counts["ALERT"] == result.total("alerts") > 0
        assert counts["RFM"] == result.total("rfm_commands")
        assert counts["ACT"] == result.total_activations

    def test_drain_events_traced(self, traced):
        tracer, result = traced
        drains = tracer.events("DRAIN")
        assert drains, "SRQ-pressure run must drain"
        assert {event.cause for event in drains} <= {"ref", "rfm"}

    def test_tracing_does_not_perturb(self, traced, plain):
        _, traced_result = traced
        assert plain.ipcs == traced_result.ipcs
        assert plain.stats == traced_result.stats

    def test_chrome_export_holds_every_event(self, traced):
        tracer, _ = traced
        buffer = io.StringIO()
        written = tracer.to_chrome_trace(buffer)
        events = json.loads(buffer.getvalue())["traceEvents"]
        assert written == len(tracer) == len(events)
        assert {e["name"] for e in events} == set(tracer.counts())

    def test_events_time_ordered_per_subchannel(self, traced):
        tracer, _ = traced
        last: dict[int, int] = {}
        for event in tracer.events():
            if event.kind == "ACT":
                assert event.time_ps >= last.get(event.subchannel, 0)
                last[event.subchannel] = event.time_ps
