"""Tests of the benchmark's pure helpers and its outside-in probe.

Run from the checkout root: ``python -m pytest campaign_bench/tests``.
"""

from __future__ import annotations

import os
import pathlib
import signal
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import ledger  # noqa: E402
import speed  # noqa: E402
from probe import Probe, Sink  # noqa: E402


def test_digest_tracks_every_byte():
    assert ledger.digest(b"a,b\n1,2\n") == ledger.digest(b"a,b\n1,2\n")
    assert ledger.digest(b"a,b\n1,2\n") != ledger.digest(b"a,b\n1,3\n")


def test_derive_seed_is_stable_and_label_specific():
    assert ledger.derive_seed(7, "cold") == ledger.derive_seed(7, "cold")
    assert ledger.derive_seed(7, "cold") != ledger.derive_seed(8, "cold")
    assert ledger.derive_seed(7, "cold") != ledger.derive_seed(7, "warm")
    assert 0 <= ledger.derive_seed(7, "cold") < 2 ** 32


def _stats(scale: int) -> dict:
    return {
        "mc.0.serviced": 10 * scale, "mc.1.serviced": 5 * scale,
        "mc.0.activations": 4, "mc.1.activations": 3,
        "mc.0.read_serviced": 2, "mc.0.read_latency_ps": 3000,
        "mc.0.bank.3.activations": 99,  # per-bank detail: not summed
        "mitigation.counter_updates": 6, "mitigation.0.counter_updates": 6,
        "core.0.requests": 7, "core.1.requests": 8,
        "core.0.instructions": 100, "core.1.instructions": 100,
        "sim.elapsed_ps": 1000, "sim.fastforward_ps": 10,
    }


def test_work_counts_sums_units_and_points():
    counts = ledger.work_counts([_stats(1), _stats(2)])
    assert counts["mc.serviced"] == 45
    assert counts["mc.activations"] == 14
    assert counts["mc.read_latency_ps"] == 6000
    assert counts["mitigation.counter_updates"] == 12
    assert counts["mitigation.rfm_events"] == 0  # absent key: no work
    assert counts["workloads.trace_items"] == 30
    assert counts["sim.instructions"] == 400
    assert counts["sim.simulated_ps"] == 2000
    assert counts["sim.fastforward_ps"] == 20


def test_ledger_drift_names_changed_and_missing_keys():
    first = {"a": 1, "b": 2, "c": "0.5"}
    assert ledger.ledger_drift([first, dict(first), dict(first)]) == []
    assert ledger.ledger_drift([first, {**first, "b": 3}]) == ["b"]
    assert ledger.ledger_drift([first, {"a": 1, "b": 2}]) == ["c"]
    assert ledger.ledger_drift([first, {**first, "d": 0}]) == ["d"]
    assert ledger.ledger_drift([]) == []


def test_bad_campaign_rows():
    rows = [
        {"name": "ok", "requests": "10", "slowdown": "0.01"},
        {"name": "idle", "requests": "0", "slowdown": "0.0"},
        {"name": "nan", "requests": "5", "slowdown": "nan"},
        {"name": "inf", "requests": "5", "slowdown": "-inf"},
        {"name": "junk", "requests": "x", "slowdown": "0.1"},
    ]
    assert ledger.bad_campaign_rows(rows) == ["idle", "nan", "inf", "junk"]


def test_broken_secure_designs_spares_known_strawmen():
    rows = [{"design": "prac", "secure": "yes"},
            {"design": "trr", "secure": "broken*"},
            {"design": "mint", "secure": "BROKEN"}]
    assert ledger.broken_secure_designs(rows) == ["mint"]


def test_mitigation_ledger_matches_between_csv_and_outcomes():
    from_csv = [{"design": "mopac-c", "alerts": "3", "mitigations": "9",
                 "max_count": "120", "drift_max": "40",
                 "cu_per_act": "0.125", "secure": "yes"}]
    from_outcomes = [{"design": "mopac-c", "alerts": 3, "mitigations": 9,
                      "max_count": 120, "drift_max": 40,
                      "cu_per_act": ledger.cu_per_act(7500, 60_000)}]
    assert ledger.mitigation_ledger(from_csv) \
        == ledger.mitigation_ledger(from_outcomes)


def test_cu_per_act_matches_table_format():
    assert ledger.cu_per_act(1, 3) == "0.333"
    assert ledger.cu_per_act(5, 0) == "0"


def test_engine_ratios():
    # two workers busy 9 of 10 worker-seconds over a 5 s run
    assert ledger.pool_efficiency(9.0, 5.0, 2) == pytest.approx(0.9)
    assert ledger.dispatch_s(9.0, 5.0, 2) == pytest.approx(0.5)
    assert ledger.pool_efficiency(1.0, 0.0, 2) == 0.0


def test_policy_ns_per_act_subtracts_stream_and_floor():
    # designs take 1.1 s and 1.3 s; the stream 0.1 s, the floor 0.5 s
    value = ledger.policy_ns_per_act([1.1, 1.3], 0.1, 0.5, 1_000_000)
    assert value == pytest.approx(600.0)
    assert ledger.policy_ns_per_act([], 0.1, 0.5, 10) == 0.0


def test_histogram_delta_mean_isolates_new_observations():
    before = {"lat.count": 2, "lat.mean": 100.0}
    after = {"lat.count": 4, "lat.mean": 200.0}  # new ones: 300 and 300
    assert ledger.histogram_delta_mean(before, after, "lat") \
        == pytest.approx(300.0)
    assert ledger.histogram_delta_mean({}, after, "lat") \
        == pytest.approx(200.0)
    assert ledger.histogram_delta_mean(after, after, "lat") == 0.0


def test_poll_wait_share():
    assert ledger.poll_wait_share(3.0, 2.0, 4.0) == pytest.approx(0.25)
    assert ledger.poll_wait_share(3.0, 2.0, 0.0) == 0.0


def test_reference_seconds_scales_by_host_speed():
    # the loop ran at half the reference speed: the work counts half
    assert speed.reference_seconds(4.0, [2e-4], 1e-4) == pytest.approx(2.0)
    # cores at the reference speed and at a third of it
    assert speed.reference_seconds(4.0, [1e-4, 3e-4], 1e-4) \
        == pytest.approx(2.0)


def test_samples_mean_takes_the_nearest_sample_when_empty():
    samples = speed.Samples()
    for start, seconds in ((1.0, 2e-4), (2.0, 4e-4), (3.0, 6e-4)):
        samples.add(start, seconds)
    assert samples.mean(1.5, 3.5) == pytest.approx(5e-4)
    assert samples.mean(0.0, 0.5) == pytest.approx(2e-4)
    assert samples.mean(9.0, 9.5) == pytest.approx(6e-4)


def _busy(seconds):
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pass
    return start, time.perf_counter()


def test_speed_clock_in_process_restores_handler(tmp_path):
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock(False, tmp_path, period_s=0.005) as clock:
        start, end = _busy(0.1)
        assert clock.seconds(start, end) > 0.0
    assert len(clock.sources[0].spins) >= 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_clock_per_core_stops_its_samplers(tmp_path):
    with speed.SpeedClock(True, tmp_path, period_s=0.005) as clock:
        samplers = [process for process, _ in clock._samplers]
        assert len(samplers) == len(os.sched_getaffinity(0))
        start, end = _busy(0.3)
        assert clock.seconds(start, end) > 0.0
    assert all(process.poll() is not None for process in samplers)
    assert all(source.starts for source in clock.sources)


def test_overhead_pct_compares_medians():
    assert ledger.overhead_pct([1.1, 1.2, 1.0], [1.0, 1.0]) \
        == pytest.approx(10.0)
    assert ledger.overhead_pct([0.9], [1.0, 1.0]) == pytest.approx(-10.0)


class _Target:
    def work(self, value):
        return value * 2


def _double(value):
    return value * 2


def test_probe_times_calls_and_restores(tmp_path):
    module = type(sys)("fake_module")
    module.double = _double
    module.factory = list
    sink = Sink(tmp_path / "sink")
    with Probe(sink) as probe:
        probe.wrap(module, "double", "fake.double")
        probe.wrap(_Target, "work", "fake.work")
        probe.replace(module, "factory", tuple)
        assert module.factory is tuple
        assert module.double(2) == 4
        assert _Target().work(3) == 6
        assert _Target().work(4) == 8
    assert module.double is _double
    assert module.factory is list
    assert "work" in vars(_Target)
    totals = sink.totals()
    assert totals["fake.double"][0] == 1
    assert totals["fake.work"][0] == 2
    starts = [start for start, _ in sink.calls()["fake.work"]]
    assert starts == sorted(starts)


class _Base:
    def run(self):
        return "base"


class _Child(_Base):
    pass


def test_probe_restores_inherited_methods(tmp_path):
    with Probe(Sink(tmp_path)) as probe:
        probe.wrap(_Child, "run", "child.run")
        assert _Child().run() == "base"
        assert "run" in vars(_Child)
    assert "run" not in vars(_Child)
    assert _Child().run() == "base"


def test_probe_records_failing_calls(tmp_path):
    module = type(sys)("fake_module")

    def boom():
        raise ValueError("boom")

    module.boom = boom
    sink = Sink(tmp_path)
    with Probe(sink) as probe:
        probe.wrap(module, "boom", "fake.boom")
        with pytest.raises(ValueError):
            module.boom()
    assert sink.totals()["fake.boom"][0] == 1
