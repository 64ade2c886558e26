"""Determinism matrix: one seed, one answer — regardless of machinery.

The same design point must produce bit-identical ``SystemResult.stats``
(and core/MC stats) across every combination of machinery:

* **reruns**: the same point simulated twice in one process;
* **transport**: serial inline execution vs the parallel sweep engine;
* **observability**: with and without an :class:`EventTracer` attached.

Tracing is observability, not physics; parallelism is transport, not
physics. Any divergence here means hidden global state or an
order-dependent code path. That the numbers are the *right* ones — the
same the simulator has always produced — is pinned separately by the
golden fingerprints (``tests/check/test_goldens.py``).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.driver import oracle_config_for
from repro.check.oracle import ConformanceOracle
from repro.exec.engine import SweepEngine
from repro.obs.tracer import EventTracer
from repro.sim.runner import DesignPoint, run_point

FAST = dict(instructions=6_000, rows_per_bank=512, refresh_scale=1 / 256)

POINTS = [
    DesignPoint(workload="mcf", design="mopac-c", **FAST),
    DesignPoint(workload="xalancbmk", design="mopac-d", **FAST),
    DesignPoint(workload="hammer", design="qprac", trh=500, **FAST),
]


def fingerprint(result):
    return (
        dict(result.stats),
        [dataclasses.asdict(s) for s in result.core_stats],
        [dataclasses.asdict(s) for s in result.mc_stats],
        result.elapsed_ps,
    )


@pytest.mark.parametrize("point", POINTS,
                         ids=lambda p: f"{p.workload}.{p.design}")
class TestTracerTransparency:
    def test_tracer_on_equals_tracer_off(self, point):
        bare = run_point(point)
        tracer = EventTracer(capacity=2_000_000)
        traced = run_point(point, tracer=tracer)
        assert len(tracer) > 0  # the traced run really did record
        assert fingerprint(traced) == fingerprint(bare)

    def test_rerun_is_bit_identical(self, point):
        assert fingerprint(run_point(point)) == fingerprint(run_point(point))

    def test_traced_events_repeat(self, point):
        traces = []
        for _ in range(2):
            tracer = EventTracer(capacity=2_000_000)
            run_point(point, tracer=tracer)
            traces.append(tracer.events())
        assert traces[0] == traces[1]


class TestSerialParallelEquivalence:
    def test_sweep_paths_agree(self):
        serial = SweepEngine(workers=1, cache=None, use_memo=False)
        parallel = SweepEngine(workers=2, cache=None, use_memo=False)
        serial_results = serial.run(POINTS)
        parallel_results = parallel.run(POINTS)
        for point, a, b in zip(POINTS, serial_results, parallel_results):
            assert fingerprint(a) == fingerprint(b), point


@settings(max_examples=8, deadline=None)
@given(
    workload=st.sampled_from(("add", "mcf", "hammer", "mix2")),
    design=st.sampled_from(("baseline", "prac", "qprac", "mopac-c",
                            "mopac-d", "mopac-d-nup")),
    instructions=st.integers(min_value=2_000, max_value=8_000),
    page_policy=st.sampled_from(("open", "close", "ton100")),
    refresh_mode=st.sampled_from(("all-bank", "same-bank")),
)
def test_random_points_repeat_and_verify(workload, design, instructions,
                                         page_policy, refresh_mode):
    """Property: an arbitrary short point reruns bit-identically, and the
    oracle accepts its command trace."""
    point = DesignPoint(workload=workload, design=design, trh=500,
                        instructions=instructions, rows_per_bank=512,
                        refresh_scale=1 / 256, page_policy=page_policy,
                        refresh_mode=refresh_mode)
    tracer = EventTracer(capacity=2_000_000)
    traced = run_point(point, tracer=tracer)
    assert fingerprint(traced) == fingerprint(run_point(point))
    oracle = ConformanceOracle(oracle_config_for(point))
    assert oracle.verify(tracer.events()) == []
