"""Glue between design points and the conformance oracle.

:func:`verify_point` re-runs one :class:`~repro.sim.runner.DesignPoint`
with tracing enabled and replays the captured command stream through a
:class:`~repro.check.oracle.ConformanceOracle` configured from the same
policy parameters (but none of the simulator's timing machinery). This
is the primitive behind ``tests/check/test_oracle.py`` and the
``repro.tools.campaign verify`` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.tracer import EventTracer, TraceEvent
from ..sim.runner import DesignPoint, build_config, make_policy_factory, \
    run_point
from .oracle import ConformanceOracle, OracleConfig, Violation

#: ample for the reduced-scale points the verification runs use
TRACE_CAPACITY = 4_000_000


def oracle_config_for(point: DesignPoint) -> OracleConfig:
    """Oracle configuration matching a design point's device."""
    config = build_config(point)
    policy = make_policy_factory(point, config)(0)
    return OracleConfig.from_policy(policy,
                                    banks=config.dram.banks_per_subchannel,
                                    refresh_mode=point.refresh_mode)


@dataclass
class PointVerdict:
    """Outcome of verifying one design point's command stream."""

    point: DesignPoint
    events: list[TraceEvent]
    violations: list[Violation]
    events_checked: int = 0
    dropped: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.dropped

    @property
    def label(self) -> str:
        return (f"{self.point.workload}.{self.point.design}"
                f".t{self.point.trh}.{self.point.refresh_mode}")

    def describe(self) -> str:
        name = self.label
        if self.ok:
            return (f"{name}: OK ({self.events_checked} events, "
                    f"{sum(self.counts.values())} recorded)")
        if self.dropped:
            return (f"{name}: INCOMPLETE ({self.dropped} events dropped "
                    f"by the ring — raise TRACE_CAPACITY)")
        head = "; ".join(str(v) for v in self.violations[:3])
        return f"{name}: {len(self.violations)} violation(s) — {head}"


def trace_point(point: DesignPoint,
                capacity: int = TRACE_CAPACITY) -> EventTracer:
    """Run the point with tracing on; returns the populated tracer."""
    tracer = EventTracer(capacity=capacity)
    run_point(point, tracer=tracer)
    return tracer


def verify_point(point: DesignPoint,
                 capacity: int = TRACE_CAPACITY) -> PointVerdict:
    """Trace one point and replay its stream through the oracle."""
    tracer = trace_point(point, capacity)
    oracle = ConformanceOracle(oracle_config_for(point))
    violations = oracle.verify(tracer.events())
    return PointVerdict(point=point, events=tracer.events(),
                        violations=violations,
                        events_checked=oracle.events_checked,
                        dropped=tracer.dropped, counts=tracer.counts())
