"""System simulation: event loop, experiment runner, multi-chip helpers."""

from .runner import (DEFAULT_INSTRUCTIONS, DESIGNS, DesignPoint, SweepResult,
                     build_config, build_traces, clear_cache, fairness,
                     harmonic_speedup, make_policy_factory, simulate,
                     slowdown, slowdowns, sweep, weighted_speedup)
from .replication import Replication, replicate, significantly_faster
from .system import System, SystemResult

__all__ = [
    "DEFAULT_INSTRUCTIONS", "DESIGNS", "DesignPoint", "Replication",
    "SweepResult", "System", "SystemResult", "build_config", "build_traces",
    "clear_cache", "fairness", "harmonic_speedup", "make_policy_factory",
    "replicate", "significantly_faster",
    "simulate", "slowdown", "slowdowns", "sweep", "weighted_speedup",
]
