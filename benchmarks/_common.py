"""Shared benchmark plumbing.

Every bench regenerates one paper table/figure through the drivers in
:mod:`repro.analysis.experiments`, prints the rendered table, and writes it
to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference the
exact output.

Scale: benches default to a 3-workload, 60K-instruction profile so the
whole suite runs in minutes. Set ``REPRO_FULL=1`` (all 23 workloads) and
``REPRO_INSTRUCTIONS=<n>`` to reproduce at larger scale; the shapes
reported in EXPERIMENTS.md are stable across scales.

Execution: benches resolve their points through the :mod:`repro.exec`
resolver. Unless ``REPRO_CACHE_DIR`` is already set, results persist
under ``benchmarks/results/.cache`` so a rerun of any figure only
simulates design points it has not seen before. ``REPRO_WORKERS=<n>``
sizes the process pool; ``REPRO_WORKERS=1`` keeps every point inline.
"""

from __future__ import annotations

import pathlib

from repro.analysis.experiments import instruction_budget
from repro.exec.cache import CACHE_DIR_ENV, default_cache_dir
from repro.exec.env import env_flag, set_knob

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Persistent result cache shared by every benchmark invocation.
CACHE_DIR = RESULTS_DIR / ".cache"
if default_cache_dir() is None:
    set_knob(CACHE_DIR_ENV, str(CACHE_DIR))

#: one stream, one latency-bound, one low-MPKI, one hot-row stress
BENCH_WORKLOADS = ("add", "mcf", "xalancbmk", "hammer")


def bench_workloads() -> tuple[str, ...]:
    if env_flag("REPRO_FULL"):
        from repro.workloads.catalog import ALL_WORKLOADS, EXTRA_WORKLOADS
        return ALL_WORKLOADS + EXTRA_WORKLOADS
    return BENCH_WORKLOADS


def bench_instructions(default: int = 60_000) -> int:
    return instruction_budget(default)


def record(name: str, text: str) -> None:
    """Print the rendered table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print()
    print(text)


def run_once(benchmark, func):
    """Run an experiment driver exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
