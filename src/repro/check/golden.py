"""Golden fingerprints: the simulator's behaviour, frozen.

Each golden case is one small simulation. Its fingerprint is two
sha256 digests: one of the stats snapshot and one of the full :class:`EventTracer`
command trace. ``tests/check/goldens.json`` holds the committed
digests; any change to the simulated event sequence changes at least
one of them. Together with the conformance oracle, which must accept
every golden trace, they are the referee for changes to the engine.

The cases cover every registered mitigation plus ``baseline``, the
open / close / timeout page policies, both refresh modes, ABO level 2,
the PARA sampler, two-chip MoPAC-D, Row-Press parameters, the LLC, and
a generic (file-format) trace iterator. The ``fuzz-*`` cases fingerprint
the standalone controller harness of :mod:`repro.check.fuzz`.

Usage::

    PYTHONPATH=src python -m repro.check.golden           # verify
    PYTHONPATH=src python -m repro.check.golden --write   # regenerate
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..mitigations import registry
from ..obs.tracer import EventTracer, TraceEvent
from ..sim.runner import DesignPoint, build_config, build_system, \
    build_traces
from .driver import oracle_config_for
from .fuzz import build_case, run_case
from .oracle import ConformanceOracle, OracleConfig

#: committed digests, one entry per case name (in the source checkout,
#: beside the fuzz seed corpora)
GOLDENS_PATH = Path(__file__).resolve().parents[3] / "tests" / "check" \
    / "goldens.json"

#: ample for every case below
TRACE_CAPACITY = 2_000_000

#: small geometry shared by the design-point cases
SMALL = dict(rows_per_bank=128, refresh_scale=1 / 256)

#: hammering at T_RH 100 drives the ALERT/RFM paths of the PRAC family
_DESIGN_POINT = dict(workload="hammer", trh=100, instructions=60_000,
                     **SMALL)

#: fuzz master seed of ``tests/check/test_fuzz.py``'s campaign
FUZZ_SEED = 0xC4EC
FUZZ_CASES = 6


def _design_points() -> dict[str, DesignPoint]:
    points = {f"design-{name}": DesignPoint(design=name, **_DESIGN_POINT)
              for name in ("baseline",) + registry.names()}
    short = dict(instructions=20_000, **SMALL)
    points.update({
        "page-close": DesignPoint("mcf", "mopac-c", page_policy="close",
                                  **short),
        "page-ton100": DesignPoint("mix1", "prac", page_policy="ton100",
                                   **short),
        "refresh-same-bank": DesignPoint("hammer", "mopac-d", trh=100,
                                         refresh_mode="same-bank",
                                         **short),
        "abo-level-2": DesignPoint("hammer", "mopac-d", trh=100,
                                   abo_level=2, **short),
        "sampler-para": DesignPoint("hammer", "mopac-d", trh=100,
                                    sampler="para", **short),
        "chips-2": DesignPoint("hammer", "mopac-d", trh=100, chips=2,
                               **short),
        "rowpress": DesignPoint("hammer", "mopac-c", trh=100,
                                rowpress=True, **short),
        "mopac-d-nup": DesignPoint("hammer", "mopac-d-nup", trh=100,
                                   **short),
    })
    return points


#: the LLC and generic-trace cases, run with :func:`run_system` extras
LLC_POINT = DesignPoint("mix1", "prac", instructions=20_000, **SMALL)
ITERATOR_POINT = DesignPoint("mcf", "mopac-c", instructions=20_000,
                             **SMALL)


@dataclass(frozen=True)
class Fingerprint:
    stats: str
    trace: str
    events: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def stats_digest(result) -> str:
    """Digest of what a run reports: its stats snapshot (no wall time
    is in a result)."""
    return _digest(result.stats)


def trace_digest(events: list[TraceEvent]) -> str:
    return _digest([list(event) for event in events])


def _file_traces(point: DesignPoint, config) -> list:
    """The point's synthetic traces, cut short and round-tripped through
    the text trace format into plain generator iterators. Core ``i``
    gets ``150 + 100 * i`` accesses, so the low cores run out of trace
    and the high ones run out of instruction budget."""
    from ..cpu.trace import format_trace_item, read_trace

    traces = []
    for index, generator in enumerate(build_traces(point, config)):
        lines = [format_trace_item(next(generator))
                 for _ in range(150 + 100 * index)]
        traces.append(read_trace(lines))
    return traces


def run_system(point: DesignPoint, tracer: EventTracer | None = None,
               use_llc: bool = False, file_traces: bool = False):
    """Build and run ``point``'s System with the given extras."""
    traces = (_file_traces(point, build_config(point)) if file_traces
              else None)
    return build_system(point, traces, tracer=tracer,
                        use_llc=use_llc).run()


@dataclass(frozen=True)
class GoldenCase:
    name: str
    #: () -> (stats digest, trace)
    run: Callable[[], tuple[str, list[TraceEvent]]]
    oracle: Callable[[], OracleConfig]


def _point_case(name: str, point: DesignPoint, **extras) -> GoldenCase:
    def run():
        tracer = EventTracer(capacity=TRACE_CAPACITY)
        result = run_system(point, tracer, **extras)
        assert tracer.dropped == 0, f"{name}: trace ring overflowed"
        return stats_digest(result), tracer.events()
    return GoldenCase(name, run, lambda: oracle_config_for(point))


def _fuzz_case(index: int) -> GoldenCase:
    case = build_case(FUZZ_SEED, index)

    def run():
        events, _, runaway = run_case(case)
        assert not runaway, case.describe()
        census: dict[str, int] = {}
        for event in events:
            census[event.kind] = census.get(event.kind, 0) + 1
        return _digest(census), events

    def oracle():
        from .fuzz import _make_policy
        return OracleConfig.from_policy(_make_policy(case),
                                        banks=case.banks,
                                        refresh_mode=case.refresh_mode)

    return GoldenCase(f"fuzz-{index}", run, oracle)


def cases() -> dict[str, GoldenCase]:
    """Every golden case, by name."""
    out = {name: _point_case(name, point)
           for name, point in _design_points().items()}
    out["llc"] = _point_case("llc", LLC_POINT, use_llc=True)
    out["file-trace"] = _point_case("file-trace", ITERATOR_POINT,
                                    file_traces=True)
    for index in range(FUZZ_CASES):
        out[f"fuzz-{index}"] = _fuzz_case(index)
    return out


def fingerprint(case: GoldenCase) -> tuple[Fingerprint, list[TraceEvent]]:
    """Run one case traced; returns its fingerprint and trace."""
    stats, events = case.run()
    return Fingerprint(stats, trace_digest(events), len(events)), events


def load_goldens(path: Path = GOLDENS_PATH) -> dict[str, Fingerprint]:
    raw = json.loads(path.read_text())
    return {name: Fingerprint(**entry) for name, entry in raw.items()}


def check(quiet: bool = False) -> list[str]:
    """Re-run every case; returns one message per mismatch or
    oracle violation (empty = all goldens reproduced)."""
    goldens = load_goldens()
    failures = []
    for name, case in cases().items():
        got, events = fingerprint(case)
        want = goldens.get(name)
        ok = got == want
        if not ok:
            failures.append(f"{name}: got {got}, golden {want}")
        violations = ConformanceOracle(case.oracle()).verify(events)
        if violations:
            failures.append(f"{name}: {len(violations)} oracle "
                            f"violation(s), first {violations[0]}")
        if not quiet:
            print(f"[{'ok' if ok and not violations else 'FAIL'}] "
                  f"{name}: {got.events} events")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.golden",
        description="verify (or --write) the golden fingerprints")
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {GOLDENS_PATH.name}")
    args = parser.parse_args(argv)
    if args.write:
        out = {name: fingerprint(case)[0].as_dict()
               for name, case in cases().items()}
        GOLDENS_PATH.write_text(json.dumps(out, indent=1, sort_keys=True)
                                + "\n")
        print(f"wrote {len(out)} goldens to {GOLDENS_PATH}")
        return 0
    failures = check()
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
