"""Property-based fuzzing of the MC scheduler and page policies.

Each fuzz case builds a real :class:`~repro.mc.controller.MemoryController`
(with a randomly drawn mitigation design, page policy, refresh mode, and
geometry) on a private :class:`~repro.mc.events.EventLoop`, drives it
with a seeded randomized request stream — bursty arrivals, conflict
ping-pong, hot rows, writes — and replays the traced command stream
through the conformance oracle.
The property under test: *every stream the controller emits is legal.*

Failures shrink by trace-prefix bisection (:func:`shrink_prefix`) and
carry the case's derivation seed, so ``replay_case(master_seed, index)``
reproduces the exact controller run and trace.

Case seeds come from :func:`repro.rng.derive_seed` named streams off one
master seed — logging the master seed is enough to replay any case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..config import DRAMConfig
from ..mc.controller import MemoryController
from ..mc.events import EventLoop
from ..mc.pagepolicy import make_page_policy
from ..mc.request import MemRequest
from ..mitigations import registry as mitigation_registry
from ..obs.tracer import EventTracer, TraceEvent
from ..rng import derive_seed
from .oracle import ConformanceOracle, OracleConfig, Violation

NS = 1000

#: every registered mitigation plus the unprotected baseline — a design
#: registered in :mod:`repro.mitigations.registry` is fuzzed for free
DESIGN_CHOICES = ("baseline",) + mitigation_registry.names()

#: constructor overrides applied by the fuzzer (tiny structures so the
#: randomized streams actually exercise pressure/eviction paths)
_FUZZ_OVERRIDES: dict[str, dict] = {
    "mopac-d": {"srq_size": 5},
    "cnc-prac": {"buffer_size": 4, "flush_threshold": 4},
    "practical": {"subarrays": 4},
    "qprac-proactive": {"queue_size": 4},
}
PAGE_POLICY_CHOICES = ("open", "close", "ton60", "ton200")
REFRESH_MODE_CHOICES = ("all-bank", "same-bank")

#: runaway-case backstop: heap events processed before giving up
MAX_EVENTS = 500_000


@dataclass(frozen=True)
class RequestSpec:
    arrival_ps: int
    bank: int
    row: int
    is_write: bool


@dataclass(frozen=True)
class FuzzCase:
    """One fully-derived fuzz scenario (reconstructible from its seed)."""

    index: int
    seed: int
    design: str
    page_policy: str
    refresh_mode: str
    banks: int
    rows: int
    trh: int
    requests: tuple[RequestSpec, ...]

    def describe(self) -> str:
        return (f"case {self.index} (seed {hex(self.seed)}): "
                f"{self.design}/{self.page_policy}/{self.refresh_mode} "
                f"banks={self.banks} rows={self.rows} trh={self.trh} "
                f"requests={len(self.requests)}")


@dataclass
class FuzzFailure:
    case: FuzzCase
    violations: list[Violation]
    shrunk_events: int
    runaway: bool = False

    def describe(self) -> str:
        if self.runaway:
            return f"{self.case.describe()}: runaway (> {MAX_EVENTS} events)"
        head = str(self.violations[0]) if self.violations else "?"
        return (f"{self.case.describe()}: {len(self.violations)} "
                f"violation(s), first at event prefix "
                f"{self.shrunk_events} — {head}")


@dataclass
class FuzzReport:
    master_seed: int
    cases_run: int = 0
    events_checked: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [f"fuzz master_seed={hex(self.master_seed)}: "
                 f"{self.cases_run} case(s), {self.events_checked} events "
                 + ("OK" if self.ok else f"{len(self.failures)} FAILURES")]
        lines.extend("  " + f.describe() for f in self.failures)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Case derivation
# ---------------------------------------------------------------------------
def build_case(master_seed: int, index: int) -> FuzzCase:
    """Derive fuzz case ``index`` deterministically from the master seed."""
    seed = derive_seed(master_seed, f"fuzz-case-{index}")
    rng = random.Random(seed)
    banks = rng.choice((2, 4, 8))
    rows = rng.choice((64, 128))
    design = rng.choice(DESIGN_CHOICES)
    case = FuzzCase(
        index=index, seed=seed, design=design,
        page_policy=rng.choice(PAGE_POLICY_CHOICES),
        refresh_mode=rng.choice(REFRESH_MODE_CHOICES),
        banks=banks, rows=rows,
        trh=rng.choice((100, 250)),
        requests=tuple(_gen_requests(rng, banks, rows)),
    )
    return case


def _gen_requests(rng: random.Random, banks: int,
                  rows: int) -> list[RequestSpec]:
    n = rng.randrange(200, 600)
    write_frac = rng.uniform(0.0, 0.5)
    # three stream shapes, possibly blended
    hot = [(rng.randrange(banks), rng.randrange(rows))
           for _ in range(rng.randrange(1, 4))]
    pair_bank = rng.randrange(banks)
    pair_rows = (rng.randrange(rows), rng.randrange(rows))
    bursty = rng.random() < 0.5
    # hammer shape: cycle one bank through more rows than the FR-FCFS
    # window (so the open row is never a lookahead hit and every request
    # pays a fresh conflict ACT), paced past PRAC tRC so the queue stays
    # shallow — per-row ACT counts then cross ATH even for exact designs
    # (ath(100) = 65) and fuzz reaches the ALERT/RFM recovery paths
    hammer = rng.random() < 0.3
    ping_weight = 0.4
    cycle: tuple[int, ...] = ()
    if hammer:
        ping_weight = 0.9
        n = rng.randrange(800, 1100)
        base = rng.randrange(rows)
        cycle = tuple((base + j) % rows for j in range(10))
    out: list[RequestSpec] = []
    t = 0
    for _ in range(n):
        if hammer:
            t += rng.randrange(110 * NS, 140 * NS)
        else:
            t += rng.randrange(0, 4 * NS) if bursty \
                else rng.randrange(0, 120 * NS)
        roll = rng.random()
        if roll < ping_weight:  # conflict pressure on one bank
            bank, row = (pair_bank, cycle[len(out) % len(cycle)]) if hammer \
                else (pair_bank, pair_rows[len(out) % 2])
        elif roll < 0.75:  # hot rows (row-hit streaks, tracker pressure)
            bank, row = rng.choice(hot)
        else:
            bank, row = rng.randrange(banks), rng.randrange(rows)
        out.append(RequestSpec(arrival_ps=t, bank=bank, row=row,
                               is_write=rng.random() < write_frac))
    return out


def _make_policy(case: FuzzCase):
    overrides = _FUZZ_OVERRIDES.get(case.design, {})
    return mitigation_registry.make_policy(
        case.design, case.trh, case.banks, case.rows,
        refresh_groups=min(64, case.rows), seed=case.seed, **overrides)


# ---------------------------------------------------------------------------
# Micro-harness: one controller on a private event loop
# ---------------------------------------------------------------------------
def run_case(case: FuzzCase) -> tuple[list[TraceEvent], list[Violation],
                                      bool]:
    """Execute one case; returns (events, violations, runaway)."""
    policy = _make_policy(case)
    config = DRAMConfig(banks_per_subchannel=case.banks,
                        rows_per_bank=case.rows)
    events = EventLoop()
    controller = MemoryController(
        subchannel=0, config=config, policy=policy, events=events,
        page_policy=make_page_policy(case.page_policy),
        refresh_mode=case.refresh_mode)
    tracer = EventTracer(capacity=2_000_000)
    controller.tracer = tracer
    policy.tracer = tracer
    policy.tracer_subchannel = 0
    controller.start()
    for spec in case.requests:
        controller.enqueue(MemRequest(0, 0, spec.bank, spec.row,
                                      spec.arrival_ps, spec.is_write),
                           now=spec.arrival_ps)

    total = len(case.requests)
    drain_deadline: int | None = None

    def drained(time_ps: int) -> bool:
        # once every request is serviced, let pending closes and one
        # refresh round settle, then stop
        nonlocal drain_deadline
        if controller._alert_in_flight:
            return False
        if drain_deadline is None and controller.stats.serviced == total:
            drain_deadline = time_ps + 2 * policy.timing.tREFI
        return drain_deadline is not None and time_ps > drain_deadline

    if events.run(stop=drained, max_events=MAX_EVENTS) == MAX_EVENTS:
        return tracer.events(), [], True

    oracle = ConformanceOracle(OracleConfig.from_policy(
        policy, banks=case.banks, refresh_mode=case.refresh_mode))
    violations = oracle.verify(tracer.events())
    return tracer.events(), violations, False


def replay_case(master_seed: int, index: int) -> tuple[FuzzCase,
                                                       list[Violation]]:
    """Re-derive and re-run one case from its logged seeds."""
    case = build_case(master_seed, index)
    _, violations, _ = run_case(case)
    return case, violations


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------
def shrink_prefix(items: Sequence, fails: Callable[[Sequence], bool]) -> int:
    """Smallest k such that ``fails(items[:k])``, by bisection.

    Assumes prefix-monotonicity (once a prefix fails, every extension
    fails) — true for oracle violations, which depend only on events up
    to and including the violating one.
    """
    if not fails(items):
        raise ValueError("full sequence does not fail")
    lo, hi = 1, len(items)
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(items[:mid]):
            hi = mid
        else:
            lo = mid + 1
    return hi


def _shrink_trace(case: FuzzCase, events: list[TraceEvent]) -> int:
    config_policy = _make_policy(case)
    oracle_config = OracleConfig.from_policy(
        config_policy, banks=case.banks, refresh_mode=case.refresh_mode)

    def fails(prefix) -> bool:
        return bool(ConformanceOracle(oracle_config).verify(list(prefix)))

    return shrink_prefix(events, fails)


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------
def run_fuzz(cases: int = 20, master_seed: int = 0xC4EC) -> FuzzReport:
    """Fuzz ``cases`` randomized controller scenarios."""
    report = FuzzReport(master_seed=master_seed)
    for index in range(cases):
        case = build_case(master_seed, index)
        events, violations, runaway = run_case(case)
        report.cases_run += 1
        report.events_checked += len(events)
        if runaway:
            report.failures.append(FuzzFailure(case, [], 0, runaway=True))
        elif violations:
            shrunk = _shrink_trace(case, events)
            report.failures.append(
                FuzzFailure(case, violations, shrunk))
    return report
