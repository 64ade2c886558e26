"""Per-mitigation fuzz seed corpora: curated cases the tier-1 suite replays.

A corpus entry pins one fuzzer case — ``(master_seed, index)`` plus the
expected design and event-kind census — chosen because it exercises a
path the plain fuzz campaign may miss (ALERT/RFM recovery for the exact
designs, bank-scoped RFMs for PRACtical, SRQ pressure for MoPAC-D,
proactive-service storms for QPRAC). Replay re-derives the case from its
seeds, re-runs the controller, re-verifies the trace with the
conformance oracle, and compares the census bit-for-bit; any divergence
is a behaviour change that needs a deliberate corpus update.

Corpus layout (one directory per design under ``tests/check/seeds/``)::

    tests/check/seeds/<design>/case-<index>.json
    {"master_seed": "0x5eed5", "index": 548, "design": "prac",
     "expect": {"events": 2452, "ACT": ..., "ALERT": 10, "RFM": 10}}

Failures found by the fuzzer shrink to a ``(master_seed, index)`` pair
too — append them here as regression fixtures once fixed.
"""

from __future__ import annotations

import collections
import json
from dataclasses import dataclass
from pathlib import Path

from .fuzz import build_case, run_case

#: kinds pinned in the census (order matches the JSON files)
CENSUS_KINDS = ("ACT", "PRE", "RD", "WR", "REF", "RFM", "ALERT", "MITIGATE")

@dataclass(frozen=True)
class CorpusCase:
    """One pinned fuzz case with its expected trace census."""

    design: str
    master_seed: int
    index: int
    expect: dict[str, int]
    path: str = ""

    @property
    def label(self) -> str:
        return f"{self.design}/case-{self.index}"


def census(events) -> dict[str, int]:
    """Event-kind counts of a trace, restricted to the pinned kinds."""
    counts = collections.Counter(e.kind for e in events)
    out = {"events": len(events)}
    out.update({kind: counts.get(kind, 0) for kind in CENSUS_KINDS})
    return out


def load_corpus(root: Path | str) -> list[CorpusCase]:
    """Load every corpus case under ``root``, sorted by (design, index)."""
    root = Path(root)
    cases: list[CorpusCase] = []
    for path in sorted(root.glob("*/case-*.json")):
        raw = json.loads(path.read_text())
        cases.append(CorpusCase(
            design=raw["design"],
            master_seed=int(raw["master_seed"], 0),
            index=int(raw["index"]),
            expect={k: int(v) for k, v in raw["expect"].items()},
            path=str(path)))
    cases.sort(key=lambda c: (c.design, c.index))
    return cases


def replay_corpus_case(entry: CorpusCase) -> tuple[int, list[str]]:
    """Replay one pinned case; returns (events_checked, failure strings)."""
    case = build_case(entry.master_seed, entry.index)
    failures: list[str] = []
    if case.design != entry.design:
        # derivation drifted: the stream generator changed under the seed
        failures.append(
            f"{entry.label}: derives design {case.design!r}, "
            f"expected {entry.design!r} — regenerate the corpus")
        return 0, failures
    events, violations, runaway = run_case(case)
    if runaway:
        failures.append(f"{entry.label}: runaway")
        return len(events), failures
    if violations:
        failures.append(
            f"{entry.label}: {len(violations)} violation(s), first: "
            f"{violations[0]}")
    got = census(events)
    if got != entry.expect:
        diff = {k: (entry.expect.get(k), got.get(k))
                for k in sorted(set(entry.expect) | set(got))
                if entry.expect.get(k) != got.get(k)}
        failures.append(f"{entry.label}: census drift {diff}")
    return len(events), failures
