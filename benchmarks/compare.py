"""Compare two ``BENCH_engine*.json`` summaries and gate regressions.

``bench_engine.py`` records per-(workload, design) wall-clock of the
engine plus a digest of each run's results. This tool diffs a
candidate run against a committed baseline and exits non-zero when the
engine regressed — in what it simulated (a row's digest changed, so
the timings no longer measure the same work), in work (a row's event
pops rose while its digest stayed: the same results cost more heap
events; the failure names each opcode whose count rose, e.g.
``service +1``) or in speed (a row's time grew by more than the threshold,
10% by default)::

    python benchmarks/compare.py results/BENCH_engine_smoke.json \
        results/BENCH_engine_current.json --threshold 0.25

``make bench-engine`` runs the smoke profile to a scratch file and
compares it against the committed baseline with ``BENCH_THRESHOLD``
(default 0.5 — sub-second smoke timings on shared runners jitter
~±20%, so the gate is wide; it catches a 2-3x slowdown, not the +16%
of losing block trace admission).

Rows present on only one side are reported but are not failures: the
benchmark mix is allowed to grow. Only like-for-like rows gate. A
rider row (design ``baseline+mopac-d``) gates the same way: its
``digest`` covers both of the group's results.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def _rows_by_key(doc: dict) -> dict[tuple[str, str], dict]:
    return {(row["workload"], row["design"]): row
            for row in doc.get("rows", [])}


def compare(baseline: dict, candidate: dict,
            threshold: float) -> tuple[list[str], list[str]]:
    """Diff two summaries; returns ``(failures, notes)``."""
    failures: list[str] = []
    notes: list[str] = []
    base_rows = _rows_by_key(baseline)
    cand_rows = _rows_by_key(candidate)

    for key in sorted(set(base_rows) - set(cand_rows)):
        notes.append(f"{key[0]}/{key[1]}: only in baseline (skipped)")
    for key in sorted(set(cand_rows) - set(base_rows)):
        notes.append(f"{key[0]}/{key[1]}: only in candidate (skipped)")

    for key in sorted(set(base_rows) & set(cand_rows)):
        base, cand = base_rows[key], cand_rows[key]
        label = f"{key[0]}/{key[1]}"
        if base["instructions"] == cand["instructions"] \
                and base["digest"] != cand["digest"]:
            failures.append(f"{label}: results changed (digest "
                            f"{base['digest'][:12]} -> "
                            f"{cand['digest'][:12]})")
        if base["digest"] == cand["digest"] and "pops" in base \
                and "pops" in cand:
            base_pops = sum(base["pops"].values())
            cand_pops = sum(cand["pops"].values())
            if cand_pops > base_pops:
                rose = ", ".join(
                    f"{op} +{count - base['pops'].get(op, 0)}"
                    for op, count in cand["pops"].items()
                    if count > base["pops"].get(op, 0))
                failures.append(f"{label}: event pops rose for the same "
                                f"results ({base_pops} -> {cand_pops}: "
                                f"{rose})")
        base_s, cand_s = base["seconds"], cand["seconds"]
        if base_s > 0 and cand_s > base_s * (1 + threshold):
            ratio = cand_s / base_s - 1
            failures.append(
                f"{label}: engine {ratio:+.0%} "
                f"({base_s:.4f}s -> {cand_s:.4f}s, "
                f"threshold {threshold:.0%})")
        else:
            notes.append(f"{label}: {base_s:.4f}s -> {cand_s:.4f}s")

    base_total = baseline.get("total_s", 0)
    cand_total = candidate.get("total_s", 0)
    if base_total > 0 and cand_total > base_total * (1 + threshold):
        ratio = cand_total / base_total - 1
        failures.append(f"total: engine {ratio:+.0%} "
                        f"({base_total:.4f}s -> {cand_total:.4f}s)")
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/compare.py",
        description="Diff two BENCH_engine*.json summaries; exit 1 on "
                    "changed results, more event pops for the same "
                    "results or a >threshold speed regression.")
    parser.add_argument("baseline", type=pathlib.Path,
                        help="committed baseline summary")
    parser.add_argument("candidate", type=pathlib.Path,
                        help="fresh summary to gate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="tolerated fractional slowdown of the "
                             "engine (default: 0.10)")
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be non-negative")

    try:
        baseline = json.loads(args.baseline.read_text())
        candidate = json.loads(args.candidate.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2

    failures, notes = compare(baseline, candidate, args.threshold)
    for line in notes:
        print(f"  {line}")
    if failures:
        print(f"REGRESSION ({len(failures)} failure(s)):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"OK: {args.candidate} within {args.threshold:.0%} of "
          f"{args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
