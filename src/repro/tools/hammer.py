"""Attack CLI: run a Rowhammer pattern against a mitigation.

Usage::

    python -m repro.tools.hammer --design mopac-d --trh 500 \
        --pattern double-sided --acts 300000
    python -m repro.tools.hammer --design trr --pattern many-sided \
        --aggressors 24
"""

from __future__ import annotations

import argparse
import random

from ..attacks import patterns
from ..attacks.harness import run_attack
from ..mitigations import registry

DESIGNS = registry.buildable()
PATTERNS = ("single-sided", "double-sided", "many-sided", "multi-bank",
            "srq-fill", "decoy")


def build_pattern(name: str, banks: int, aggressors: int, seed: int):
    if name == "single-sided":
        return patterns.single_sided(0, 100)
    if name == "double-sided":
        return patterns.double_sided(0, 100)
    if name == "many-sided":
        return patterns.many_sided(0, range(100, 100 + aggressors))
    if name == "multi-bank":
        return patterns.multi_bank_single_row(range(banks), 100)
    if name == "srq-fill":
        return patterns.srq_fill(0, max(aggressors, 100))
    if name == "decoy":
        return patterns.decoy_hammer(0, 100, decoy_rows=aggressors,
                                     rng=random.Random(seed))
    raise ValueError(f"unknown pattern {name!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.hammer",
        description="Run a Rowhammer attack against a mitigation.")
    parser.add_argument("--design", choices=DESIGNS, default="mopac-d")
    parser.add_argument("--pattern", choices=PATTERNS,
                        default="double-sided")
    parser.add_argument("--trh", type=int, default=500)
    parser.add_argument("--acts", type=int, default=300_000)
    parser.add_argument("--banks", type=int, default=4)
    parser.add_argument("--rows", type=int, default=1024)
    parser.add_argument("--refresh-groups", type=int, default=64)
    parser.add_argument("--aggressors", type=int, default=24,
                        help="aggressor/decoy row count where relevant")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    policy = registry.make_policy(args.design, args.trh, args.banks,
                                  args.rows, args.refresh_groups, args.seed)
    pattern = build_pattern(args.pattern, args.banks, args.aggressors,
                            args.seed)
    result = run_attack(policy, pattern, args.acts, trh=args.trh,
                        banks=args.banks, rows=args.rows,
                        refresh_groups=args.refresh_groups)
    report = result.ledger
    print(f"design={args.design} pattern={args.pattern} trh={args.trh}")
    print(f"activations issued : {result.activations:,}")
    print(f"ALERT episodes     : {result.alerts}")
    print(f"hottest row        : bank {report.max_bank}, row "
          f"{report.max_row}, {report.max_count} unmitigated ACTs")
    verdict = "ATTACK SUCCEEDED" if result.attack_succeeded else \
        "attack defeated"
    print(f"verdict            : {verdict}")
    return 1 if result.attack_succeeded else 0


if __name__ == "__main__":
    raise SystemExit(main())
