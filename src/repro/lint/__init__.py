"""Static enforcement of the repo's reproducibility contracts.

``repro.lint`` is a stdlib-only, AST-visitor-based linter that proves —
statically, over *all* code paths — the invariants the dynamic layers
(conformance oracle, differential harness, fuzzer) can only spot-check
after the fact:

* **determinism** — no wall-clock or OS-entropy reads inside the
  simulation core (``docs/verification.md``'s bit-identity claims);
* **rng-discipline** — all randomness flows through seeded
  :mod:`repro.rng` handles, never module-level ``random``;
* **env-discipline** — ``os.environ`` is only touched by the strict
  knob parsers in :mod:`repro.exec.env`;
* **async-blocking** — no blocking calls inside ``async def`` bodies
  in the serve daemon;
* **stats-namespace** — every registered metric name matches the
  declared schema in :mod:`repro.obs.schema` (``docs/observability.md``
  is generated from the same source);
* **registry-completeness** — every mitigation in
  :mod:`repro.mitigations.registry` has contract-suite coverage, a
  seed corpus, and a docs row;
* **suppression-hygiene** — every inline waiver is well-formed, names
  a real rule, and carries a reason.

Findings are waived only inline (``# repro: allow(<rule-id>) —
reason``); every other finding fails the run. The gate is tier-1's
``tests/lint/test_repo_clean.py``; ``python -m repro.lint`` is the
developer entry point. See ``docs/static-analysis.md`` for the rule
catalog and workflow.
"""

from .core import (Finding, FileContext, Rule, AstRule, RuleVisitor,
                   all_rules, get_rule, register)
from .engine import LintRun, lint_paths, lint_source

__all__ = [
    "Finding", "FileContext", "Rule", "AstRule", "RuleVisitor",
    "all_rules", "get_rule", "register", "LintRun", "lint_paths",
    "lint_source",
]
