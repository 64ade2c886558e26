"""``suppression-hygiene``: every waiver is well-formed and accountable.

A suppression is a standing exception to a safety rule; one that is
malformed (silently matching nothing), names a rule that does not
exist (typo'd, or outliving a renamed rule), or carries no reason is
unreviewable debt. This meta-rule turns each of those into a finding
of its own, so the waiver surface stays exactly as auditable as the
violations it covers.
"""

from __future__ import annotations

from .. import suppress
from ..core import FileContext, Finding, Rule, register


class SuppressionHygiene(Rule):
    id = "suppression-hygiene"
    description = ("every '# repro:' comment parses as "
                   "'allow(<rule-id>) — reason', names only registered "
                   "rules, and carries a non-empty reason")
    fix_hint = ("write '# repro: allow(<rule-id>) — <why this waiver "
                "is sound>'; see docs/static-analysis.md")
    exclude = ("repro.lint",)

    def check_file(self, ctx: FileContext) -> list[Finding]:
        from ..core import rule_ids
        known = set(rule_ids())
        findings: list[Finding] = []

        def fail(line: int, message: str) -> None:
            findings.append(Finding(
                rule=self.id, path=ctx.rel, line=line, col=0,
                fix_hint=self.fix_hint, message=message))

        waivers, broken = suppress.scan(ctx.lines)
        for problem in broken:
            fail(problem.line, problem.problem)
        for waiver in waivers:
            for rule_id in sorted(waiver.rules - known):
                fail(waiver.line,
                     f"allow({rule_id}) names an unregistered rule "
                     f"(known: {', '.join(sorted(known))})")
        return findings


register(SuppressionHygiene())
