"""``env-discipline``: ``os.environ`` only inside :mod:`repro.exec.env`.

Ad-hoc environment reads are how knob regressions shipped historically
(``REPRO_WORKERS=0`` silently clamped, a boolean knob's ``0``
counting as *on*): a raw ``os.environ.get`` has no validation, no error
message naming the variable, and no single place documenting the knob.
All access — reads *and* writes — goes through the strict parsers in
:mod:`repro.exec.env` (``env_int`` / ``env_flag`` / ``env_choice`` /
``env_str`` / ``set_knob``), which fail loudly on malformed values.

Every direct read outside the parser module was rerouted when the
rule landed.
"""

from __future__ import annotations

import ast

from ..core import AstRule, RuleVisitor, register
from ..names import dotted, import_aliases

#: Every spelling of environment access.
BANNED = {
    "os.environ": "direct os.environ access",
    "os.environb": "direct os.environb access",
    "os.getenv": "os.getenv() bypasses the strict knob parsers",
    "os.getenvb": "os.getenvb() bypasses the strict knob parsers",
    "os.putenv": "os.putenv() bypasses repro.exec.env.set_knob",
    "os.unsetenv": "os.unsetenv() bypasses repro.exec.env.set_knob",
}


class EnvVisitor(RuleVisitor):
    def __init__(self, rule, ctx):
        super().__init__(rule, ctx)
        self.aliases = import_aliases(ctx.tree)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = dotted(node, self.aliases)
        if name in BANNED:
            self.report(node, BANNED[name])
            return  # don't double-report nested pieces
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        name = self.aliases.get(node.id)
        if name in BANNED:
            self.report(node, f"{BANNED[name]} (imported as "
                              f"{node.id!r})")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module != "os":
            return
        for alias in node.names:
            if f"os.{alias.name}" in BANNED:
                self.report(node, f"importing os.{alias.name} invites "
                                  f"unparsed environment access")


class EnvDiscipline(AstRule):
    id = "env-discipline"
    description = ("os.environ is read and written only by the strict "
                   "knob parsers in repro.exec.env — everywhere else a "
                   "typo'd knob must fail loudly, not silently "
                   "misbehave")
    fix_hint = ("use repro.exec.env: env_int/env_flag/env_choice/env_str "
                "to read, set_knob to write; add a parser there for any "
                "new knob")
    exclude = ("repro.exec.env", "repro.lint")

    visitor = EnvVisitor


register(EnvDiscipline())
