"""``rng-discipline``: all randomness flows through seeded handles.

Module-level ``random.*`` functions share one process-global generator:
any component drawing from it couples every other component's stream,
breaking the "one named stream per component" contract of
:mod:`repro.rng` (and with it seed replay, shrinking, and the
differential harness's identical-stream guarantee). The same goes for
the legacy ``numpy.random.*`` global state, and for unseeded
constructors (``random.Random()`` with no arguments seeds itself from
OS entropy).

Allowed: ``random.Random(seed)`` / ``rng.Random`` instances handed
around explicitly, and ``numpy.random.default_rng(seed)`` with an
explicit seed — both are exactly the "seeded handle" shape
:class:`repro.rng.RngFactory` produces.
"""

from __future__ import annotations

import ast

from ..core import AstRule, RuleVisitor, register
from ..names import dotted, import_aliases

#: Constructors that are fine *when given an explicit seed argument*.
SEEDED_CTORS = ("random.Random", "numpy.random.default_rng",
                "numpy.random.Generator", "numpy.random.SeedSequence",
                "numpy.random.PCG64")


class RngVisitor(RuleVisitor):
    def __init__(self, rule, ctx):
        super().__init__(rule, ctx)
        self.aliases = import_aliases(ctx.tree)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted(node.func, self.aliases)
        if name is not None:
            normalized = _normalize(name)
            if normalized in SEEDED_CTORS:
                if not node.args and not node.keywords:
                    self.report(node, f"{normalized}() without a seed "
                                      f"draws from OS entropy")
            elif normalized.startswith("random.") \
                    and normalized.count(".") == 1:
                self.report(node, f"module-level {normalized}() uses the "
                                  f"shared global generator")
            elif normalized.startswith("numpy.random."):
                self.report(node, f"{normalized}() uses numpy's global "
                                  f"RNG state")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return
        for alias in node.names:
            origin = f"{node.module}.{alias.name}"
            normalized = _normalize(origin)
            if normalized.startswith(("random.", "numpy.random.")) \
                    and normalized not in SEEDED_CTORS:
                self.report(node, f"importing {origin} invites "
                                  f"global-RNG use")


def _normalize(name: str) -> str:
    if name == "np.random" or name.startswith("np.random."):
        return "numpy" + name[2:]
    return name


class RngDiscipline(AstRule):
    id = "rng-discipline"
    description = ("randomness must flow through seeded handles "
                   "(repro.rng streams, random.Random(seed), "
                   "numpy.random.default_rng(seed)) — never the shared "
                   "module-level random / numpy.random state")
    fix_hint = ("take an explicit rng parameter or derive one with "
                "repro.rng.RngFactory(seed).stream(name) / "
                "repro.rng.derive_seed(seed, name)")
    exclude = ("repro.rng", "repro.lint")

    visitor = RngVisitor


register(RngDiscipline())
