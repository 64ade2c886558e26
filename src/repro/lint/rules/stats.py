"""``stats-namespace``: registered metric names match the schema.

Every name handed to ``StatsRegistry.counter/gauge/histogram`` and
every provider prefix handed to ``.register``/``register_stats`` must
fall under a namespace declared in :mod:`repro.obs.schema` — the same
schema the ``docs/observability.md`` table is generated from, so code
and docs cannot drift apart silently.

Name literals are matched *shape-wise*: ``f"mc.{mc.subchannel}"``
checks as ``mc.{}`` against the ``mc.{sc}`` template. Sites whose
leading segment is dynamic (``f"{prefix}.latency_ps"`` in reusable
components that are mounted under a caller-chosen prefix) cannot be
resolved statically and are skipped — their mount points are the
checked sites.
"""

from __future__ import annotations

import ast

from ...obs import schema
from ..core import AstRule, RuleVisitor, register
from ..names import name_shape

#: method name -> index of the metric-name argument
NAME_ARG = {"counter": 0, "gauge": 0, "histogram": 0, "register": 0,
            "register_stats": 1}


class StatsVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        if not isinstance(node.func, ast.Attribute):
            return
        index = NAME_ARG.get(node.func.attr)
        if index is None:
            return
        name_node = self._name_argument(node, index)
        if name_node is None:
            return
        shape = name_shape(name_node)
        if shape is None or shape.startswith("{}"):
            return  # dynamically-prefixed: checked at the mount site
        if not schema.matches(shape):
            self.report(name_node,
                        f"metric name {shape!r} is outside every "
                        f"declared namespace (repro.obs.schema)")

    @staticmethod
    def _name_argument(node: ast.Call, index: int) -> ast.AST | None:
        if node.func.attr == "register":
            # the stats overload is register(<str-ish>, provider);
            # other register() methods (mitigation specs, handlers)
            # take non-string firsts and fall through here
            if len(node.args) != 2:
                return None
            candidate = node.args[0]
            if not isinstance(candidate, (ast.Constant, ast.JoinedStr)):
                return None
            return candidate
        if node.func.attr == "register_stats":
            for keyword in node.keywords:
                if keyword.arg == "prefix":
                    return keyword.value
            if len(node.args) > index:
                return node.args[index]
            return None
        if node.args:
            return node.args[0]
        return None


class StatsNamespace(AstRule):
    id = "stats-namespace"
    description = ("every registered metric / provider prefix name "
                   "must match a namespace declared in "
                   "repro.obs.schema (docs/observability.md is "
                   "generated from it)")
    fix_hint = ("pick a name under an existing namespace, or declare "
                "the new namespace in repro.obs.schema and run "
                "python -m repro.obs.schema --write")
    exclude = ("repro.lint",)

    visitor = StatsVisitor


register(StatsNamespace())
