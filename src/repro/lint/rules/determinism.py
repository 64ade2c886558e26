"""``determinism``: no wall-clock or OS-entropy reads in audited code.

The bit-identity guarantees (the committed goldens, serial == parallel
sweeps, replayable fuzz seeds) hold only if nothing
on a simulated path observes the host: no clock reads, no OS entropy,
no ``hash()``-order dependence (``PYTHONHASHSEED`` varies per process,
so builtin ``hash`` values — and any iteration order derived from them
— differ across the workers a parallel sweep forks).

Scope is every repro module except :mod:`repro.lint` itself; the
telemetry layer :mod:`repro.obs` reads no clock and is audited like
the simulator. Host-facing code with legitimate clock use (serve
deadlines and lifecycle stamps, the resolver's wall-time metrics)
carries reasoned ``# repro: allow(determinism)`` waivers asserting the
value never reaches a result payload or cache key;
``tests/serve/test_clock_independence.py`` backs those words with a
regression test.
"""

from __future__ import annotations

import ast

from ..core import AstRule, RuleVisitor, register
from ..names import dotted, import_aliases

#: Clock and entropy reads that vary across runs/hosts.
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "clock read",
    "time.monotonic_ns": "clock read",
    "time.perf_counter": "clock read",
    "time.perf_counter_ns": "clock read",
    "time.process_time": "clock read",
    "time.process_time_ns": "clock read",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host/clock-derived id",
    "uuid.uuid4": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.token_urlsafe": "OS entropy",
    "secrets.randbits": "OS entropy",
    "hash": "builtin hash() varies with PYTHONHASHSEED across "
            "processes",
}

#: ``<datetime-ish>.now()/.utcnow()/.today()`` attribute tails.
CLOCK_METHODS = ("now", "utcnow", "today")


class DeterminismVisitor(RuleVisitor):
    def __init__(self, rule, ctx):
        super().__init__(rule, ctx)
        self.aliases = import_aliases(ctx.tree)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted(node.func, self.aliases)
        if name is not None:
            why = BANNED_CALLS.get(name)
            if why is not None:
                self.report(node, f"call to {name}() in deterministic "
                                  f"code ({why})")
            elif self._is_datetime_clock(name):
                self.report(node, f"call to {name}() in deterministic "
                                  f"code (wall-clock read)")
        self.generic_visit(node)

    @staticmethod
    def _is_datetime_clock(name: str) -> bool:
        head, _, tail = name.rpartition(".")
        return tail in CLOCK_METHODS and (
            head.startswith("datetime") or head in ("date", "time"))


class Determinism(AstRule):
    id = "determinism"
    description = ("no wall-clock, OS-entropy, or hash()-order reads in "
                   "deterministic code — the bit-identity contracts "
                   "(docs/verification.md) depend on it")
    fix_hint = ("derive times from sim.elapsed_ps and randomness from a "
                "seeded repro.rng stream; genuinely host-facing sites "
                "(telemetry, poll deadlines) take a reasoned "
                "'# repro: allow(determinism)' that the value never "
                "reaches results or cache keys")
    exclude = ("repro.lint",)

    visitor = DeterminismVisitor


register(Determinism())
