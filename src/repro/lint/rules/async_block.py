"""``async-blocking``: no synchronous stalls inside ``async def``.

The serve daemon is a single event loop; one blocking call in a
coroutine stalls *every* job, heartbeat sample, and API response at
once (the priority queue, per-job timeouts, and graceful drain all
assume the loop keeps turning). Blocking work belongs in the process
pool (``Resolver.execute``) or behind ``asyncio.to_thread``.

Flagged inside the *nearest enclosing* ``async def`` only — a sync
helper defined within a coroutine runs wherever it is called, so it is
judged at its call sites, not its definition site.
"""

from __future__ import annotations

import ast

from ..core import AstRule, RuleVisitor, register
from ..names import dotted, import_aliases

#: Calls that park the event loop.
BLOCKING_CALLS = {
    "time.sleep": "use 'await asyncio.sleep(...)'",
    "open": "do file IO before the loop starts, or in a worker "
            "(asyncio.to_thread)",
    "input": "the daemon has no tty",
    "subprocess.run": "use asyncio.create_subprocess_exec",
    "subprocess.call": "use asyncio.create_subprocess_exec",
    "subprocess.check_call": "use asyncio.create_subprocess_exec",
    "subprocess.check_output": "use asyncio.create_subprocess_exec",
    "subprocess.getoutput": "use asyncio.create_subprocess_exec",
    "subprocess.getstatusoutput": "use asyncio.create_subprocess_exec",
    "subprocess.Popen": "use asyncio.create_subprocess_exec",
    "os.system": "use asyncio.create_subprocess_exec",
    "os.popen": "use asyncio.create_subprocess_exec",
    "os.waitpid": "await the process instead",
    "socket.create_connection": "use asyncio.open_connection",
}

#: Blocking *methods* recognizable by attribute name alone.
BLOCKING_METHODS = {
    "read_text": "pathlib IO blocks the loop",
    "write_text": "pathlib IO blocks the loop",
    "read_bytes": "pathlib IO blocks the loop",
    "write_bytes": "pathlib IO blocks the loop",
}


class AsyncBlockingVisitor(RuleVisitor):
    def __init__(self, rule, ctx):
        super().__init__(rule, ctx)
        self.aliases = import_aliases(ctx.tree)
        self._stack: list[bool] = []  # True = async frame

    # -- frame tracking ----------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(False)
        self.generic_visit(node)
        self._stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._stack.append(True)
        self.generic_visit(node)
        self._stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._stack.append(False)
        self.generic_visit(node)
        self._stack.pop()

    # -- the check ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._stack and self._stack[-1]:
            name = dotted(node.func, self.aliases)
            if name in BLOCKING_CALLS:
                self.report(node, f"blocking {name}() inside async def "
                                  f"— {BLOCKING_CALLS[name]}")
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in BLOCKING_METHODS:
                self.report(node, f"blocking .{node.func.attr}() inside "
                                  f"async def — "
                                  f"{BLOCKING_METHODS[node.func.attr]}")
        self.generic_visit(node)


class AsyncBlocking(AstRule):
    id = "async-blocking"
    severity = "error"
    description = ("no time.sleep / sync file IO / subprocess calls "
                   "inside async def bodies — one blocking call stalls "
                   "every job the daemon is serving")
    fix_hint = ("await the asyncio equivalent, move the work into the "
                "process pool, or wrap it in asyncio.to_thread")
    scope = ("repro.serve", "repro.exec.resolver")

    visitor = AsyncBlockingVisitor


register(AsyncBlocking())
