"""Outside-in timing of the program's public calls.

A :class:`Probe` swaps a module or class attribute for a wrapper that
times each call and records it in a :class:`Sink`, and puts the original
back on exit. Nothing inside the program changes: the wrappers live in
the benchmark process, and pool workers forked while a probe is
installed inherit them. Every process appends its records to its own
file under the sink directory, so the parent sees the workers' calls
once the pass is over.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import defaultdict
from typing import Any, Callable


class Sink:
    """Per-process append-only record files under one directory."""

    def __init__(self, directory: pathlib.Path):
        self.directory = directory
        self.directory.mkdir(parents=True, exist_ok=True)

    def record(self, name: str, start: float, seconds: float) -> None:
        line = json.dumps([name, start, seconds]) + "\n"
        with open(self.directory / f"{os.getpid()}.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(line)

    def calls(self) -> dict[str, list[tuple[float, float]]]:
        """``name -> [(start, seconds), ...]`` over every process's
        records, in start order (``time.perf_counter`` is system-wide)."""
        calls: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for path in sorted(self.directory.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                name, start, seconds = json.loads(line)
                calls[name].append((start, seconds))
        return {name: sorted(spans) for name, spans in calls.items()}

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, seconds)`` over every process's records."""
        return {name: (len(spans), sum(s for _, s in spans))
                for name, spans in self.calls().items()}


class Probe:
    """Context manager timing the attributes registered with :meth:`wrap`."""

    def __init__(self, sink: Sink):
        self.sink = sink
        self._restore: list[Callable[[], None]] = []

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as ``name``."""
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        sink = self.sink

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                sink.record(name, start, time.perf_counter() - start)

        setattr(owner, attribute, timed)
        if had_own:
            self._restore.append(lambda: setattr(owner, attribute, original))
        else:
            self._restore.append(lambda: delattr(owner, attribute))

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        """Swap ``owner.attribute`` for ``value`` until exit."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, value)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._restore:
            self._restore.pop()()
