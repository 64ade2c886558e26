"""Job model, priority queue, and the crash-safe JSONL journal.

A **job** is an ordered list of design points submitted together; its
results come back in the same order. It holds no results: a done job's
results are its points' entries in the result cache, which ``/result``
reads on each call. Jobs move through::

    queued -> running -> done
                      -> failed     (point error, timeout, too many
                                     worker crashes)
                      -> cancelled  (client request)

The **journal** makes the queue durable: every accepted submission is
appended as one JSON line *before* the client sees a job id, and every
terminal transition is appended when it happens. Restart recovery is a
single forward replay — a submission with no terminal record is still
owed to some client and re-enqueues as ``queued`` (half-run jobs redo
their points, which short-circuit through the result cache, so no
simulation work is actually repeated). The journal is then compacted to
just the pending submissions, so it cannot grow without bound.

A torn trailing line (the previous process died mid-append) is ignored
with a warning; any other undecodable line is, too — the journal is a
recovery aid, never a correctness dependency for completed work.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import tempfile
import time
from typing import Any

from ..obs.log import get_logger
from ..sim.runner import DesignPoint

log = get_logger(__name__)

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States after which a job never runs again.
TERMINAL = frozenset({DONE, FAILED, CANCELLED})


@dataclasses.dataclass
class Job:
    """One submitted batch of design points and their cache keys.

    A job holds no results. Once it is done, each point's result is the
    result-cache entry under the key at the same index in ``keys``: the
    cache holds the one copy.
    """

    id: str
    points: list[DesignPoint]
    priority: int = 0
    timeout_s: float | None = None
    state: str = QUEUED
    error: str | None = None
    submitted_s: float = 0.0
    started_s: float | None = None
    finished_s: float | None = None
    #: result-cache key of each point, in point order (set by the server
    #: when it accepts or resumes the job)
    keys: list[str] = dataclasses.field(default_factory=list)

    def public(self) -> dict[str, Any]:
        """The status document served to clients (no result payload)."""
        return {
            "id": self.id,
            "state": self.state,
            "points": len(self.points),
            "priority": self.priority,
            "timeout_s": self.timeout_s,
            "error": self.error,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }

    def submit_record(self) -> dict[str, Any]:
        return {
            "op": "submit",
            "id": self.id,
            "priority": self.priority,
            "timeout_s": self.timeout_s,
            "submitted_s": self.submitted_s,
            "points": [p.as_dict() for p in self.points],
        }


def job_from_record(record: dict[str, Any]) -> Job:
    """Rebuild a queued job from its journal submit record."""
    return Job(
        id=str(record["id"]),
        points=[DesignPoint(**fields) for fields in record["points"]],
        priority=int(record.get("priority", 0)),
        timeout_s=record.get("timeout_s"),
        submitted_s=float(record.get("submitted_s", 0.0)),
    )


class Journal:
    """Append-only JSONL record of submissions and terminal states."""

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def _append(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def record_submit(self, job: Job) -> None:
        self._append(job.submit_record())

    def record_state(self, job_id: str, state: str,
                     error: str | None = None) -> None:
        if state not in TERMINAL:
            raise ValueError(f"only terminal states are journaled, "
                             f"not {state!r}")
        record: dict[str, Any] = {"op": "state", "id": job_id,
                                  "state": state}
        if error is not None:
            record["error"] = error
        self._append(record)

    def close(self) -> None:
        self._handle.close()

    # ------------------------------------------------------------------
    @staticmethod
    def load(path: str | pathlib.Path) -> list[Job]:
        """Replay a journal; returns still-pending jobs in submit order."""
        path = pathlib.Path(path)
        if not path.exists():
            return []
        pending: dict[str, Job] = {}
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    op = record["op"]
                    if op == "submit":
                        job = job_from_record(record)
                        pending[job.id] = job
                    elif op == "state":
                        pending.pop(str(record["id"]), None)
                    else:
                        raise ValueError(f"unknown op {op!r}")
                except (ValueError, KeyError, TypeError) as error:
                    # Torn trailing line from a crash mid-append, or a
                    # hand-edited journal: skip, never fail recovery.
                    log.warning("%s:%d: skipping bad journal line (%s)",
                                path, number, error)
        return list(pending.values())

    @staticmethod
    def compact(path: str | pathlib.Path, jobs: list[Job]) -> None:
        """Atomically rewrite the journal to just ``jobs``' submissions.

        Durability ordering matters: the temp file's *data* is fsynced
        before ``os.replace`` makes it visible, and the containing
        *directory* is fsynced after, so the rename itself survives a
        crash. Without the directory fsync a power cut right after
        compaction could resurrect the pre-compaction journal — safe
        (it holds a superset of records) but it silently undoes the
        compaction the caller was told succeeded. Only once both
        fsyncs land may the temp name be considered gone; the cleanup
        unlink runs solely on the failure path, before re-raising.
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for job in jobs:
                    handle.write(json.dumps(job.submit_record()) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _fsync_dir(path.parent)


def _fsync_dir(directory: pathlib.Path) -> None:
    """Flush a directory's metadata (rename durability); best-effort.

    Some filesystems (and all of Windows) reject opening a directory
    for fsync — the rename is still atomic there, just not provably
    durable, so failure degrades to the old behaviour rather than
    aborting a compaction that already succeeded.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def next_job_id(existing: list[str]) -> int:
    """First free ``job-<n>`` counter given already-journaled ids."""
    highest = 0
    for job_id in existing:
        _, _, suffix = job_id.partition("-")
        if suffix.isdigit():
            highest = max(highest, int(suffix))
    return highest + 1


def make_job(counter: int, points: list[DesignPoint], priority: int = 0,
             timeout_s: float | None = None) -> Job:
    return Job(id=f"job-{counter}", points=points, priority=priority,
               # repro: allow(determinism) — journal bookkeeping, not results
               timeout_s=timeout_s, submitted_s=time.time())
