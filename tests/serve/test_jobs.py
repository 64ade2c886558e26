"""Job model and the crash-safe JSONL journal."""

import dataclasses
import json

import pytest

from repro.serve.jobs import (CANCELLED, DONE, QUEUED, TERMINAL, Job,
                              Journal, job_from_record, make_job,
                              next_job_id)
from repro.sim.runner import DesignPoint

FAST = dict(instructions=6_000, rows_per_bank=512, refresh_scale=1 / 256)


def points(n=2, seed=0):
    return [DesignPoint(workload="add", design="baseline", seed=seed + i,
                        **FAST) for i in range(n)]


class TestJob:
    def test_make_job_defaults(self):
        job = make_job(7, points())
        assert job.id == "job-7"
        assert job.state == QUEUED
        assert job.submitted_s > 0

    def test_public_has_no_results(self):
        job = make_job(1, points())
        job.keys = ["ab" * 32, "cd" * 32]
        doc = job.public()
        assert doc["id"] == "job-1"
        assert doc["points"] == 2
        assert "results" not in doc and "keys" not in doc
        json.dumps(doc)  # must be wire-serialisable

    def test_job_holds_keys_not_results(self):
        names = {field.name for field in dataclasses.fields(Job)}
        assert "keys" in names
        assert "results" not in names

    def test_submit_record_round_trip(self):
        job = make_job(3, points(), priority=5, timeout_s=1.5)
        back = job_from_record(job.submit_record())
        assert back.id == job.id
        assert back.points == job.points
        assert back.priority == 5
        assert back.timeout_s == 1.5
        assert back.state == QUEUED

    def test_terminal_states(self):
        assert TERMINAL == {"done", "failed", "cancelled"}


class TestNextJobId:
    def test_empty(self):
        assert next_job_id([]) == 1

    def test_continues_after_highest(self):
        assert next_job_id(["job-2", "job-9", "job-4"]) == 10

    def test_ignores_unparseable_ids(self):
        assert next_job_id(["job-x", "weird", "job-3"]) == 4


class TestJournal:
    def test_load_missing_file(self, tmp_path):
        assert Journal.load(tmp_path / "nope.jsonl") == []

    def test_submit_then_terminal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        a, b = make_job(1, points()), make_job(2, points(seed=10))
        journal.record_submit(a)
        journal.record_submit(b)
        journal.record_state(a.id, DONE)
        journal.close()
        pending = Journal.load(path)
        assert [job.id for job in pending] == ["job-2"]
        assert pending[0].points == b.points

    def test_only_terminal_states_journaled(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with pytest.raises(ValueError):
            journal.record_state("job-1", "running")
        journal.close()

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        job = make_job(1, points())
        journal.record_submit(job)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "submit", "id": "job-2", "poi')
        pending = Journal.load(path)
        assert [j.id for j in pending] == ["job-1"]

    def test_unknown_op_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"op": "frobnicate", "id": "job-1"}\n')
        assert Journal.load(path) == []

    def test_cancelled_is_terminal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        job = make_job(1, points())
        journal.record_submit(job)
        journal.record_state(job.id, CANCELLED, "client request")
        journal.close()
        assert Journal.load(path) == []

    def test_compact_keeps_only_pending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        jobs = [make_job(i, points(seed=i * 10)) for i in (1, 2, 3)]
        for job in jobs:
            journal.record_submit(job)
        journal.record_state("job-2", DONE)
        journal.close()

        pending = Journal.load(path)
        Journal.compact(path, pending)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["id"] for line in lines] == \
            ["job-1", "job-3"]
        # compacted journal replays identically
        assert [j.id for j in Journal.load(path)] == ["job-1", "job-3"]

    def test_compact_crash_before_replace_preserves_journal(
            self, tmp_path, monkeypatch):
        # fault injection: die between the temp-file fsync and the
        # rename — the live journal must be untouched and the temp
        # file cleaned up
        import repro.serve.jobs as jobs_mod
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.record_submit(make_job(1, points()))
        journal.close()
        before = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(jobs_mod.os, "replace", explode)
        with pytest.raises(OSError):
            Journal.compact(path, Journal.load(path))
        assert path.read_bytes() == before
        assert [j.id for j in Journal.load(path)] == ["job-1"]
        assert list(tmp_path.glob("*.tmp")) == []

    def test_compact_fsyncs_data_then_renames_then_fsyncs_dir(
            self, tmp_path, monkeypatch):
        # durability ordering: file fsync -> os.replace -> dir fsync;
        # a dir fsync before the rename would not cover it, and a
        # missing one leaves the rename volatile
        import repro.serve.jobs as jobs_mod
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.record_submit(make_job(1, points()))
        journal.close()

        calls = []
        real_fsync, real_replace = jobs_mod.os.fsync, jobs_mod.os.replace
        monkeypatch.setattr(
            jobs_mod.os, "fsync",
            lambda fd: (calls.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            jobs_mod.os, "replace",
            lambda a, b: (calls.append("replace"), real_replace(a, b))[1])
        Journal.compact(path, Journal.load(path))
        assert calls == ["fsync", "replace", "fsync"]

    def test_compact_survives_unfsyncable_directory(
            self, tmp_path, monkeypatch):
        # platforms that refuse to open a directory for fsync degrade
        # gracefully: compaction still succeeds
        import repro.serve.jobs as jobs_mod
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.record_submit(make_job(1, points()))
        journal.close()

        real_open = jobs_mod.os.open

        def no_dir_open(target, flags, *args):
            if str(target) == str(tmp_path):
                raise OSError("directories not openable here")
            return real_open(target, flags, *args)

        monkeypatch.setattr(jobs_mod.os, "open", no_dir_open)
        Journal.compact(path, Journal.load(path))
        assert [j.id for j in Journal.load(path)] == ["job-1"]

    def test_append_after_compact(self, tmp_path):
        # the normal startup sequence: load, compact, reopen, append
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.record_submit(make_job(1, points()))
        journal.close()
        Journal.compact(path, Journal.load(path))
        journal = Journal(path)
        journal.record_submit(make_job(2, points(seed=5)))
        journal.close()
        assert [j.id for j in Journal.load(path)] == ["job-1", "job-2"]
