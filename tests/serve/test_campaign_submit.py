"""``campaign submit``/``fetch`` against a real daemon subprocess."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.serve.client import ServeClient
from repro.tools import campaign

SRC = pathlib.Path(repro.__file__).resolve().parent.parent


def start_daemon(tmp_path):
    """A one-worker ``repro.serve`` on ``tmp_path``'s state dir and cache.

    It leads its own session, so a SIGKILL of the group takes its pool
    workers down with it.
    """
    address = f"unix:{tmp_path / 'serve.sock'}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve",
         "--state-dir", str(tmp_path / "state"), "--address", address,
         "--workers", "1", "--cache-dir", str(tmp_path / "cache"),
         "--quiet"], env=env, start_new_session=True)
    try:
        ServeClient(address).wait_ready(timeout_s=60)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    return address, process


def stop_daemon(process):
    process.send_signal(signal.SIGTERM)
    try:
        assert process.wait(timeout=30) == 0
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise


@pytest.fixture
def daemon(tmp_path):
    address, process = start_daemon(tmp_path)
    yield address
    stop_daemon(process)


def test_submit_sends_each_unique_point_once(tmp_path, daemon):
    plan_dir = tmp_path / "camp"
    # two designs on one workload share a single baseline point
    campaign.plan(plan_dir, ["add"], ["prac", "mopac-d"], [500], 8_000)
    _, _, flat = campaign.planned_points(plan_dir)
    unique = set(flat)
    assert len(flat) == 4 and len(unique) == 3

    reference = campaign.run(plan_dir, workers=1,
                             verbose=False).read_bytes()
    (plan_dir / "results.csv").unlink()

    campaign.submit(plan_dir, daemon)
    csv_path = campaign.fetch(plan_dir, wait_s=300)

    assert csv_path.read_bytes() == reference
    stats = ServeClient(daemon).stats()
    assert stats["exec.resolve.requested"] == len(unique)


def test_sigkilled_daemon_resumes_bit_identically(tmp_path):
    plan_dir = tmp_path / "camp"
    campaign.plan(plan_dir, ["add", "mcf"], ["prac", "mopac-d"], [500],
                  8_000)
    reference = campaign.run(plan_dir, workers=1,
                             verbose=False).read_bytes()
    (plan_dir / "results.csv").unlink()

    address, process = start_daemon(tmp_path)
    try:
        job_id = campaign.submit(plan_dir, address)
        client = ServeClient(address)
        while client.status(job_id)["state"] == "queued":
            time.sleep(0.05)
    finally:
        # no drain, no journal flush: the whole group dies mid-job
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()

    address, process = start_daemon(tmp_path)
    try:
        # the restarted daemon resumes the journaled job under its id
        assert campaign.fetch(plan_dir, wait_s=300).read_bytes() == \
            reference
    finally:
        stop_daemon(process)


# -- submit/fetch against an in-process fake daemon ------------------------
#: (workloads, designs, trhs, planned evaluations + baselines, unique)
PLANS = {
    "one-design": (["add"], ["prac"], [500], 2, 2),
    "shared-baseline": (["add"], ["prac", "mopac-c", "mopac-d"], [500],
                        6, 4),
    "two-workloads": (["add", "mcf"], ["prac", "mopac-d"], [500], 8, 6),
    "two-thresholds": (["add"], ["prac", "mopac-d"], [500, 250], 8, 6),
    "grid": (["add", "mcf", "mix1"], ["prac", "mopac-c", "mopac-d"],
             [1000, 500, 250], 54, 36),
}


class FakeDaemon:
    """Stands in for ServeClient: a job's results are ``("r", point)``."""

    def __init__(self):
        self.jobs = {}
        self.calls = []   # (address, method) in arrival order
        self.state, self.error = "done", None

    def client(self, address):
        daemon = self

        class Client:
            def submit(self, points, priority=0):
                daemon.calls.append((address, "submit"))
                job_id = f"job-{len(daemon.jobs) + 1}"
                daemon.jobs[job_id] = (list(points), priority)
                return job_id

            def status(self, job_id):
                daemon.calls.append((address, "status"))
                return {"id": job_id, "state": daemon.state}

            def wait(self, job_id, timeout_s, tolerate_disconnects):
                daemon.calls.append((address, "wait"))
                return {"state": daemon.state, "error": daemon.error}

            def result(self, job_id):
                return [("r", point) for point in daemon.jobs[job_id][0]]
        return Client()


@pytest.fixture
def fake(monkeypatch):
    daemon = FakeDaemon()
    monkeypatch.setattr("repro.serve.client.ServeClient", daemon.client)
    rows = []

    def capture(csv_path, ini_paths, points, results):
        rows.append(results)
        return csv_path
    monkeypatch.setattr(campaign, "write_results_csv", capture)
    daemon.rows = rows
    return daemon


def planned(tmp_path, name):
    workloads, designs, trhs, _, _ = PLANS[name]
    campaign.plan(tmp_path, workloads, designs, trhs, 8_000)
    return campaign.planned_points(tmp_path)[2]


class TestDedup:
    @pytest.mark.parametrize("name", PLANS)
    def test_each_unique_point_sent_once(self, tmp_path, fake, name):
        flat = planned(tmp_path, name)
        campaign.submit(tmp_path, "unix:/d.sock")
        sent, _ = fake.jobs["job-1"]
        assert (len(flat), len(sent)) == PLANS[name][3:]
        assert len(set(sent)) == len(sent) and set(sent) == set(flat)
        # first-seen plan order, so the job reads like the plan
        assert sent == sorted(sent, key=flat.index)

    @pytest.mark.parametrize("name", PLANS)
    def test_output_matches_submission_order(self, tmp_path, fake, name):
        flat = planned(tmp_path, name)
        campaign.submit(tmp_path, "unix:/d.sock")
        campaign.fetch(tmp_path)
        assert fake.rows == [[("r", point) for point in flat]]

    def test_duplicates_collapse_and_fan_back_out(self, tmp_path, fake):
        flat = planned(tmp_path, "shared-baseline")
        campaign.submit(tmp_path, "unix:/d.sock")
        campaign.fetch(tmp_path)
        results = fake.rows[0]
        # three designs, one baseline: one result fills all three slots
        assert flat[1] == flat[3] == flat[5]
        assert results[1] is results[3] is results[5]

    def test_empty_submission_rejected(self, tmp_path, fake):
        with pytest.raises(FileNotFoundError, match="no .ini files"):
            campaign.submit(tmp_path, "unix:/d.sock")
        assert fake.calls == []


class TestFetch:
    @pytest.mark.parametrize("state", ["failed", "cancelled"])
    def test_unfinished_job_raises_with_its_error(self, tmp_path, fake,
                                                  state):
        planned(tmp_path, "one-design")
        job_id = campaign.submit(tmp_path, "unix:/d.sock")
        fake.state, fake.error = state, "worker exploded"
        with pytest.raises(RuntimeError,
                           match=f"{job_id} ended {state}: worker"):
            campaign.fetch(tmp_path)
        assert fake.rows == []

    def test_re_planned_campaign_rejected(self, tmp_path, fake):
        planned(tmp_path, "one-design")
        campaign.submit(tmp_path, "unix:/d.sock")
        campaign.plan(tmp_path, ["mcf"], ["prac"], [500], 8_000)
        with pytest.raises(RuntimeError, match="re-planned"):
            campaign.fetch(tmp_path)

    def test_unsubmitted_campaign_says_submit_first(self, tmp_path, fake):
        planned(tmp_path, "one-design")
        with pytest.raises(FileNotFoundError, match="campaign submit"):
            campaign.fetch(tmp_path)

    def test_wait_times_out_loudly(self, tmp_path, monkeypatch):
        planned(tmp_path, "one-design")
        (tmp_path / "job.json").write_text(
            '{"id": "job-1", "server": "unix:/nonexistent.sock"}')
        clock = {"now": 0.0}
        monkeypatch.setattr("repro.serve.client._now",
                            lambda: clock["now"])
        monkeypatch.setattr("repro.serve.client._sleep",
                            lambda s: clock.update(now=clock["now"] + s))
        monkeypatch.setattr(ServeClient, "status",
                            lambda self, job_id: {"state": "running"})
        with pytest.raises(TimeoutError, match="not finished after 30s"):
            campaign.fetch(tmp_path, wait_s=30.0)
        assert 30.0 <= clock["now"] <= 35.0


class TestJobRecord:
    def test_round_trip_resumes_a_run(self, tmp_path, fake):
        flat = planned(tmp_path, "two-workloads")
        job_id = campaign.submit(tmp_path, "unix:/d.sock")
        assert json.loads((tmp_path / "job.json").read_text()) == \
            {"id": job_id, "server": "unix:/d.sock"}
        # a later process holds only the directory
        assert campaign.status(tmp_path)["id"] == job_id
        campaign.fetch(tmp_path)
        assert fake.rows == [[("r", point) for point in flat]]
        assert {address for address, _ in fake.calls} == {"unix:/d.sock"}

    def test_server_override_beats_the_record(self, tmp_path, fake):
        planned(tmp_path, "one-design")
        campaign.submit(tmp_path, "unix:/old.sock")
        campaign.status(tmp_path, "unix:/new.sock")
        campaign.fetch(tmp_path, "unix:/new.sock")
        assert fake.calls[1:] == [("unix:/new.sock", "status"),
                                  ("unix:/new.sock", "wait")]

    def test_priority_forwarded(self, tmp_path, fake):
        planned(tmp_path, "one-design")
        campaign.submit(tmp_path, "unix:/d.sock", priority=7)
        assert fake.jobs["job-1"][1] == 7
