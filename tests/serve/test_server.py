"""ServeServer end-to-end over a real Unix socket, with fake workers.

The server runs in the test's event loop; the blocking ServeClient is
driven through ``asyncio.to_thread`` so both ends of the socket live in
one process. Simulations are injected closures on a thread pool, so
each test is fast and deterministic.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exec.cache import point_key
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import Journal
from repro.serve.protocol import Request
from repro.serve.server import ServeServer
from repro.sim.runner import DesignPoint

FAST = dict(instructions=6_000, rows_per_bank=512, refresh_scale=1 / 256)


def point(seed=0):
    return DesignPoint(workload="add", design="baseline", seed=seed,
                       **FAST)


class StubCache:
    """In-memory ResultCache stand-in with the server-facing surface."""

    def __init__(self):
        self.store = {}
        self.directory = "<memory>"

    def key(self, p):
        return point_key(p)

    def get(self, p, key=None):
        return self.store.get(key or self.key(p))

    def get_row(self, p, key=None):
        result = self.get(p, key)
        return None if result is None else fake_row(result)

    def load(self, key):
        try:
            return self.store[key]
        except KeyError:
            raise FileNotFoundError(key) from None

    def load_row(self, key):
        return fake_row(self.load(key))

    def put(self, p, result, key=None):
        self.store[key or self.key(p)] = result

    def register_stats(self, registry, prefix="exec.cache"):
        registry.register(prefix, lambda: {"entries": len(self.store)})


def fake_row(result):
    """The row of a fake ``{"seed": ...}`` result."""
    return {"seed": result["seed"]}


def make_server(tmp_path, simulate_fn, **kwargs):
    kwargs.setdefault("cache", StubCache())
    kwargs.setdefault("workers", 2)
    return ServeServer(
        state_dir=tmp_path / "state",
        address=f"unix:{tmp_path / 'serve.sock'}",
        simulate_fn=simulate_fn,
        executor_factory=lambda n: ThreadPoolExecutor(max_workers=n),
        **kwargs)


def run_scenario(tmp_path, scenario, simulate_fn=None, **kwargs):
    """Boot a server, run ``scenario(server, client)``, drain cleanly."""
    simulate_fn = simulate_fn or (lambda q: ({"seed": q.seed}, 0.001))

    async def main():
        server = make_server(tmp_path, simulate_fn, **kwargs)
        ready = asyncio.Event()
        run_task = asyncio.ensure_future(server.run(on_ready=ready.set))
        await asyncio.wait_for(ready.wait(), 10)
        client = ServeClient(server.address, timeout_s=10.0)
        try:
            await scenario(server, client)
        finally:
            server.request_drain()
            assert await asyncio.wait_for(run_task, 10) == 0
        return server

    return asyncio.run(main())


def call(fn, *args, **kwargs):
    return asyncio.to_thread(fn, *args, **kwargs)


class TestSubmitRoundTrip:
    def test_submit_wait_result(self, tmp_path):
        async def scenario(server, client):
            job_id = await call(client.submit, [point(0), point(1)])
            assert job_id == "job-1"
            status = await call(client.wait, job_id, 10.0)
            assert status["state"] == "done"
            assert status["error"] is None
            results = await call(client.result, job_id)
            assert results == [{"seed": 0}, {"seed": 1}]

        run_scenario(tmp_path, scenario)

    def test_overlapping_jobs_share_executions(self, tmp_path):
        release = threading.Event()
        calls = []

        def sim(q):
            calls.append(q.seed)
            release.wait(5)
            return {"seed": q.seed}, 0.001

        async def scenario(server, client):
            first = await call(client.submit, [point(0)])
            second = await call(client.submit, [point(0)])
            await asyncio.sleep(0.1)  # both jobs reach the runner
            release.set()
            for job_id in (first, second):
                status = await call(client.wait, job_id, 10.0)
                assert status["state"] == "done"
            stats = await call(client.stats)
            assert stats["exec.resolve.dedup_hits"] + \
                stats["exec.resolve.cache_hits"] >= 1
            assert stats["exec.resolve.simulated"] == 1
            assert stats["serve.jobs_completed"] == 2

        run_scenario(tmp_path, scenario, simulate_fn=sim)

    def test_status_listing_and_stats(self, tmp_path):
        async def scenario(server, client):
            job_id = await call(client.submit, [point()])
            await call(client.wait, job_id, 10.0)
            listing = await call(client.status)
            assert [doc["id"] for doc in listing["jobs"]] == [job_id]
            health = await call(client.healthz)
            assert health["ok"] is True
            stats = await call(client.stats)
            assert stats["serve.jobs_submitted"] == 1
            assert stats["serve.queue_depth"] == 0
            assert "exec.cache.entries" in stats

        run_scenario(tmp_path, scenario)


class TestValidation:
    def test_bad_point_rejected(self, tmp_path):
        async def scenario(server, client):
            with pytest.raises(ServeError) as info:
                await call(client.submit,
                           [{"workload": "add", "no_such_field": 1}])
            assert info.value.status == 400

        run_scenario(tmp_path, scenario)

    def test_bad_submit_bodies_rejected(self, tmp_path):
        def point_fields():
            import dataclasses
            return dataclasses.asdict(point())

        async def scenario(server, client):
            status, _ = await call(client.request, "POST", "/submit",
                                   {"points": []})
            assert status == 400
            status, _ = await call(client.request, "POST", "/submit",
                                   {"points": [point_fields()],
                                    "priority": "high"})
            assert status == 400
            status, _ = await call(client.request, "POST", "/submit",
                                   {"points": [point_fields()],
                                    "timeout_s": -1})
            assert status == 400
            for field in ("instructions", "trh"):
                status, doc = await call(client.request, "POST", "/submit",
                                         {"points": [dict(point_fields(),
                                                          **{field: 0})]})
                assert status == 400
                assert f"{field} must be positive" in doc["error"]
            status, doc = await call(client.request, "POST", "/submit",
                                     {"points": [dict(point_fields(),
                                                      design="mopac-d",
                                                      abo_level=3)]})
            assert status == 400
            assert "refuses abo_level=3" in doc["error"]

        run_scenario(tmp_path, scenario)

    def test_unknown_endpoints_and_jobs(self, tmp_path):
        async def scenario(server, client):
            status, _ = await call(client.request, "POST", "/frobnicate")
            assert status == 404
            status, _ = await call(client.request, "GET",
                                   "/status?id=job-99")
            assert status == 404
            status, _ = await call(client.request, "GET", "/result")
            assert status == 400
            status, _ = await call(client.request, "GET", "/submit")
            assert status == 405
            status, _ = await call(client.request, "POST", "/stats")
            assert status == 405
            # an unknown path is 404 under any method, never 405
            for path in ("/frobnicate", "/metrics"):
                status, doc = await call(client.request, "GET", path)
                assert status == 404
                assert "unknown endpoint" in doc["error"]

        run_scenario(tmp_path, scenario)

    @pytest.mark.parametrize("knobs", [
        {"max_jobs": 0}, {"drain_s": -1.0}, {"drain_s": float("nan")},
        {"drain_s": float("inf")}, {"workers": 0}, {"workers": -2}])
    def test_bad_knobs_rejected_before_state_dir(self, tmp_path, knobs):
        with pytest.raises(ValueError):
            make_server(tmp_path, lambda q: ({}, 0.0), **knobs)
        assert not (tmp_path / "state").exists()

    def test_zero_drain_accepted(self, tmp_path):
        server = make_server(tmp_path, lambda q: ({}, 0.0), drain_s=0)
        assert server.drain_s == 0

    @pytest.mark.parametrize("argv, message", [
        (["--max-jobs", "0"], "max_jobs must be >= 1"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--drain-s", "-1"], "drain_s must be finite"),
        (["--drain-s", "nan"], "drain_s must be finite"),
        (["--address", "justahost"], "bad server address")])
    def test_cli_rejects_bad_knobs_with_usage_error(self, tmp_path, argv,
                                                    message, capsys):
        from repro.serve.__main__ import main
        state = tmp_path / "state"
        with pytest.raises(SystemExit) as exit_info:
            main(["--state-dir", str(state), *argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not state.exists()


class TestRouting:
    """The route table, called directly: status by method and path."""

    @pytest.fixture
    def server(self, tmp_path):
        return make_server(tmp_path, lambda q: ({}, 0.0))

    @staticmethod
    def status(server, method, path):
        payload = server._route(Request(method, path, {}, b""))
        return int(payload.split(b" ", 2)[1])

    @pytest.mark.parametrize("method", ["GET", "POST", "PUT", "DELETE"])
    @pytest.mark.parametrize("path", ["/frobnicate", "/metrics", "/",
                                      "/stats/extra", "/spans"])
    def test_unknown_path_is_404_under_any_method(self, server, method,
                                                  path):
        assert self.status(server, method, path) == 404

    @pytest.mark.parametrize("method", ["GET", "PUT", "DELETE"])
    @pytest.mark.parametrize("path", ["/submit", "/cancel", "/shutdown"])
    def test_post_endpoint_refuses_other_methods(self, server, method,
                                                 path):
        assert self.status(server, method, path) == 405
        # refused before acting: no job, no drain
        assert server._jobs == {}
        assert server._drain_task is None

    @pytest.mark.parametrize("path", ["/healthz", "/stats", "/status"])
    def test_read_endpoints_answer_get(self, server, path):
        assert self.status(server, "GET", path) == 200

    @pytest.mark.parametrize("method", ["POST", "PUT", "DELETE"])
    @pytest.mark.parametrize("path, query", [
        ("/healthz", {}), ("/stats", {}), ("/status", {}),
        ("/status", {"id": "job-1"}), ("/result", {}),
        ("/result", {"id": "job-1"})],
        # pinned ids keep each case's name stable as cases come and go
        ids=["/healthz-query0", "/stats-query1", "/status-query3",
             "/status-query4", "/result-query5", "/result-query6"])
    def test_read_endpoint_refuses_other_methods(self, server, method,
                                                 path, query):
        payload = server._route(Request(method, path, query, b""))
        assert int(payload.split(b" ", 2)[1]) == 405
        assert f"{method} {path} not supported".encode() in payload


class TestStatsKeys:
    def test_key_set_after_one_job(self, tmp_path):
        """The snapshot's names are stable API (``repro.obs.schema``)."""
        summary = ("count", "mean", "p50", "p90", "p99")
        expected = {
            "exec.cache.entries",  # StubCache's one provider key
            *(f"exec.resolve.{name}" for name in (
                "cache_hits", "cache_misses", "dedup_hits", "failed",
                "memo_hits", "requested", "retries", "riders",
                "riders_diverged", "simulated", "wall_s",
                "worker_restarts")),
            *(f"exec.resolve.point_wall_ms.{name}" for name in summary),
            *(f"serve.{name}" for name in (
                "draining", "jobs_cancelled", "jobs_completed",
                "jobs_failed", "jobs_known", "jobs_rejected",
                "jobs_resumed", "jobs_running", "jobs_submitted",
                "pool.inflight_points", "pool.running_points",
                "pool.workers", "queue_depth")),
            *(f"serve.job_latency_ms.{name}" for name in summary),
        }

        async def scenario(server, client):
            await call(client.wait, await call(client.submit, [point()]),
                       10.0)
            assert set(await call(client.stats)) == expected

        run_scenario(tmp_path, scenario)


class TestResultStates:
    def test_result_conflict_while_running(self, tmp_path):
        release = threading.Event()

        def sim(q):
            release.wait(5)
            return {"seed": q.seed}, 0.001

        async def scenario(server, client):
            job_id = await call(client.submit, [point()])
            await asyncio.sleep(0.05)
            status, doc = await call(client.request, "GET",
                                     f"/result?id={job_id}")
            assert status == 409
            assert doc["state"] in ("queued", "running")
            release.set()
            await call(client.wait, job_id, 10.0)
            results = await call(client.result, job_id)
            assert results == [{"seed": 0}]

        run_scenario(tmp_path, scenario, simulate_fn=sim)

    def test_failed_job_reports_error(self, tmp_path):
        def sim(q):
            raise ValueError("synthetic failure")

        async def scenario(server, client):
            job_id = await call(client.submit, [point()])
            status = await call(client.wait, job_id, 10.0)
            assert status["state"] == "failed"
            assert "ValueError" in status["error"]
            http_status, doc = await call(client.request, "GET",
                                          f"/result?id={job_id}")
            assert http_status == 409
            stats = await call(client.stats)
            assert stats["serve.jobs_failed"] == 1

        run_scenario(tmp_path, scenario, simulate_fn=sim)

    def test_job_timeout_fails_job(self, tmp_path):
        release = threading.Event()

        def sim(q):
            release.wait(5)
            return {"seed": q.seed}, 0.001

        async def scenario(server, client):
            job_id = await call(client.submit, [point()],
                                timeout_s=0.05)
            status = await call(client.wait, job_id, 10.0)
            assert status["state"] == "failed"
            assert "timeout" in status["error"]
            release.set()  # unblock the worker so drain is clean

        run_scenario(tmp_path, scenario, simulate_fn=sim)


class TestCancelAndPriority:
    def test_cancel_queued_job(self, tmp_path):
        release = threading.Event()

        def sim(q):
            release.wait(5)
            return {"seed": q.seed}, 0.001

        async def scenario(server, client):
            blocker = await call(client.submit, [point(0)])
            queued = await call(client.submit, [point(1)])
            await asyncio.sleep(0.05)
            doc = await call(client.cancel, queued)
            assert doc["state"] == "cancelled"
            release.set()
            assert (await call(client.wait, blocker, 10.0))["state"] \
                == "done"
            stats = await call(client.stats)
            assert stats["serve.jobs_cancelled"] == 1

        run_scenario(tmp_path, scenario, simulate_fn=sim, max_jobs=1)

    def test_cancel_unknown_job(self, tmp_path):
        async def scenario(server, client):
            status, _ = await call(client.request, "POST", "/cancel",
                                   {"id": "job-99"})
            assert status == 404

        run_scenario(tmp_path, scenario)

    def test_priority_dispatch_order(self, tmp_path):
        release = threading.Event()
        order = []

        def sim(q):
            order.append(q.seed)
            if q.seed == 0:
                release.wait(5)
            return {"seed": q.seed}, 0.001

        async def scenario(server, client):
            blocker = await call(client.submit, [point(0)])
            await asyncio.sleep(0.05)  # blocker occupies the one slot
            low = await call(client.submit, [point(1)], 0)
            high = await call(client.submit, [point(2)], 5)
            await asyncio.sleep(0.05)
            release.set()
            for job_id in (blocker, low, high):
                assert (await call(client.wait, job_id, 10.0))["state"] \
                    == "done"
            assert order == [0, 2, 1]  # high priority jumps the queue

        run_scenario(tmp_path, scenario, simulate_fn=sim, max_jobs=1)


class TestDrainAndRestart:
    def test_submit_refused_while_draining(self, tmp_path):
        release = threading.Event()

        def sim(q):
            release.wait(5)
            return {"seed": q.seed}, 0.001

        async def scenario(server, client):
            await call(client.submit, [point(0)])
            await asyncio.sleep(0.05)
            doc = await call(client.shutdown)
            assert doc["draining"] is True
            status, doc = await call(
                client.request, "POST", "/submit",
                {"points": [__import__("dataclasses").asdict(point(1))]})
            assert status == 503
            release.set()

        run_scenario(tmp_path, scenario, simulate_fn=sim, drain_s=10.0)

    def test_restart_resumes_journaled_jobs(self, tmp_path):
        gate = threading.Event()

        def slow_sim(q):
            gate.wait(1.0)
            return {"seed": q.seed}, 0.001

        async def first_run():
            server = make_server(tmp_path, slow_sim, max_jobs=1,
                                 drain_s=0.05)
            ready = asyncio.Event()
            run_task = asyncio.ensure_future(
                server.run(on_ready=ready.set))
            await asyncio.wait_for(ready.wait(), 10)
            client = ServeClient(server.address, timeout_s=10.0)
            ids = [await call(client.submit, [point(i)])
                   for i in (0, 1)]
            server.request_drain()
            assert await asyncio.wait_for(run_task, 10) == 0
            return ids

        job_ids = asyncio.run(first_run())
        pending = Journal.load(tmp_path / "state" / "journal.jsonl")
        assert {job.id for job in pending} == set(job_ids)

        async def second_run():
            server = make_server(
                tmp_path, lambda q: ({"seed": q.seed}, 0.001))
            ready = asyncio.Event()
            run_task = asyncio.ensure_future(
                server.run(on_ready=ready.set))
            await asyncio.wait_for(ready.wait(), 10)
            client = ServeClient(server.address, timeout_s=10.0)
            try:
                for index, job_id in enumerate(job_ids):
                    status = await call(client.wait, job_id, 10.0)
                    assert status["state"] == "done"
                    results = await call(client.result, job_id)
                    assert results == [{"seed": index}]
                stats = await call(client.stats)
                assert stats["serve.jobs_resumed"] == len(job_ids)
                # new ids keep counting past the resumed ones
                fresh = await call(client.submit, [point(7)])
                assert fresh == f"job-{len(job_ids) + 1}"
                await call(client.wait, fresh, 10.0)
            finally:
                server.request_drain()
                assert await asyncio.wait_for(run_task, 10) == 0

        asyncio.run(second_run())
        assert Journal.load(tmp_path / "state" / "journal.jsonl") == []


class TestStatsPayload:
    def test_stats_is_json_with_cache_family(self, tmp_path):
        import json

        async def scenario(server, client):
            status, content_type, raw = await call(
                client.request_raw, "GET", "/stats")
            assert status == 200
            assert content_type.startswith("application/json")
            doc = json.loads(raw)
            assert doc["exec.cache.entries"] == 0
            assert doc["serve.pool.workers"] == 2
            # every value in the flattened snapshot is numeric
            assert all(isinstance(v, (int, float))
                       for v in doc.values())

        run_scenario(tmp_path, scenario)

    def test_concurrent_stats_requests(self, tmp_path):
        async def scenario(server, client):
            job_id = await call(client.submit, [point()])
            await call(client.wait, job_id, 10.0)
            docs = await asyncio.gather(
                *[call(client.stats) for _ in range(8)])
            for doc in docs:
                assert doc["serve.jobs_completed"] == 1
                assert doc["exec.cache.entries"] == 1

        run_scenario(tmp_path, scenario)
