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

    def get(self, p):
        return self.store.get(point_key(p))

    def put(self, p, result):
        self.store[point_key(p)] = result

    def register_stats(self, registry, prefix="exec.cache"):
        registry.register(prefix, lambda: {"entries": len(self.store)})


def make_server(tmp_path, simulate_fn, **kwargs):
    kwargs.setdefault("cache", StubCache())
    kwargs.setdefault("encoder", lambda r: r)
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
            results = await call(client.result, job_id, False)
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
            results = await call(client.result, job_id, False)
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
                    results = await call(client.result, job_id, False)
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


class TestMetricsEndpoint:
    def test_prometheus_exposition(self, tmp_path):
        from repro.obs.exposition import parse_prometheus

        async def scenario(server, client):
            job_id = await call(client.submit, [point()])
            await call(client.wait, job_id, 10.0)
            content_type, text = await call(client.metrics_text)
            assert "version=0.0.4" in content_type
            parsed = parse_prometheus(text)
            assert parsed["repro_serve_jobs_completed"] == 1
            assert "repro_exec_cache_entries" in parsed
            assert "repro_serve_queue_depth" in parsed

        run_scenario(tmp_path, scenario)

    def test_json_format_carries_series(self, tmp_path):
        async def scenario(server, client):
            job_id = await call(client.submit, [point()])
            await call(client.wait, job_id, 10.0)
            await asyncio.sleep(0.15)  # let the sampler tick
            doc = await call(client.metrics)
            assert set(doc) == {"stats", "series"}
            assert doc["stats"]["serve.jobs_completed"] == 1
            series = doc["series"]
            assert series["interval_s"] == 0.05
            names = set(series["series"])
            assert {"serve.queue_depth", "serve.jobs_per_s",
                    "serve.pool.cache_hit_rate"} <= names
            depth = series["series"]["serve.queue_depth"]
            assert depth["samples"] >= 1
            assert depth["values"][-1] == 0.0

        run_scenario(tmp_path, scenario, metrics_interval_s=0.05)

    def test_unknown_format_rejected(self, tmp_path):
        async def scenario(server, client):
            status, _, raw = await call(client.request_raw, "GET",
                                        "/metrics?format=xml")
            assert status == 400
            assert b"unknown metrics format" in raw

        run_scenario(tmp_path, scenario)

    def test_bad_metrics_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_server(tmp_path, lambda q: ({}, 0.0),
                        metrics_interval_s=0)


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


class TestSpansEndpoint:
    def test_job_lifecycle_span_tree(self, tmp_path):
        async def scenario(server, client):
            job_id = await call(client.submit, [point(0), point(1)])
            await call(client.wait, job_id, 10.0)
            doc = await call(client.spans)
            assert doc["dropped"] == 0
            spans = doc["spans"]
            by_id = {s["id"]: s for s in spans}
            (root,) = [s for s in spans if s["name"] == "serve.job"]
            assert root["attrs"]["job_id"] == job_id
            assert root["attrs"]["state"] == "done"
            children = {s["name"] for s in spans
                        if s["parent"] == root["id"]}
            assert {"serve.submit", "serve.queue",
                    "serve.execute"} <= children
            points = [s for s in spans if s["name"] == "exec.resolve"]
            assert len(points) == 2
            for record in points:
                assert by_id[record["parent"]]["name"] == "serve.execute"
                assert record["attrs"]["key"]

        run_scenario(tmp_path, scenario)

    def test_name_filter(self, tmp_path):
        async def scenario(server, client):
            job_id = await call(client.submit, [point()])
            await call(client.wait, job_id, 10.0)
            doc = await call(client.spans, "exec.resolve")
            assert doc["spans"]
            assert {s["name"] for s in doc["spans"]} == {"exec.resolve"}

        run_scenario(tmp_path, scenario)
