"""``/result`` reads the result cache, the one copy of each result.

A job holds its points' cache keys, never their results: every
``/result`` call re-reads the entries, returns ``results.csv`` row
documents, and fails naming the point when an entry is gone. These
tests run the daemon in process on a real :class:`ResultCache`, with a
fake simulation that returns one small real result for every point.
"""

import asyncio
import configparser
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import config_io
from repro.exec import cache as cache_module
from repro.exec import resolver as resolver_module
from repro.exec.cache import ResultCache
from repro.exec.resolver import Resolver
from repro.exec.serialize import result_row, result_to_dict
from repro.serve.client import ServeError
from repro.sim.runner import DesignPoint, run_point
from repro.tools import campaign

from ..exec.test_cache import DAMAGE
from .test_server import FAST, call, point, run_scenario


@pytest.fixture(scope="module")
def real_result():
    return run_point(DesignPoint(workload="mcf", design="prac", trh=500,
                                 **FAST))


def serve(tmp_path, scenario, real_result, cache=None):
    """Run ``scenario`` against a daemon on a real cache."""
    if cache is None:
        cache = ResultCache(tmp_path / "cache")
    return run_scenario(tmp_path, scenario,
                        simulate_fn=lambda q: (real_result, 0.001),
                        cache=cache)


async def finish(client, points):
    job_id = await call(client.submit, points)
    status = await call(client.wait, job_id, 10.0)
    assert status["state"] == "done"
    return job_id


def name(p):
    return f"{p.workload}.{p.design}.t{p.trh}"


class TestRows:
    def test_rows_by_default_full_documents_on_request(self, tmp_path,
                                                       real_result):
        async def scenario(server, client):
            job_id = await finish(client, [point(0), point(1)])
            rows = await call(client.result, job_id)
            assert rows == [result_row(real_result)] * 2
            full = await call(client.result, job_id, True)
            assert [result_to_dict(r) for r in full] == \
                [result_to_dict(real_result)] * 2

        serve(tmp_path, scenario, real_result)

    def test_result_reads_are_not_cache_hits(self, tmp_path, real_result):
        cache = ResultCache(tmp_path / "cache")
        warm = [point(seed) for seed in range(3)]
        for p in warm:
            cache.put(p, real_result)

        async def scenario(server, client):
            job_id = await finish(client, warm)
            for _ in range(2):
                await call(client.result, job_id)
            stats = await call(client.stats)
            assert stats["exec.cache.hits"] == len(warm)
            assert stats["exec.cache.misses"] == 0
            assert stats["exec.resolve.cache_hits"] == len(warm)

        serve(tmp_path, scenario, real_result, cache=cache)

    def test_daemon_holds_no_copy(self, tmp_path, real_result):
        async def scenario(server, client):
            points = [point(0), point(1)]
            job_id = await finish(client, points)
            first = await call(client.result, job_id)
            assert await call(client.result, job_id) == first
            server.cache.path_for(points[1]).unlink()
            with pytest.raises(ServeError) as info:
                await call(client.result, job_id)
            assert info.value.status == 410

        serve(tmp_path, scenario, real_result)


class TestVanishedEntry:
    @pytest.mark.parametrize("damage", ["delete", "corrupt"])
    def test_result_names_the_point(self, tmp_path, real_result, damage):
        async def scenario(server, client):
            points = [point(0), DesignPoint(workload="mcf", design="prac",
                                            trh=250, **FAST), point(2)]
            job_id = await finish(client, points)
            path = server.cache.path_for(points[1])
            if damage == "delete":
                path.unlink()
            else:
                path.write_text('{"schema": 3, "trunc')
            status, document = await call(client.request, "GET",
                                          f"/result?id={job_id}")
            assert status == 410
            assert "results" not in document
            assert "mcf.prac.t250" in document["error"]
            assert server.cache.key(points[1])[:12] in document["error"]
            assert name(points[0]) not in document["error"]

        serve(tmp_path, scenario, real_result)

    def test_corrupt_entry_is_resimulated_while_resolving(self, tmp_path,
                                                          real_result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(point(0), real_result).write_text("truncated {")

        async def scenario(server, client):
            job_id = await finish(client, [point(0)])
            assert await call(client.result, job_id) == \
                [result_row(real_result)]
            stats = await call(client.stats)
            assert stats["exec.cache.corrupt"] == 1
            assert stats["exec.resolve.simulated"] == 1

        serve(tmp_path, scenario, real_result, cache=cache)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_answers_410_for_rows_and_full(
            self, tmp_path, real_result, damage):
        async def scenario(server, client):
            points = [point(0), DesignPoint(workload="mcf", design="prac",
                                            trh=250, **FAST)]
            job_id = await finish(client, points)
            DAMAGE[damage](server.cache.path_for(points[1]), real_result)
            for query in ("", "&full=1"):
                status, document = await call(
                    client.request, "GET", f"/result?id={job_id}{query}")
                assert status == 410
                assert "results" not in document
                assert "mcf.prac.t250" in document["error"]
                assert name(points[0]) not in document["error"]

        serve(tmp_path, scenario, real_result)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_a_counted_miss_and_rewritten(
            self, tmp_path, real_result, damage):
        cache = ResultCache(tmp_path / "cache")
        DAMAGE[damage](cache.put(point(0), real_result), real_result)

        async def scenario(server, client):
            job_id = await finish(client, [point(0)])
            stats = await call(client.stats)
            assert stats["exec.cache.corrupt"] == 1
            assert stats["exec.resolve.simulated"] == 1
            assert await call(client.result, job_id) == \
                [result_row(real_result)]
            assert [result_to_dict(r) for r in await call(
                client.result, job_id, True)] == [result_to_dict(real_result)]

        serve(tmp_path, scenario, real_result, cache=cache)

    def test_fetch_raises_and_writes_no_csv(self, tmp_path, real_result):
        plan_dir = tmp_path / "camp"
        campaign.plan(plan_dir, ["add"], ["prac"], [500], 2_000)
        _, _, flat = campaign.planned_points(plan_dir)

        async def scenario(server, client):
            job_id = await call(campaign.submit, plan_dir, server.address)
            await call(client.wait, job_id, 10.0)
            server.cache.path_for(flat[1]).unlink()
            with pytest.raises(ServeError, match=name(flat[1])):
                await call(campaign.fetch, plan_dir, wait_s=10.0)

        serve(tmp_path, scenario, real_result)
        assert not (plan_dir / "results.csv").exists()


@pytest.fixture
def key_calls(monkeypatch):
    """Every ``point_key`` call, from the cache and the resolver."""
    calls = []
    real = cache_module.point_key

    def counting(p, salt=None):
        calls.append(p)
        return real(p, salt)

    monkeypatch.setattr(cache_module, "point_key", counting)
    monkeypatch.setattr(resolver_module, "point_key", counting)
    return calls


class TestOneKeyPerPoint:
    def test_resolver_hashes_each_resolve_once(self, tmp_path, real_result,
                                               key_calls):
        salted = ResultCache(tmp_path, salt="x")
        resolver = Resolver(workers=1, cache=salted, use_memo=False,
                            simulate_fn=lambda q: (real_result, 0.001),
                            executor_factory=ThreadPoolExecutor)
        p = point(0)

        async def go():
            # two concurrent resolves join one execution under one key
            await asyncio.gather(resolver.resolve_all([p]),
                                 resolver.resolve_all([p]))
            await resolver.resolve_all([p])  # and a warm one

        try:
            asyncio.run(go())
        finally:
            resolver.shutdown()
        assert len(key_calls) == 3
        metrics = resolver.metrics
        assert (metrics.dedup_hits, metrics.simulated,
                metrics.cache_hits) == (1, 1, 1)
        assert salted.path_for(p).exists()
        assert not ResultCache(tmp_path).path_for(p).exists()

    def test_job_keys_are_the_cache_keys(self, tmp_path, real_result,
                                         key_calls):
        salted = ResultCache(tmp_path / "cache", salt="x")
        points = [point(seed) for seed in range(3)]

        async def scenario(server, client):
            job_id = await finish(client, points)
            await call(client.result, job_id)
            assert len(key_calls) == len(points)
            job = server._jobs[job_id]
            assert job.keys == [salted.key(p) for p in points]
            assert all(salted.path_for(p).exists() for p in points)

        serve(tmp_path, scenario, real_result, cache=salted)


@pytest.fixture
def work(monkeypatch):
    """Counts a cache's checked entry reads (``_read``, under every
    ``load``/``load_row``) and every ``result_from_dict`` decode."""
    decodes = []
    real_decode = cache_module.result_from_dict

    def counting_decode(data):
        decodes.append(data)
        return real_decode(data)

    monkeypatch.setattr(cache_module, "result_from_dict", counting_decode)

    def wrap(cache):
        reads = []
        real_read = cache._read

        def counting_read(key):
            reads.append(key)
            return real_read(key)

        cache._read = counting_read
        return reads, decodes

    return wrap


class TestWorkCounts:
    """The submit -> fetch path's work, as counts rather than wall time."""

    def test_warm_job_decodes_entries_only_for_full_results(
            self, tmp_path, real_result, work):
        cache = ResultCache(tmp_path / "cache")
        warm = [point(seed) for seed in range(4)]
        for p in warm:
            cache.put(p, real_result)
        keys = [cache.key(p) for p in warm]
        reads, decodes = work(cache)

        async def scenario(server, client):
            job_id = await finish(client, warm)
            # resolving: one checked header read per point, no decode
            assert (reads, decodes) == (keys, [])
            for full in (False, True, False):
                del reads[:], decodes[:]
                await call(client.result, job_id, full)
                assert reads == keys
                # rows come from the header; full=1 decodes each entry
                assert len(decodes) == (len(keys) if full else 0)
            stats = await call(client.stats)
            assert stats["exec.resolve.simulated"] == 0

        serve(tmp_path, scenario, real_result, cache=cache)

    def test_campaign_round_parses_each_ini_once_per_call(
            self, tmp_path, real_result, work, monkeypatch):
        plan_dir = tmp_path / "camp"
        inis = campaign.plan(plan_dir, ["add", "mcf"], ["prac", "mopac-c"],
                             [500, 250], 2_000)
        _, _, flat = campaign.planned_points(plan_dir)
        unique = list(dict.fromkeys(flat))
        cache = ResultCache(tmp_path / "cache")
        for p in unique:
            cache.put(p, real_result)
        reads, decodes = work(cache)

        texts = sorted(path.read_text() for path in inis)
        parsed = []
        real_parse = config_io.design_point_from_ini

        def counting_parse(text):
            parsed.append(text)
            return real_parse(text)

        monkeypatch.setattr(config_io, "design_point_from_ini",
                            counting_parse)

        async def scenario(server, client):
            job_id = await call(campaign.submit, plan_dir, server.address)
            assert sorted(parsed) == texts  # each INI once
            await call(client.wait, job_id, 10.0)
            assert (len(reads), decodes) == (len(unique), [])
            del parsed[:], reads[:]
            await call(campaign.fetch, plan_dir, wait_s=10.0)
            assert sorted(parsed) == texts
            assert (len(reads), decodes) == (len(unique), [])

        serve(tmp_path, scenario, real_result, cache=cache)
        assert (plan_dir / "results.csv").exists()

    def test_campaign_round_builds_no_config_parser(
            self, tmp_path, real_result, monkeypatch):
        # config_io writes and reads INIs itself: neither planning a
        # campaign nor reading it back builds a ConfigParser
        built = []
        real_init = configparser.RawConfigParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(type(parser).__name__)
            real_init(parser, *args, **kwargs)

        monkeypatch.setattr(configparser.RawConfigParser, "__init__",
                            counting_init)
        plan_dir = tmp_path / "camp"
        campaign.plan(plan_dir, ["add", "mcf"], ["prac", "mopac-c"],
                      [500, 250], 2_000)
        _, points, _ = campaign.planned_points(plan_dir)
        assert (len(points), built) == (8, [])

        async def scenario(server, client):
            await call(campaign.submit, plan_dir, server.address)
            await call(campaign.fetch, plan_dir, wait_s=10.0)

        serve(tmp_path, scenario, real_result)
        assert built == []
        assert (plan_dir / "results.csv").exists()
