"""Serve results are clock-independent.

The daemon legitimately reads a wall clock — job lifecycle stamps and
the latency histogram fed from them — and each site carries a
``# repro: allow(determinism)`` waiver claiming the value never reaches
a result payload or cache key. This test backs the waivers: two runs of
the same job under wildly different (and differently *skewed*) clocks
must produce byte-identical results and cache keys, while the lifecycle
stamps visibly absorb the skew.
"""

import asyncio
import json
from unittest import mock

from repro.exec.cache import point_key

from .test_server import call, point, run_scenario


def run_submission(tmp_path, wall_offset_s):
    """One submit→wait→fetch cycle with the server's clock skewed."""
    import time
    real_time = time.time
    captured = {}

    def skewed_time():
        return real_time() + wall_offset_s

    async def scenario(server, client):
        job_id = await call(client.submit, [point(0), point(1)])
        status = await call(client.wait, job_id, 10.0)
        assert status["state"] == "done"
        captured["status"] = status
        captured["results"] = await call(client.result, job_id)
        captured["keys"] = [point_key(p) for p in (point(0), point(1))]

    with mock.patch("repro.serve.server.time.time", skewed_time), \
            mock.patch("repro.serve.jobs.time.time", skewed_time):
        run_scenario(tmp_path / f"skew{wall_offset_s}", scenario)
    return captured


def test_results_identical_under_skewed_clocks(tmp_path):
    baseline = run_submission(tmp_path, 0.0)
    skewed = run_submission(tmp_path, 86_400.0)  # a day in the future

    # the deliverables are byte-identical...
    assert json.dumps(baseline["results"], sort_keys=True) \
        == json.dumps(skewed["results"], sort_keys=True)
    assert baseline["keys"] == skewed["keys"]

    # ...while the clock-derived bookkeeping visibly moved, proving the
    # skew actually reached the server's clock reads
    delta = skewed["status"]["submitted_s"] - baseline["status"]["submitted_s"]
    assert delta > 80_000


def test_status_document_isolates_clock_fields(tmp_path):
    # the only clock-bearing fields in a job document are the lifecycle
    # stamps; everything else must be clock-free — new fields that leak
    # a timestamp should trip this inventory
    captured = run_submission(tmp_path, 0.0)
    clock_fields = {"submitted_s", "started_s", "finished_s"}
    durations = {"timeout_s"}  # relative, not a clock reading
    document = captured["status"]
    assert clock_fields <= set(document)
    for field in sorted(set(document) - clock_fields - durations):
        assert not str(field).endswith(("_s", "_ns", "_ts")), (
            f"status field {field!r} looks clock-derived; either derive "
            f"it from simulation time or add it to the waived set here")
