"""End-to-end self-check of the daemon (``python -m repro.serve.smoke``).

Boots a real server subprocess and verifies the service contracts:

1. **Correctness under concurrency** — three clients submitting
   overlapping sweep points all receive results bit-identical (modulo
   wall-time provenance) to the inline :mod:`repro.exec` path.
2. **Deduplication** — overlapping submissions execute once per cache
   key (``exec.resolve.dedup_hits`` > 0) and the cache wrote exactly one
   entry per unique point (``exec.cache.writes``).
3. **Durability** — SIGTERM mid-queue drains cleanly (exit 0), leaves
   unfinished jobs journaled, and a restarted server resumes and
   completes them.

Exit status 0 on success; nonzero with a diagnostic otherwise. CI runs
this via ``make serve-smoke``.

Options::

    python -m repro.serve.smoke [--workers N] [--quiet]
"""

from __future__ import annotations

import argparse
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading

from ..exec.engine import SweepEngine
from ..exec.serialize import result_to_dict
from ..obs.log import configure, get_logger
from ..sim.runner import DesignPoint
from .client import ServeClient
from .jobs import Journal

log = get_logger("repro.serve.smoke")

FAST = dict(trh=500, instructions=6_000, rows_per_bank=512,
            refresh_scale=1 / 256)
WORKLOADS = ("add", "mcf")


def smoke_points(seed: int = 0x5EED) -> list[DesignPoint]:
    points: list[DesignPoint] = []
    for workload in WORKLOADS:
        point = DesignPoint(workload=workload, design="mopac-d",
                            seed=seed, **FAST)
        points.append(point)
        points.append(point.baseline())
    return points


def comparable(result) -> dict:
    """Result document with the machine-dependent provenance removed."""
    document = result_to_dict(result)
    document.pop("phases", None)
    return document


def inline_reference(points: list[DesignPoint]) -> list[dict]:
    engine = SweepEngine(workers=1, cache=None, use_memo=False)
    return [comparable(result) for result in engine.run(points)]


def start_server(state_dir: pathlib.Path, address: str, workers: int,
                 max_jobs: int, drain_s: float) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve",
         "--state-dir", str(state_dir), "--address", address,
         "--workers", str(workers), "--max-jobs", str(max_jobs),
         "--drain-s", str(drain_s)])
    return process


def stop_server(process: subprocess.Popen, timeout_s: float = 30.0) -> int:
    process.send_signal(signal.SIGTERM)
    return process.wait(timeout=timeout_s)


# ----------------------------------------------------------------------
# Leg 1: concurrent clients, dedup, bit-identical results
# ----------------------------------------------------------------------
def check_concurrent(address: str, workers: int) -> int:
    points = smoke_points()
    expected = inline_reference(points)
    by_key = dict(zip(range(len(points)), expected))

    # overlapping submissions: client 0 carries a duplicate point, so
    # at least one in-flight dedup is guaranteed even if scheduling
    # races make the cross-client overlap resolve through the cache
    submissions = [
        [0, 1, 2, 3, 0],     # all points + duplicate of the first
        [0, 1],
        [2, 3],
    ]
    failures: list[str] = []

    def client_thread(name: str, indices: list[int]) -> None:
        client = ServeClient(address)
        job_id = client.submit([points[i] for i in indices])
        status = client.wait(job_id, timeout_s=300.0)
        if status["state"] != "done":
            failures.append(f"{name}: job {job_id} ended "
                            f"{status['state']}: {status['error']}")
            return
        got = [comparable(r) for r in client.result(job_id)]
        want = [by_key[i] for i in indices]
        if got != want:
            failures.append(f"{name}: results differ from inline run")

    threads = [threading.Thread(target=client_thread,
                                args=(f"client-{n}", indices))
               for n, indices in enumerate(submissions)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for failure in failures:
        log.error("FAIL: %s", failure)
    if failures:
        return 1

    stats = ServeClient(address).stats()
    log.info("server stats: dedup=%d cache_hits=%d simulated=%d "
             "cache_writes=%d", stats.get("exec.resolve.dedup_hits", 0),
             stats.get("exec.resolve.cache_hits", 0),
             stats.get("exec.resolve.simulated", 0),
             stats.get("exec.cache.writes", 0))
    if stats.get("exec.resolve.dedup_hits", 0) < 1:
        log.error("FAIL: no in-flight dedup observed "
                  "(exec.resolve.dedup_hits == 0)")
        return 1
    if stats.get("exec.cache.writes", 0) != len(points):
        log.error("FAIL: expected exactly %d cache writes (one per "
                  "unique point), saw %s", len(points),
                  stats.get("exec.cache.writes"))
        return 1
    if "exec.cache.hits" not in stats or "exec.cache.misses" not in stats:
        log.error("FAIL: exec.cache counters missing from /stats")
        return 1
    if stats.get("serve.jobs_completed", 0) != len(submissions):
        log.error("FAIL: expected %d completed jobs, saw %s",
                  len(submissions), stats.get("serve.jobs_completed"))
        return 1
    log.info("OK: %d concurrent clients, results == inline, dedup "
             "observed", len(submissions))
    return 0


# ----------------------------------------------------------------------
# Leg 2: SIGTERM mid-queue, journal resume
# ----------------------------------------------------------------------
def check_restart(tmp: pathlib.Path, workers: int) -> int:
    state_dir = tmp / "restart-state"
    address = f"unix:{tmp / 'restart.sock'}"
    points = smoke_points(seed=7)  # cold keys: real work to interrupt
    jobs = [[points[0], points[1]], [points[2], points[3]],
            [points[0], points[3]]]
    expected = inline_reference(points)
    by_doc = {id(p): doc for p, doc in zip(points, expected)}

    # deliberately starved server: one worker, one job at a time, and
    # a near-zero drain, so SIGTERM right after the submits is
    # guaranteed to strand jobs in the queue
    process = start_server(state_dir, address, workers=1, max_jobs=1,
                           drain_s=0.2)
    client = ServeClient(address)
    client.wait_ready()
    job_ids = [client.submit(job) for job in jobs]
    code = stop_server(process)
    if code != 0:
        log.error("FAIL: draining server exited %d", code)
        return 1
    pending = Journal.load(state_dir / "journal.jsonl")
    log.info("after SIGTERM: %d of %d jobs still journaled",
             len(pending), len(jobs))
    if not pending:
        log.error("FAIL: SIGTERM mid-queue left no journaled jobs "
                  "(drain finished everything; cannot test resume)")
        return 1

    process = start_server(state_dir, address, workers=workers,
                           max_jobs=4, drain_s=10.0)
    try:
        client.wait_ready()
        pending_ids = {job.id for job in pending}
        for job_id, job_points in zip(job_ids, jobs):
            if job_id not in pending_ids:
                continue  # finished before the SIGTERM; compacted away
            status = client.wait(job_id, timeout_s=300.0,
                                 tolerate_disconnects=True)
            if status["state"] != "done":
                log.error("FAIL: resumed job %s ended %s: %s", job_id,
                          status["state"], status["error"])
                return 1
            got = [comparable(r) for r in client.result(job_id)]
            want = [by_doc[id(p)] for p in job_points]
            if got != want:
                log.error("FAIL: resumed job %s results differ from "
                          "inline run", job_id)
                return 1
        leftovers = Journal.load(state_dir / "journal.jsonl")
        if leftovers:
            log.error("FAIL: %d jobs still journaled after resume",
                      len(leftovers))
            return 1
        log.info("OK: restart resumed and completed %d journaled "
                 "job(s), bit-identical to inline", len(pending))
        return 0
    finally:
        if stop_server(process) != 0:
            log.error("FAIL: final shutdown was not clean")
            return 1


def run_smoke(workers: int) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as name:
        tmp = pathlib.Path(name)
        state_dir = tmp / "state"
        address = f"unix:{tmp / 'serve.sock'}"
        process = start_server(state_dir, address, workers=workers,
                               max_jobs=4, drain_s=10.0)
        try:
            ServeClient(address).wait_ready()
            code = check_concurrent(address, workers)
        finally:
            stop_code = stop_server(process)
        if code:
            return code
        if stop_code != 0:
            log.error("FAIL: server exited %d on SIGTERM", stop_code)
            return 1
        return check_restart(tmp, workers)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.smoke", description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--quiet", action="store_true",
                        help="only report failures")
    args = parser.parse_args(argv)
    configure("warning" if args.quiet else None)
    return run_smoke(args.workers)


if __name__ == "__main__":
    raise SystemExit(main())
