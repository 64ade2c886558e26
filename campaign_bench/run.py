"""Campaign benchmark: the paper's experiments end to end, layer by layer.

Run from the checkout root::

    python3 campaign_bench/run.py --workload cold-campaign --seed 1 \\
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics from a separate run that alternates
untraced and traced passes. A run makes passes until another one
would end past ``--seconds``. The tests of the helpers run with
``python -m pytest campaign_bench/tests``.

Load comes from this one process, with at most two pool workers: the
bounds were set on a Linux VM with 2 vCPUs and CPython 3.11, whose
CPU speed moves by up to 1.5x in plateaus of seconds to minutes (a
fixed Python loop timed back to back shows it), so raw host times of
the same pass spread by 20-45% of the median between runs. Every time
in the result line is therefore in *reference seconds*: host seconds
corrected by the host's speed, which ``speed.SpeedClock`` samples
every 20 ms while the work runs, from a signal handler in this process
(``mitigation-table``) or from one light sampler process pinned to
each core (the workloads whose work runs in other processes). Over
five seeds per workload this brought the spread of ``wall_s`` down to
2-4% of the median. The work ledger below is the exact gate.
Campaigns run on the fast engine
(``REPRO_ENGINE=fast``, set in the benchmark's own environment as
docs/performance.md recommends); the reference engine gets no
workload, since the plan is to delete it.

Workloads, and why each was chosen
----------------------------------
``cold-campaign``
    ``campaign plan`` and ``campaign run`` of mix1-mix6, add and mcf x
    {prac, mopac-c, mopac-d} at T_RH 500 and 60k instructions per
    core, plus their baselines: 32 unique points out of 48. Every pass
    starts from a fresh ``REPRO_CACHE_DIR`` and ``runner.clear_cache()``
    with two workers. This is the paper's Fig. 9/11 experiment and
    about 97% of its time is simulation. STREAM ``add`` services about
    30k requests per point against about 11k for the mixes, which
    varies the request volume and row-hit rate the FR-FCFS and bank
    layers see.
``mitigation-table``
    ``campaign.compare_mitigations`` at its defaults, in process: T_RH
    500, 60k activations, all 11 registered designs plus the
    unprotected baseline. This is the paper's §9.2 table. It has no
    DRAM simulation, cache or pool; the time goes to the attack
    harness, the ledger, the security telemetry and the policy hooks.
    A policy change shows here; an engine change must show nothing.
``warm-serve``
    Set-up plans the full Fig. 9 grid (23 Table 4 workloads x 3
    designs x T_RH {1000, 500, 250} plus a baseline per workload and
    T_RH, 276 unique points at 2k instructions), pre-fills a cache with ``campaign
    run`` and starts one ``repro.serve`` daemon on that cache on a
    unix socket. A pass is four rounds of ``campaign.submit`` then
    ``campaign.fetch``, each pass on a freshly started daemon (the
    restart between passes is not timed): the daemon keeps every
    finished job's results in memory, so without the restart its size,
    and ``peak_rss_mb``, would grow with the number of passes. This is
    the read side of the cache (``cold-campaign`` is the write side):
    cache read, deserialize, HTTP/JSON, client polling, with zero
    simulation. Entry size does not depend on the instruction count,
    so the short pre-fill keeps set-up near 4 s.

    ``ServeClient.wait`` polls with an exponential backoff starting at
    0.1 s (0.1, 0.3, 0.7 s after the wait begins, jittered by job id),
    so a round's client time is quantized by the poll schedule rather
    than by the server: whether a ~250 ms job is seen at the first or
    the second poll moves a round by 0.2 s. A pass therefore runs
    several rounds, and ``serve.poll_wait_share`` reports the
    quantization.

An operation is a unique design point resolved, or a table row for
``mitigation-table``. The input seed of every design point and of the
adversarial stream is derived from ``--seed``.

End-to-end metrics (reference seconds)
--------------------------------------
``wall_s``       median pass time, from the first call until the
                 results file is written.
``ops_per_s``    operations over the summed pass time.
``setup_s``      median of ``SETUP_REPS`` complete set-ups (five, or
                 three for warm-serve): ``campaign plan`` through its
                 CLI (cold, warm); the pre-fill ``campaign run`` and the
                 daemon start until ``/healthz`` answers (warm); an
                 interpreter importing the table's modules
                 (mitigation-table).
``peak_rss_mb``  maximum resident set of this process, the pool
                 workers, the set-up commands and the daemons.

``failed`` counts operations failing a correctness check, so
failed/attempted is the failure ratio. The checks: every
``cold-campaign`` pass writes a ``results.csv`` with the digest of the
first pass, every row with ``requests > 0`` and a finite slowdown;
every ``warm-serve`` round writes a ``results.csv`` byte-identical to
the one the set-up's ``campaign run`` wrote from the same cache;
``compare_mitigations`` returns ``ok`` and no design registered as
secure reads ``BROKEN``. Each pass also records a ledger of
deterministic work counts (``ledger.work_counts`` for the campaign,
per-design alerts, mitigations, ``cu_per_act``, ``max_count`` and
``drift_max`` for the table, row/request/alert totals for the served
CSV). Any count that differs between two passes of the same code fails
every operation of the drifting pass.

Per-layer metrics, and what each should move
--------------------------------------------
Timings are raw host time, so compare them within one run or read
them with ``host.spin_us``, the mean calibration-loop time of the run
(about 130 us at the reference speed; higher means a slower host).
``sim_minstr_per_s`` and ``acts_per_s`` are per reference second, like
the end-to-end metrics. Timings come from outside the program: the
traced pass swaps public functions for timing wrappers
(``probe.Probe``; forked pool workers inherit them) or calls the
layers' public functions directly. Counts come from ``result.stats``.
A layer a workload does not execute reads 0 there.

* ``repro.sim``: ``sim.build_ms`` (``build_config`` + ``build_traces``
  + engine constructor, summed over a pass's points), ``sim.run_s``
  (``System.run``, summed), ``sim.ns_per_request`` (run ns over
  ``mc.serviced``), ``sim.simulated_ps``, ``sim.fastforward_ps`` and
  ``sim_minstr_per_s`` (simulated instructions of every core per
  reference second of the untraced passes). They move ``wall_s`` and
  ``ops_per_s`` on ``cold-campaign`` and nothing elsewhere.
* ``repro.workloads`` / ``repro.cpu.trace``: ``workloads.trace_items``
  (sum of ``core.*.requests``), ``workloads.tracegen_ms`` (a standalone
  ``TraceGenerator.next_block`` drain of that many items) and
  ``workloads.tracegen_share`` (over ``sim.run_s``); they move
  ``cold-campaign`` throughput.
* ``repro.mc``: ``mc.serviced``, ``mc.activations``, ``mc.row_hits``,
  ``mc.row_conflicts``, ``mc.refreshes``, ``mc.alerts``,
  ``mc.rfm_commands`` (summed over sub-channels and points) and the
  simulated mean ``mc.read_latency_ns``: the work units that explain
  ``sim.run_s``.
* ``repro.mitigations`` / ``repro.attacks`` / ``repro.check``: on
  ``cold-campaign`` the counts ``mitigation.counter_updates``,
  ``mitigation.mitigations``, ``mitigation.rfm_events`` and
  ``mitigation.ref_drains``; on ``mitigation-table`` the timings
  ``attacks.targets_ms`` (``make_targets``),
  ``attacks.harness_floor_s`` (``AttackHarness`` with
  ``BaselinePolicy``), ``mitigations.<design>.s``
  (``run_differential(designs=(d,))``), ``mitigations.policy_ns_per_act``
  ((design - targets - floor) / activations, mean over designs),
  ``acts_per_s`` (activations driven per reference second, untraced)
  and
  the summed ``mitigations.alerts``, ``mitigations.mitigations`` and
  ``mitigations.counter_updates``. The timings move ``wall_s`` and
  ``ops_per_s`` on ``mitigation-table``; their share of
  ``cold-campaign`` is predicted under 5%.
* ``repro.exec.engine``: ``exec.engine.pool_efficiency`` (``sim_wall_s``
  / (``wall_s`` x workers)) and ``exec.engine.dispatch_s`` (``wall_s``
  - ``sim_wall_s`` / workers), read from ``SweepEngine.metrics``; they
  move ``wall_s`` on ``cold-campaign``.
* ``repro.exec.cache`` / ``repro.exec.serialize``: per entry
  ``exec.cache.get_ms`` (hit), ``exec.cache.put_ms``,
  ``exec.serialize.encode_ms`` / ``decode_ms`` (JSON text included)
  and ``exec.cache.entry_bytes``, measured on the entries the workload
  resolves. They move ``wall_s`` and ``ops_per_s`` on ``warm-serve``;
  on ``cold-campaign`` they were under 2% of a pass (0.07 s of 4.9 s).
* ``repro.serve``: ``serve.submit_ms``, ``serve.wait_ms`` and
  ``serve.result_ms`` (``ServeClient`` calls, mean per round),
  ``serve.job_latency_ms`` (server side, from ``ServeClient.stats()``)
  and ``serve.poll_wait_share`` ((client job time - server job
  latency) / ``wall_s``, the client job time running from the start of
  ``submit`` to the return of ``wait``: ``fetch`` re-reads the plan
  between the two while the job runs); they move ``wall_s`` on
  ``warm-serve``.
* ``repro.tools.campaign``: ``campaign.plan_ms`` moves ``setup_s``;
  ``campaign.csv_ms`` moves ``wall_s`` on ``warm-serve``.
* ``repro.obs``: ``obs.trace_overhead_pct``, the traced passes' median
  wall time over the untraced median. On ``mitigation-table`` the
  traced pass runs the table design by design, so this includes the
  extra target streams it draws.

Deliberately unmeasured
-----------------------
``repro.fabric``: three serve nodes and their pools do not fit on a
two-core machine without measuring the scheduler instead. The
reference engine: it is slated for deletion.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import sys
import time

from ledger import ledger_drift, overhead_pct
from speed import SpeedClock

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: scratch directory inside the checkout; emptied on every run
WORK = ROOT / ".campaign_bench_work"
#: fewest measured passes: the ledger compares passes
MIN_PASSES = 2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def program_environment() -> None:
    """Knobs for this process and every command it starts."""
    source = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = f"{source}{os.pathsep}{path}" if path \
        else source
    os.environ["REPRO_ENGINE"] = "fast"
    os.environ["REPRO_LOG"] = "warning"
    os.environ["REPRO_WORKERS"] = "2"
    for knob in ("REPRO_CACHE_DIR", "REPRO_SERIAL", "REPRO_CACHE_SALT"):
        os.environ.pop(knob, None)
    sys.path.insert(0, source)


def measure(workload, seconds: float, trace: bool):
    """Passes until another one would end past ``seconds`` (host time).

    At least ``MIN_PASSES``; with ``trace`` the passes alternate
    untraced and traced, starting untraced. Returns
    ``(untraced, traced)``.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        take_traced = trace and len(traced) < len(untraced)
        pass_start = time.perf_counter()
        result = workload.traced_pass() if take_traced \
            else workload.run_pass()
        (traced if take_traced else untraced).append(result)
        now = time.perf_counter()
        if len(untraced) + len(traced) >= MIN_PASSES \
                and now - start + (now - pass_start) > seconds:
            return untraced, traced


def count_failures(passes) -> int:
    """Failed operations: each pass's own failures, or all its
    operations when its results digest or work ledger differs from the
    first pass's."""
    first = passes[0]
    failed = 0
    for result in passes:
        drifted = ledger_drift([first.ledger, result.ledger])
        digest_differs = result.digest and first.digest \
            and result.digest != first.digest
        if drifted or digest_differs:
            print(f"campaign_bench: pass drifted from the first: "
                  f"{drifted or 'results digest'}", file=sys.stderr)
            failed += result.ops
        else:
            failed += result.failed
    return failed


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"campaign_bench: no program under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    program_environment()
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"campaign_bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # a terminated run still stops the daemon and the speed samplers
    # (``with`` and ``finally`` below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    setup_s = []
    workload_cls = WORKLOADS[args.workload]
    with SpeedClock(workload_cls.PER_CORE_SPEED, WORK / "speed") as clock:
        workload = workload_cls(
            Context(root=ROOT, work=WORK, seed=args.seed, clock=clock))
        try:
            for rep in range(1 if args.trace else workload.SETUP_REPS):
                start = time.perf_counter()
                workload.setup(rep)
                setup_s.append(clock.seconds(start, time.perf_counter()))
            untraced, traced = measure(workload, args.seconds,
                                       bool(args.trace))
        finally:
            workload.teardown()
    passes = untraced + traced
    attempted = sum(result.ops for result in passes)
    failed = count_failures(passes)

    if args.trace:
        produced = workload.layer_metrics(untraced, traced)
        for name in traced[0].layers:
            produced[name] = statistics.median(
                result.layers[name] for result in traced)
        produced["obs.trace_overhead_pct"] = overhead_pct(
            [result.wall_s for result in traced],
            [result.wall_s for result in untraced])
        produced["host.spin_us"] = clock.mean_spin_s() * 1e6
        wanted = spec["per_layer"]
    else:
        walls = [result.wall_s for result in untraced]
        produced = {
            "wall_s": statistics.median(walls),
            "ops_per_s": sum(result.ops for result in untraced)
            / sum(walls),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        wanted = spec["end_to_end"]
    metrics = {metric["name"]: {"value": float(produced.get(
                   metric["name"], 0.0)), "unit": metric["unit"]}
               for metric in wanted}
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
