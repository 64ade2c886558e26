"""The benchmark's three workloads, each driven through the public
entry points of ``repro.tools.campaign``.

Every workload offers ``setup(rep)`` (one complete set-up; the runner
repeats it ``SETUP_REPS`` times and reports the median), ``run_pass()``
(one measured pass, no probes installed), ``traced_pass()`` (the same
work with the per-layer probes of :mod:`probe` installed),
``layer_metrics()`` (per-layer numbers not taken from one traced pass)
and ``teardown()``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

from ledger import (
    broken_secure_designs, bad_campaign_rows, cu_per_act, derive_seed,
    digest, dispatch_s, histogram_delta_mean, mitigation_ledger,
    policy_ns_per_act, poll_wait_share, pool_efficiency, read_rows,
    work_counts)
from probe import Probe, Sink
from speed import SpeedClock

from repro.config_io import load_design_point, save_design_point
from repro.exec.cache import ResultCache
from repro.exec.engine import SweepEngine
from repro.exec.serialize import result_from_dict, result_to_dict
from repro.serve.client import ServeClient
from repro.sim import runner
from repro.tools import campaign
from repro.workloads.catalog import ALL_WORKLOADS

#: Pool size everywhere: the benchmark machine has two cores.
WORKERS = 2
#: The designs the paper's slowdown figures sweep.
DESIGNS = ("prac", "mopac-c", "mopac-d")


@dataclasses.dataclass
class Context:
    root: pathlib.Path  #: checkout root (the working directory)
    work: pathlib.Path  #: scratch directory, inside the checkout
    seed: int  #: the benchmark's ``--seed``
    clock: SpeedClock  #: converts pass times to reference seconds


@dataclasses.dataclass
class Pass:
    #: reference seconds (:mod:`speed`) from the first call to the
    #: results file
    wall_s: float
    host_s: float  #: the same span in host seconds
    ops: int  #: operations resolved
    failed: int  #: operations failing a correctness check in this pass
    digest: str  #: sha256 of the results file the pass wrote
    ledger: dict  #: deterministic work counts; must repeat across passes
    work: float = 0.0  #: simulated instructions or activations driven
    layers: dict = dataclasses.field(default_factory=dict)  #: traced only


def _timed(call, *args, **kwargs):
    start = time.perf_counter()
    value = call(*args, **kwargs)
    return value, time.perf_counter() - start


def _reference_timed(clock: SpeedClock, call, *args, **kwargs):
    """``call``'s value and its time in reference and in host seconds."""
    start = time.perf_counter()
    value = call(*args, **kwargs)
    end = time.perf_counter()
    return value, clock.seconds(start, end), end - start


def run_cli(*args: str) -> None:
    """``python -m repro.tools.campaign <args> --quiet``; raises on error."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.tools.campaign", *args, "--quiet"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=150)
    if done.returncode:
        raise RuntimeError(f"campaign {args[0]} exited {done.returncode}: "
                           f"{done.stderr[-2000:]}")


def plan(directory: pathlib.Path, workloads, trhs, instructions: int,
         seed: int) -> list:
    """``campaign plan`` through its CLI, then give every INI the
    benchmark's input seed; returns the unique points of the campaign."""
    run_cli("plan", "--dir", str(directory), "--workloads", *workloads,
            "--designs", *DESIGNS, "--trhs", *map(str, trhs),
            "--instructions", str(instructions))
    for path in sorted(directory.glob("*.ini")):
        point = load_design_point(str(path))
        save_design_point(dataclasses.replace(point, seed=seed), str(path))
    _, _, flat = campaign.planned_points(directory)
    return list(dict.fromkeys(flat))


def cache_layers(cache_dir: pathlib.Path, points, scratch: pathlib.Path
                 ) -> dict:
    """Per-entry cost of the cache and serialization layers, measured on
    the entries a workload resolves: a hit ``get``, a ``put`` into an
    empty cache, and the JSON encode/decode of one result document."""
    cache = ResultCache(cache_dir)
    target = ResultCache(scratch)
    get_s = put_s = encode_s = decode_s = 0.0
    sizes = []
    for point in points:
        result, seconds = _timed(cache.get, point)
        if result is None:
            raise RuntimeError(f"cache miss for {point}")
        get_s += seconds
        raw = cache.path_for(point).read_bytes()
        sizes.append(len(raw))
        _, seconds = _timed(lambda: result_from_dict(json.loads(raw)))
        decode_s += seconds
        _, seconds = _timed(lambda: json.dumps(result_to_dict(result)))
        encode_s += seconds
        _, seconds = _timed(target.put, point, result)
        put_s += seconds
    count = len(points)
    return {
        "exec.cache.get_ms": get_s / count * 1e3,
        "exec.cache.put_ms": put_s / count * 1e3,
        "exec.serialize.encode_ms": encode_s / count * 1e3,
        "exec.serialize.decode_ms": decode_s / count * 1e3,
        "exec.cache.entry_bytes": statistics.fmean(sizes),
    }


def plan_ms(ctx: Context, workloads, trhs, instructions: int) -> float:
    """Host ms of one in-process ``campaign.plan`` call."""
    directory = ctx.work / "plan-probe"
    _, seconds = _timed(campaign.plan, directory, list(workloads),
                        list(DESIGNS), list(trhs), instructions)
    return seconds * 1e3


# ----------------------------------------------------------------------
class ColdCampaign:
    """Fig. 9/11 campaign simulated from empty caches on every pass."""

    name = "cold-campaign"
    #: how :class:`speed.SpeedClock` samples the host's speed:
    #: the work runs in two pool workers
    PER_CORE_SPEED = True
    WORKLOADS = ("mix1", "mix2", "mix3", "mix4", "mix5", "mix6", "add",
                 "mcf")
    TRHS = (500,)
    INSTRUCTIONS = 60_000
    SETUP_REPS = 5

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.seed = derive_seed(ctx.seed, self.name)
        self.passes = 0

    def setup(self, rep: int) -> None:
        self.plan_dir = self.ctx.work / f"plan-{rep}"
        self.unique = plan(self.plan_dir, self.WORKLOADS, self.TRHS,
                           self.INSTRUCTIONS, self.seed)
        runner.resolve_engine()  # import the engine before timing

    def run_pass(self) -> Pass:
        self.passes += 1
        self.cache_dir = self.ctx.work / f"cache-{self.passes}"
        os.environ["REPRO_CACHE_DIR"] = str(self.cache_dir)
        runner.clear_cache()
        csv_path, wall, host = _reference_timed(
            self.ctx.clock, campaign.run, self.plan_dir, workers=WORKERS,
            verbose=False)
        data = csv_path.read_bytes()
        results = [runner.memo_get(point) for point in self.unique]
        ledger = work_counts([result.stats for result in results])
        return Pass(wall_s=wall, host_s=host, ops=len(self.unique),
                    failed=len(bad_campaign_rows(read_rows(data))),
                    digest=digest(data), ledger=ledger,
                    work=ledger["sim.instructions"])

    def traced_pass(self) -> Pass:
        sink = Sink(self.ctx.work / f"sink-{self.passes + 1}")
        engines: list[SweepEngine] = []

        def recording_engine(*args, **kwargs) -> SweepEngine:
            engines.append(SweepEngine(*args, **kwargs))
            return engines[-1]

        system_cls = runner.resolve_engine()
        with Probe(sink) as probe:
            probe.wrap(runner, "build_config", "sim.build_config")
            probe.wrap(runner, "build_traces", "sim.build_traces")
            probe.wrap(system_cls, "__init__", "sim.construct")
            probe.wrap(system_cls, "run", "sim.run")
            probe.wrap(campaign, "write_results_csv", "campaign.csv")
            probe.replace(campaign, "SweepEngine", recording_engine)
            result = self.run_pass()
        totals = sink.totals()
        build_s = sum(totals[name][1] for name in
                      ("sim.build_config", "sim.build_traces",
                       "sim.construct"))
        run_s = totals["sim.run"][1]
        metrics = engines[0].metrics
        ledger = result.ledger
        result.layers = {
            "sim.build_ms": build_s * 1e3,
            "sim.run_s": run_s,
            "sim.ns_per_request": run_s * 1e9 / ledger["mc.serviced"],
            "exec.engine.pool_efficiency": pool_efficiency(
                metrics.sim_wall_s, metrics.wall_s, engines[0].workers),
            "exec.engine.dispatch_s": dispatch_s(
                metrics.sim_wall_s, metrics.wall_s, engines[0].workers),
            "campaign.csv_ms": totals["campaign.csv"][1] * 1e3,
            "campaign.plan_ms": plan_ms(self.ctx, self.WORKLOADS,
                                        self.TRHS, self.INSTRUCTIONS),
        }
        tracegen_s = self._drain_traces()
        result.layers.update({
            "workloads.tracegen_ms": tracegen_s * 1e3,
            "workloads.tracegen_share": tracegen_s / run_s,
        })
        result.layers.update(cache_layers(
            self.cache_dir, self.unique,
            self.ctx.work / f"put-{self.passes}"))
        return result

    def _drain_traces(self) -> float:
        """Host seconds to draw, with ``TraceGenerator.next_block``, as
        many trace items per core as each simulated core issued."""
        total = 0.0
        for point in self.unique:
            stats = runner.memo_get(point).stats
            config = runner.build_config(point)
            for core, generator in enumerate(
                    runner.build_traces(point, config)):
                remaining = int(stats[f"core.{core}.requests"])
                start = time.perf_counter()
                while remaining > 0:
                    remaining -= len(generator.next_block(
                        min(256, remaining)))
                total += time.perf_counter() - start
        return total

    def layer_metrics(self, untraced: list[Pass], traced: list[Pass]
                      ) -> dict:
        ledger = traced[0].ledger
        out = {name: value for name, value in ledger.items()
               if name.startswith(("mc.", "mitigation.", "workloads."))
               and name not in ("mc.read_serviced", "mc.read_latency_ps")}
        out["sim.simulated_ps"] = ledger["sim.simulated_ps"]
        out["sim.fastforward_ps"] = ledger["sim.fastforward_ps"]
        out["mc.read_latency_ns"] = (ledger["mc.read_latency_ps"] / 1e3
                                     / ledger["mc.read_serviced"])
        out["sim_minstr_per_s"] = (sum(p.work for p in untraced) / 1e6
                                   / sum(p.wall_s for p in untraced))
        return out

    def teardown(self) -> None:
        os.environ.pop("REPRO_CACHE_DIR", None)


# ----------------------------------------------------------------------
class MitigationTable:
    """The §9.2 cross-mitigation table: no DRAM simulation, cache or
    pool; all time goes to the attack harness and the policies."""

    name = "mitigation-table"
    #: how :class:`speed.SpeedClock` samples the host's speed:
    #: the work runs in this one thread
    PER_CORE_SPEED = False
    #: ``compare_mitigations`` defaults, repeated for the traced pass
    TRH = 500
    ACTIVATIONS = 60_000
    BANKS, ROWS, REFRESH_GROUPS = 4, 512, 64
    SETUP_REPS = 5

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.seed = derive_seed(ctx.seed, self.name)
        self.csv_path = ctx.work / "mitigations.csv"

    def setup(self, rep: int) -> None:
        """Start an interpreter that imports what the table needs (the
        registry discovers every design on import)."""
        subprocess.run(
            [sys.executable, "-c",
             "import repro.tools.campaign, repro.check.differential"],
            stdin=subprocess.DEVNULL, check=True, timeout=60)
        from repro.check import differential  # noqa: F401  (warm import)

    def run_pass(self) -> Pass:
        (_, ok), wall, host = _reference_timed(
            self.ctx.clock, campaign.compare_mitigations, seed=self.seed,
            csv_path=self.csv_path)
        data = self.csv_path.read_bytes()
        rows = read_rows(data)
        failed = len(rows) if not ok else len(broken_secure_designs(rows))
        return Pass(wall_s=wall, host_s=host, ops=len(rows), failed=failed,
                    digest=digest(data), ledger=mitigation_ledger(rows),
                    work=(len(rows) + 1) * self.ACTIVATIONS)

    def traced_pass(self) -> Pass:
        """The table's work, one public call at a time: the target
        stream, the unprotected harness floor, then one
        ``run_differential`` per registered design."""
        from repro.attacks.harness import AttackHarness
        from repro.check.differential import make_targets, run_differential
        from repro.mitigations import registry
        from repro.mitigations.prac import BaselinePolicy

        start = time.perf_counter()
        targets, targets_s = _timed(make_targets, self.seed, self.BANKS,
                                    self.ROWS, self.ACTIVATIONS)
        harness = AttackHarness(BaselinePolicy(), self.TRH, self.BANKS,
                                self.ROWS, self.REFRESH_GROUPS)
        _, floor_s = _timed(harness.run, iter(targets), self.ACTIVATIONS)
        rows, design_s, failed = [], {}, 0
        for design in registry.names():
            report, design_s[design] = _timed(
                run_differential, trh=self.TRH,
                activations=self.ACTIVATIONS, banks=self.BANKS,
                rows=self.ROWS, refresh_groups=self.REFRESH_GROUPS,
                seed=self.seed, designs=(design,))
            outcome = report.outcomes[0]
            failed += not report.ok
            rows.append({
                "design": design, "alerts": outcome.alerts,
                "mitigations": outcome.mitigations,
                "max_count": outcome.max_count,
                "drift_max": outcome.drift_max,
                "cu_per_act": cu_per_act(outcome.counter_updates,
                                         outcome.total_activations),
                "counter_updates": outcome.counter_updates,
            })
        end = time.perf_counter()
        wall = self.ctx.clock.seconds(start, end)
        layers = {f"mitigations.{design}.s": seconds
                  for design, seconds in design_s.items()}
        layers.update({
            "attacks.targets_ms": targets_s * 1e3,
            "attacks.harness_floor_s": floor_s,
            "mitigations.policy_ns_per_act": policy_ns_per_act(
                list(design_s.values()), targets_s, floor_s,
                self.ACTIVATIONS),
            "mitigations.alerts": sum(row["alerts"] for row in rows),
            "mitigations.mitigations": sum(row["mitigations"]
                                           for row in rows),
            "mitigations.counter_updates": sum(row["counter_updates"]
                                               for row in rows),
        })
        ledger = mitigation_ledger(rows)
        return Pass(wall_s=wall, host_s=end - start, ops=len(rows),
                    failed=failed, digest="", ledger=ledger,
                    work=(len(rows) + 1) * self.ACTIVATIONS, layers=layers)

    def layer_metrics(self, untraced: list[Pass], traced: list[Pass]
                      ) -> dict:
        return {"acts_per_s": sum(p.work for p in untraced)
                / sum(p.wall_s for p in untraced)}

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
class WarmServe:
    """The full Fig. 9 grid served from a pre-filled cache by a
    ``repro.serve`` daemon: the read side of the cache, no simulation."""

    name = "warm-serve"
    #: how :class:`speed.SpeedClock` samples the host's speed:
    #: the work runs in the daemon and its pool
    PER_CORE_SPEED = True
    TRHS = (1000, 500, 250)
    INSTRUCTIONS = 2_000
    #: submit+fetch rounds per pass: one round takes under a second and
    #: its client wait is quantized by the poll backoff
    ROUNDS = 4
    #: each set-up simulates the grid, so fewer repetitions
    SETUP_REPS = 3

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.seed = derive_seed(ctx.seed, self.name)
        self.daemon: subprocess.Popen | None = None
        self.log = None
        self.starts = 0
        self.served = False

    def setup(self, rep: int) -> None:
        """Plan, pre-fill a fresh cache with ``campaign run`` (whose
        ``results.csv`` is the reference), start a daemon on that cache
        and wait until ``/healthz`` answers."""
        self.teardown()
        self.plan_dir = self.ctx.work / f"plan-{rep}"
        self.cache_dir = self.ctx.work / f"cache-{rep}"
        self.unique = plan(self.plan_dir, ALL_WORKLOADS, self.TRHS,
                           self.INSTRUCTIONS, self.seed)
        run_cli("run", "--dir", str(self.plan_dir), "--cache-dir",
                str(self.cache_dir), "--workers", str(WORKERS))
        self.reference = (self.plan_dir / "results.csv").read_bytes()
        self._start_daemon()

    def _start_daemon(self) -> None:
        self.starts += 1
        work = self.ctx.work
        # relative to the checkout root: unix socket paths are short
        self.address = f"unix:{os.path.relpath(work, self.ctx.root)}" \
            f"/s{self.starts}.sock"
        self.log = open(work / f"daemon-{self.starts}.log", "wb")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--state-dir", str(work / f"state-{self.starts}"),
             "--address", self.address, "--workers", str(WORKERS),
             "--cache-dir", str(self.cache_dir), "--quiet"],
            stdin=subprocess.DEVNULL, stdout=self.log,
            stderr=subprocess.STDOUT, start_new_session=True)
        ServeClient(self.address).wait_ready(timeout_s=60)
        self.served = False

    def _fresh_daemon(self) -> None:
        """Restart the daemon (untimed) if it has served a pass.

        Every pass then meets a daemon in the same state: the same job
        ids, hence the same poll jitter, and none of the memory the
        daemon keeps for every finished job.
        """
        if self.served:
            self.teardown()
            self._start_daemon()
        self.served = True

    def run_pass(self) -> Pass:
        self._fresh_daemon()
        return self._rounds()

    def _rounds(self) -> Pass:
        wall = host = 0.0
        failed = 0
        for _ in range(self.ROUNDS):
            start = time.perf_counter()
            campaign.submit(self.plan_dir, self.address)
            csv_path = campaign.fetch(self.plan_dir, wait_s=60)
            end = time.perf_counter()
            wall += self.ctx.clock.seconds(start, end)
            host += end - start
            data = csv_path.read_bytes()
            if data != self.reference:
                failed += len(self.unique)
        rows = read_rows(data)
        ledger = {"rows": len(rows),
                  "requests": sum(int(row["requests"]) for row in rows),
                  "alerts": sum(int(row["alerts"]) for row in rows)}
        return Pass(wall_s=wall, host_s=host,
                    ops=self.ROUNDS * len(self.unique),
                    failed=failed, digest=digest(data), ledger=ledger)

    def traced_pass(self) -> Pass:
        self._fresh_daemon()
        client = ServeClient(self.address)
        before = client.stats()
        sink = Sink(self.ctx.work / f"sink-{self.starts}")
        with Probe(sink) as probe:
            probe.wrap(ServeClient, "submit", "serve.submit")
            probe.wrap(ServeClient, "wait", "serve.wait")
            probe.wrap(ServeClient, "result", "serve.result")
            probe.wrap(campaign, "write_results_csv", "campaign.csv")
            result = self._rounds()
        latency_ms = histogram_delta_mean(before, client.stats(),
                                          "serve.job_latency_ms")
        calls = sink.calls()

        def mean_ms(name: str) -> float:
            return statistics.fmean(s for _, s in calls[name]) * 1e3

        # ``fetch`` re-reads the plan between submit and wait while the
        # job runs, so the client sees a job from its submit call's start
        # until its wait returns
        client_s = sum(wait_start + wait_s - submit_start
                       for (submit_start, _), (wait_start, wait_s)
                       in zip(calls["serve.submit"], calls["serve.wait"]))
        result.layers = {
            "serve.submit_ms": mean_ms("serve.submit"),
            "serve.wait_ms": mean_ms("serve.wait"),
            "serve.result_ms": mean_ms("serve.result"),
            "serve.job_latency_ms": latency_ms,
            "serve.poll_wait_share": poll_wait_share(
                client_s, latency_ms * self.ROUNDS / 1e3, result.host_s),
            "campaign.csv_ms": mean_ms("campaign.csv"),
            "campaign.plan_ms": plan_ms(self.ctx, ALL_WORKLOADS,
                                        self.TRHS, self.INSTRUCTIONS),
        }
        result.layers.update(cache_layers(
            self.cache_dir, self.unique,
            self.ctx.work / f"put-{self.starts}"))
        return result

    def layer_metrics(self, untraced: list[Pass], traced: list[Pass]
                      ) -> dict:
        return {}

    def teardown(self) -> None:
        """Stop the daemon (SIGTERM, then SIGKILL to its whole session,
        pool workers included) and wait for it."""
        if self.daemon is not None:
            if self.daemon.poll() is None:
                self.daemon.send_signal(signal.SIGTERM)
                try:
                    self.daemon.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    os.killpg(self.daemon.pid, signal.SIGKILL)
                    self.daemon.wait()
            self.daemon = None
        if self.log is not None:
            self.log.close()
            self.log = None


WORKLOADS = {cls.name: cls
             for cls in (ColdCampaign, MitigationTable, WarmServe)}
