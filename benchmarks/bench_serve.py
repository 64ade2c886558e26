"""Warm-serve before/after: a daemon serving the Fig. 9 grid from cache.

Plans the full Fig. 9 grid (every catalog workload x prac/mopac-c/
mopac-d x T_RH 1000/500/250 at 2k instructions: 276 unique points),
fills a result cache with ``campaign run`` (this tree's ``results.csv``
is the reference), then measures ``campaign submit`` + ``campaign
fetch`` rounds against a ``repro.serve`` daemon on that cache. With
``--parent`` the same rounds run against a second source tree (a
checkout of the parent commit) in alternating order, so both trees meet
the same host state; daemon, client and cache of a side all come from
that side's tree (each side fills its own cache, since the two may key
or lay out entries differently).

Per side it records:

* ``pass_wall_s``: wall time of each pass of ``--rounds`` rounds, each
  pass on a fresh daemon, with median and IQR; ``round_wall_s`` the
  same per round;
* ``result_bytes``: the body size of one ``GET /result`` of the grid;
* ``entry_bytes``: the mean size of the side's cache entries;
* ``entry_reads_per_round``: cache entries the daemon read per round,
  its bytes read (``rchar`` in ``/proc/<pid>/io``) over the mean entry
  size; ``cache_lookups_per_round`` counts only the lookups that
  resolve points (``exec.cache`` hits + misses);
* ``vmhwm_mb``: the daemon's peak RSS (``VmHWM``) after 4 and after 12
  rounds on one fresh daemon;
* ``csv_sha256``: the digest of every round's ``results.csv`` (and of
  the side's own ``campaign run``), and whether each was byte-identical
  to the reference.

Usage::

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    PYTHONPATH=src python benchmarks/bench_serve.py --parent /tmp/parent

writes ``benchmarks/results/BENCH_serve.json``. Needs Linux (``/proc``
for ``VmHWM``); uses two pool workers, as the campaign benchmark does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "benchmarks" / "results" / "BENCH_serve.json"
WORKERS = 2
DESIGNS = ("prac", "mopac-c", "mopac-d")
TRHS = ("1000", "500", "250")
INSTRUCTIONS = "2000"


def run_tree(tree: pathlib.Path, args: list[str],
             **kwargs) -> subprocess.CompletedProcess:
    """``python <args>`` with ``tree``'s sources on the path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          **kwargs)


def vmhwm_mb(pid: int) -> float:
    """Peak resident set size of process ``pid`` (``VmHWM``), in MB."""
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "iqr": round(q3 - q1, 4)}


# ----------------------------------------------------------------------
# Child mode: rounds driven with one tree's client code
# ----------------------------------------------------------------------
def read_bytes(pid: int) -> int:
    """Bytes process ``pid`` has read (``rchar``)."""
    for line in pathlib.Path(f"/proc/{pid}/io").read_text().splitlines():
        if line.startswith("rchar:"):
            return int(line.split()[1])
    raise RuntimeError(f"no rchar for pid {pid}")


def drive(plan_dir: pathlib.Path, address: str, rounds: int,
          pid: int) -> dict:
    """``rounds`` submit+fetch rounds against the daemon ``pid``;
    per-round wall, digest and reads."""
    from repro.serve.client import ServeClient
    from repro.tools import campaign

    client = ServeClient(address)

    def lookups() -> int:
        stats = client.stats()
        return stats["exec.cache.hits"] + stats["exec.cache.misses"]

    walls, digests = [], []
    before, read_before = lookups(), read_bytes(pid)
    for _ in range(rounds):
        start = time.perf_counter()
        campaign.submit(plan_dir, address)
        csv_path = campaign.fetch(plan_dir, wait_s=120)
        walls.append(time.perf_counter() - start)
        digests.append(hashlib.sha256(csv_path.read_bytes()).hexdigest())
    read = read_bytes(pid) - read_before
    job_id = json.loads((plan_dir / "job.json").read_text())["id"]
    _, _, raw = client.request_raw("GET", f"/result?id={job_id}")
    return {"round_wall_s": walls, "csv_sha256": digests,
            "lookups": (lookups() - before) / rounds,
            "read_bytes": read / rounds, "result_bytes": len(raw)}


# ----------------------------------------------------------------------
# Parent mode
# ----------------------------------------------------------------------
class Side:
    """One source tree: starts its daemon, drives its client."""

    def __init__(self, name: str, tree: pathlib.Path,
                 work: pathlib.Path):
        self.name, self.tree, self.work = name, tree, work
        self.cache_dir = work / f"cache-{name}"
        self.starts = 0
        self.daemon: subprocess.Popen | None = None

    def fill(self, plan_dir: pathlib.Path) -> tuple[str, float]:
        """``campaign run`` into this side's cache: the ``results.csv``
        digest and the mean entry size."""
        run_tree(self.tree, ["-m", "repro.tools.campaign", "run", "--dir",
                             str(plan_dir), "--cache-dir",
                             str(self.cache_dir), "--workers",
                             str(WORKERS), "--quiet"])
        entries = list(self.cache_dir.glob("*/*.json"))
        return (hashlib.sha256(
                    (plan_dir / "results.csv").read_bytes()).hexdigest(),
                statistics.fmean(p.stat().st_size for p in entries))

    def start(self) -> None:
        self.starts += 1
        tag = f"{self.name[0]}{self.starts}"
        self.address = f"unix:{self.work / (tag + '.sock')}"
        env = dict(os.environ, PYTHONPATH=str(self.tree / "src"))
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--state-dir", str(self.work / f"state-{tag}"),
             "--address", self.address, "--workers", str(WORKERS),
             "--cache-dir", str(self.cache_dir), "--quiet"],
            env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        run_tree(self.tree, ["-c", "import sys; from repro.serve.client "
                             "import ServeClient; ServeClient(sys.argv[1])"
                             ".wait_ready(timeout_s=60)", self.address])

    def rounds(self, plan_dir: pathlib.Path, count: int) -> dict:
        out = run_tree(self.tree, [__file__, "--drive", str(plan_dir),
                                   self.address, str(count),
                                   str(self.daemon.pid)],
                       capture_output=True, text=True)
        return json.loads(out.stdout.splitlines()[-1])

    def stop(self) -> None:
        if self.daemon is None:
            return
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.daemon.pid, signal.SIGKILL)
            self.daemon.wait()
        self.daemon = None


def measure(sides: list[Side], plan_dir: pathlib.Path, pairs: int,
            rounds: int) -> tuple[dict, str]:
    records = {}
    for side in sides:
        digest, entry_bytes = side.fill(plan_dir)
        records[side.name] = {
            "pass_wall_s": [], "round_wall_s": [], "csv_sha256": {digest},
            "entry_bytes": entry_bytes}
    # this tree's campaign run (the change side is listed last)
    (reference,) = records[sides[-1].name]["csv_sha256"]
    for record in records.values():
        record["csv_identical"] = record["csv_sha256"] == {reference}
    for pair in range(pairs):
        order = sides if pair % 2 == 0 else sides[::-1]
        for side in order:
            side.start()
            try:
                run = side.rounds(plan_dir, rounds)
            finally:
                side.stop()
            record = records[side.name]
            record["pass_wall_s"].append(sum(run["round_wall_s"]))
            record["round_wall_s"].extend(run["round_wall_s"])
            record["csv_sha256"].update(run["csv_sha256"])
            record["csv_identical"] &= all(
                digest == reference for digest in run["csv_sha256"])
            for key in ("result_bytes", "lookups", "read_bytes"):
                record[key] = run[key]
            print(f"pair {pair}: {side.name:6s} "
                  f"{sum(run['round_wall_s']):.3f}s for {rounds} rounds",
                  flush=True)

    for side in sides:
        record = records[side.name]
        side.start()
        try:
            record["vmhwm_mb"] = {}
            done = 0
            for mark in (4, 12):
                run = side.rounds(plan_dir, mark - done)
                done = mark
                record["vmhwm_mb"][str(mark)] = round(
                    vmhwm_mb(side.daemon.pid), 1)
                record["csv_identical"] &= all(
                    digest == reference for digest in run["csv_sha256"])
        finally:
            side.stop()
        print(f"{side.name}: VmHWM {record['vmhwm_mb']} MB", flush=True)
    return records, reference


def summarise(records: dict) -> dict:
    out = {}
    for name, record in records.items():
        out[name] = {
            "pass_wall_s": [round(s, 4) for s in record["pass_wall_s"]],
            "pass_wall": quartiles(record["pass_wall_s"]),
            "round_wall": quartiles(record["round_wall_s"]),
            "result_bytes": record["result_bytes"],
            "entry_bytes": round(record["entry_bytes"]),
            "entry_reads_per_round": round(
                record["read_bytes"] / record["entry_bytes"], 1),
            "cache_lookups_per_round": record["lookups"],
            "vmhwm_mb": record["vmhwm_mb"],
            "csv_sha256": sorted(record["csv_sha256"]),
            "csv_identical": record["csv_identical"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=pathlib.Path, default=None,
                        help="source tree to compare against (a checkout "
                             "of the parent commit)")
    parser.add_argument("--pairs", type=int, default=6,
                        help="alternating parent/change passes")
    parser.add_argument("--rounds", type=int, default=4,
                        help="submit+fetch rounds per pass")
    parser.add_argument("--output", type=pathlib.Path, default=OUTPUT)
    parser.add_argument("--drive", nargs=4, default=None,
                        metavar=("PLAN_DIR", "ADDRESS", "ROUNDS", "PID"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.drive:
        plan_dir, address, rounds, pid = args.drive
        print(json.dumps(drive(pathlib.Path(plan_dir), address,
                               int(rounds), int(pid))))
        return 0

    from repro.tools import campaign
    from repro.workloads.catalog import ALL_WORKLOADS

    # short paths: a unix socket path must fit in 108 bytes
    with tempfile.TemporaryDirectory(prefix="bsrv") as tmp:
        work = pathlib.Path(tmp)
        plan_dir = work / "plan"
        campaign.main(["plan", "--dir", str(plan_dir), "--workloads",
                       *ALL_WORKLOADS, "--designs", *DESIGNS,
                       "--trhs", *TRHS, "--instructions", INSTRUCTIONS,
                       "--quiet"])
        _, _, flat = campaign.planned_points(plan_dir)
        points = len(set(flat))

        sides = [Side("change", ROOT, work)]
        if args.parent is not None:
            sides.insert(0, Side("parent", args.parent.resolve(), work))
        try:
            records, reference = measure(sides, plan_dir, args.pairs,
                                         args.rounds)
        finally:
            for side in sides:
                side.stop()

    report = {
        "what": f"warm serve of the Fig. 9 grid ({points} unique points, "
                f"{INSTRUCTIONS} instructions) from a cache filled by "
                f"`campaign run`: {args.pairs} alternating passes of "
                f"{args.rounds} `campaign submit` + `fetch` rounds per "
                f"side, each pass on a fresh daemon (--workers "
                f"{WORKERS}); VmHWM from one further daemon per side",
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "points": points,
        "reference_csv_sha256": reference,
        "sides": summarise(records),
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
