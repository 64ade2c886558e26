"""Evaluation campaign runner (artifact §11.5 parity).

The paper's artifact workflow is: generate configurations
(``make_ini.py``), generate the run commands (``scripts/prac/run.py``),
execute them, then aggregate per-run stats into CSVs
(``scripts/prac/stats.py``). This tool is the equivalent:

* ``plan``  — write one INI per (workload, design, T_RH) evaluation
  point into a campaign directory,
* ``run``   — execute every INI in the directory, appending one CSV row
  per run (weighted-speedup slowdown, RBHR, ALERTs, energy),
* ``stats`` — aggregate the CSV into a per-configuration summary table,
* ``verify`` — replay each planned point's traced DDR5 command stream
  through the independent conformance oracle (:mod:`repro.check`),
* ``compare-mitigations`` — run every registered mitigation through the
  differential harness on one seeded adversarial stream and print the
  §9.2-style cross-mitigation table (security verdict, service
  activity, drift, harness slowdown vs an unprotected baseline).

``run`` executes through the :mod:`repro.exec.engine`: evaluation
points (and their baselines) fan out across worker processes, results
persist in the on-disk cache (``--cache-dir`` / ``REPRO_CACHE_DIR``),
and re-running a campaign only simulates what is not cached yet.
``--workers 1`` runs every point inline (identical numbers); a crashed
worker is replaced and its point retried, and the first point that
fails stops the run with its name.

Against a running :mod:`repro.serve` daemon the same campaign executes
remotely — concurrent campaigns share one worker pool and deduplicate
overlapping points (see ``docs/serving.md``):

* ``submit`` — send every unique planned point (designs that share a
  baseline send it once) as one job; the job id is remembered in
  ``<dir>/job.json``,
* ``status`` — poll the job,
* ``fetch``  — wait for completion and write the same ``results.csv``
  the local ``run`` would have produced (bit-identical numbers).

Example::

    python -m repro.tools.campaign plan  --dir camp --workloads add mcf
    python -m repro.tools.campaign run   --dir camp --workers 8
    python -m repro.tools.campaign stats --dir camp

    python -m repro.tools.campaign submit --dir camp --server unix:/tmp/s.sock
    python -m repro.tools.campaign fetch  --dir camp
    python -m repro.tools.campaign stats  --dir camp
"""

from __future__ import annotations

import argparse
import csv
import json
import pathlib
from dataclasses import replace

from ..config_io import load_design_point, save_design_point
from ..dram.energy import energy_overhead_of
from ..exec.cache import CACHE_DIR_ENV
from ..exec.engine import PointOutcome, SweepEngine
from ..exec.env import set_knob
from ..exec.serialize import result_row
from ..obs.log import configure, get_logger
from ..sim.runner import DesignPoint, weighted_speedup_of

log = get_logger("repro.tools.campaign")

DEFAULT_DESIGNS = ("prac", "mopac-c", "mopac-d")
DEFAULT_TRHS = (1000, 500, 250)
CSV_FIELDS = ("name", "workload", "design", "trh", "slowdown",
              "weighted_speedup", "rbhr", "alerts", "energy_overhead",
              "elapsed_us", "requests")


def plan(directory: pathlib.Path, workloads, designs, trhs,
         instructions: int) -> list[pathlib.Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for workload in workloads:
        for design in designs:
            for trh in trhs:
                point = DesignPoint(workload=workload, design=design,
                                    trh=trh, instructions=instructions)
                name = f"{workload}.{design}.t{trh}.ini"
                path = directory / name
                save_design_point(point, str(path))
                paths.append(path)
    return paths


def planned_points(directory: pathlib.Path
                   ) -> tuple[list[pathlib.Path], list[DesignPoint],
                              list[DesignPoint]]:
    """The campaign's INIs, their points, and the flat point+baseline
    list in execution order."""
    ini_paths = sorted(directory.glob("*.ini"))
    if not ini_paths:
        raise FileNotFoundError(f"no .ini files in {directory}")
    points = [load_design_point(str(path)) for path in ini_paths]
    flat: list[DesignPoint] = []
    for point in points:
        flat.append(point)
        flat.append(point.baseline())
    return ini_paths, points, flat


def write_results_csv(csv_path: pathlib.Path,
                      ini_paths: list[pathlib.Path],
                      points: list[DesignPoint],
                      rows: list[dict]) -> pathlib.Path:
    """Render one CSV row per evaluation from the flat row list.

    ``rows`` holds one :func:`~repro.exec.serialize.result_row`
    document per point and interleaves evaluation and baseline rows,
    exactly as :func:`planned_points` interleaves the flat point list.
    The local ``run`` and the remote ``fetch`` both funnel through here,
    which is what keeps their CSVs byte-identical.
    """
    with open(csv_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for path, point, row, base in zip(
                ini_paths, points, rows[0::2], rows[1::2]):
            ws = weighted_speedup_of(row["ipcs"], base["ipcs"])
            energy = energy_overhead_of(row["energy_mj"],
                                        row["instructions"],
                                        base["energy_mj"],
                                        base["instructions"])
            writer.writerow({
                "name": path.stem,
                "workload": point.workload,
                "design": point.design,
                "trh": point.trh,
                "slowdown": f"{1 - ws:.6f}",
                "weighted_speedup": f"{ws:.6f}",
                "rbhr": f"{row['rbhr']:.4f}",
                "alerts": row["alerts"],
                "energy_overhead": f"{energy:.6f}",
                "elapsed_us": f"{row['elapsed_ps'] / 1e6:.2f}",
                "requests": row["requests"],
            })
    return csv_path


def run(directory: pathlib.Path, workers: int | None = None,
        verbose: bool = True) -> pathlib.Path:
    csv_path = directory / "results.csv"
    ini_paths, points, flat = planned_points(directory)

    total = len(set(flat))

    def progress(outcome: PointOutcome) -> None:
        point = outcome.point
        log.info("[%3d/%d] %s.%s.t%d (%s, %.1fs)",
                 outcome.index + 1, total, point.workload, point.design,
                 point.trh, outcome.source, outcome.wall_s)

    engine = SweepEngine(workers=workers,
                         progress=progress if verbose else None)
    rows = [result_row(result) for result in engine.run(flat)]
    log.info("%s", engine.metrics.summary())
    return write_results_csv(csv_path, ini_paths, points, rows)


# ----------------------------------------------------------------------
# Remote execution through a repro.serve daemon
# ----------------------------------------------------------------------
def _job_file(directory: pathlib.Path) -> pathlib.Path:
    return directory / "job.json"


def _load_job(directory: pathlib.Path,
              server: str | None) -> tuple[str, str]:
    """The campaign's submitted ``(job_id, server_address)``."""
    path = _job_file(directory)
    if not path.exists():
        raise FileNotFoundError(
            f"{path} missing; run `campaign submit` first")
    record = json.loads(path.read_text())
    return record["id"], server or record["server"]


def submit(directory: pathlib.Path, server: str,
           priority: int = 0) -> str:
    """Submit the planned campaign's unique points as one job;
    remembers the id."""
    from ..serve.client import ServeClient
    _, _, flat = planned_points(directory)
    unique = list(dict.fromkeys(flat))
    job_id = ServeClient(server).submit(unique, priority=priority)
    _job_file(directory).write_text(json.dumps(
        {"id": job_id, "server": server}) + "\n")
    log.info("submitted %d points (%d planned) as %s to %s",
             len(unique), len(flat), job_id, server)
    return job_id


def status(directory: pathlib.Path, server: str | None = None) -> dict:
    from ..serve.client import ServeClient
    job_id, address = _load_job(directory, server)
    return ServeClient(address).status(job_id)


def fetch(directory: pathlib.Path, server: str | None = None,
          wait_s: float = 600.0) -> pathlib.Path:
    """Wait for the submitted job and write ``results.csv``."""
    from ..serve.client import ServeClient
    job_id, address = _load_job(directory, server)
    ini_paths, points, flat = planned_points(directory)
    client = ServeClient(address)
    document = client.wait(job_id, timeout_s=wait_s,
                           tolerate_disconnects=True)
    if document["state"] != "done":
        raise RuntimeError(f"{job_id} ended {document['state']}: "
                           f"{document['error']}")
    rows = client.result(job_id)
    unique = list(dict.fromkeys(flat))
    if len(rows) != len(unique):
        raise RuntimeError(
            f"{job_id} returned {len(rows)} results for "
            f"{len(unique)} submitted points; was the campaign "
            f"re-planned after submit?")
    # equal points share a cache key, so this is the key-wise fan-out
    resolved = dict(zip(unique, rows))
    return write_results_csv(directory / "results.csv", ini_paths,
                             points, [resolved[point] for point in flat])


def verify(directory: pathlib.Path, limit: int | None = None) -> int:
    """Replay every planned point through the conformance oracle.

    Re-runs each INI's design point with tracing enabled and checks the
    captured DDR5 command stream against :mod:`repro.check.oracle`.
    Returns the number of failing points.
    """
    from ..check.driver import verify_point
    ini_paths = sorted(directory.glob("*.ini"))
    if not ini_paths:
        raise FileNotFoundError(f"no .ini files in {directory}")
    points = [load_design_point(str(path)) for path in ini_paths]
    if limit is not None:
        points = points[:limit]
    failures = 0
    for index, point in enumerate(points):
        verdict = verify_point(point)
        print(f"[{index + 1}/{len(points)}] {verdict.describe()}")
        if not verdict.ok:
            failures += 1
    return failures


def compare_mitigations(trh: int = 500, activations: int = 60_000,
                        banks: int = 4, rows: int = 512,
                        refresh_groups: int = 64, seed: int = 0xD1FF,
                        designs: tuple[str, ...] | None = None,
                        csv_path: pathlib.Path | None = None
                        ) -> tuple[str, bool]:
    """Cross-mitigation comparison table (paper §9.2) from one command.

    Runs every registered post-PRAC design (or ``designs``) through the
    differential harness on one seeded adversarial stream, plus the
    unprotected ``baseline`` (its spec is not secure, so its ledger is
    recorded, not failed) for the slowdown column, and renders one row
    per compared design: contract class, timing family, the threshold
    the security ledger held it to, the ledger verdict, service
    activity, telemetry drift, and harness slowdown. Returns
    ``(table, ok)``.
    """
    from ..check.differential import run_differential
    from ..mitigations import registry

    compared = tuple(designs) if designs else registry.names()
    report = run_differential(trh=trh, activations=activations,
                              banks=banks, rows=rows,
                              refresh_groups=refresh_groups, seed=seed,
                              designs=compared + ("baseline",))
    *outcomes, baseline = report.outcomes
    base_ps = baseline.elapsed_ps

    fields = ("design", "class", "timing", "eff_trh", "secure",
              "max_count", "alerts", "mitigations", "cu_per_act",
              "drift_max", "slowdown")
    table_rows = []
    for o in outcomes:
        if o.attack_succeeded:
            verdict = "BROKEN" if o.expected_secure else "broken*"
        else:
            verdict = "yes"
        table_rows.append({
            "design": o.design,
            "class": "exact" if o.exact
                     else ("sampled" if o.counter_updates else "tracker"),
            "timing": o.timing,
            "eff_trh": o.effective_trh,
            "secure": verdict,
            "max_count": o.max_count,
            "alerts": o.alerts,
            "mitigations": o.mitigations,
            "cu_per_act": (f"{o.counter_updates / o.total_activations:.3f}"
                           if o.total_activations else "0"),
            "drift_max": o.drift_max,
            "slowdown": (f"{o.elapsed_ps / base_ps - 1:+.1%}"
                         if base_ps else "n/a"),
        })

    if csv_path is not None:
        with open(csv_path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            writer.writerows(table_rows)

    widths = {f: max(len(f), *(len(str(r[f])) for r in table_rows))
              for f in fields}
    lines = [f"cross-mitigation comparison: trh={trh} "
             f"acts={activations} banks={banks} rows={rows} "
             f"seed={hex(seed)}",
             "  ".join(f"{f:>{widths[f]}s}" for f in fields)]
    lines.extend("  ".join(f"{str(r[f]):>{widths[f]}s}" for f in fields)
                 for r in table_rows)
    if any(r["secure"] == "broken*" for r in table_rows):
        lines.append("broken*: registered as a known-broken strawman "
                     "(expected)")
    if not report.ok:
        lines.append(f"{len(report.failures)} invariant FAILURE(S):")
        lines.extend(f"  {f}" for f in report.failures)
    return "\n".join(lines) + "\n", report.ok


def stats(directory: pathlib.Path) -> str:
    csv_path = directory / "results.csv"
    if not csv_path.exists():
        raise FileNotFoundError(f"{csv_path} missing; run the campaign")
    groups: dict[tuple[str, int], list[float]] = {}
    with open(csv_path, newline="") as handle:
        for row in csv.DictReader(handle):
            key = (row["design"], int(row["trh"]))
            groups.setdefault(key, []).append(float(row["slowdown"]))
    lines = [f"{'design':>10s} {'T_RH':>6s} {'runs':>5s} "
             f"{'avg slowdown':>13s} {'worst':>8s}"]
    for (design, trh), values in sorted(groups.items()):
        lines.append(f"{design:>10s} {trh:>6d} {len(values):>5d} "
                     f"{sum(values) / len(values):>13.1%} "
                     f"{max(values):>8.1%}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.campaign",
        description="Plan, run, and aggregate an evaluation campaign.")
    parser.add_argument("command",
                        choices=("plan", "run", "stats", "verify",
                                 "submit", "status", "fetch",
                                 "compare-mitigations"))
    parser.add_argument("--dir", default="campaign",
                        help="campaign directory")
    parser.add_argument("--workloads", nargs="*",
                        default=["add", "mcf", "xalancbmk"])
    parser.add_argument("--designs", nargs="*", default=None,
                        help="plan: designs to sweep (default "
                             f"{' '.join(DEFAULT_DESIGNS)}); "
                             "compare-mitigations: designs to compare "
                             "(default: every registered mitigation)")
    parser.add_argument("--trhs", nargs="*", type=int,
                        default=list(DEFAULT_TRHS))
    parser.add_argument("--trh", type=int, default=500,
                        help="compare-mitigations: Rowhammer threshold")
    parser.add_argument("--activations", type=int, default=60_000,
                        help="compare-mitigations: adversarial stream "
                             "length")
    parser.add_argument("--seed", type=lambda s: int(s, 0),
                        default=0xD1FF,
                        help="compare-mitigations: stream master seed")
    parser.add_argument("--csv", default=None,
                        help="compare-mitigations: also write the table "
                             "as CSV to this path")
    parser.add_argument("--instructions", type=int, default=60_000)
    parser.add_argument("--workers", type=int, default=None,
                        help="simulation worker processes; 1 runs "
                             "points inline (default: REPRO_WORKERS or "
                             "cpu count)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk result cache directory "
                             "(default: REPRO_CACHE_DIR)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging (same as "
                             "REPRO_LOG=warning)")
    parser.add_argument("--limit", type=int, default=None,
                        help="verify: only check the first N points")
    parser.add_argument("--server", default=None,
                        help="repro.serve address (unix:/path.sock or "
                             "host:port) for submit/status/fetch")
    parser.add_argument("--priority", type=int, default=0,
                        help="submit: job priority (higher runs first)")
    parser.add_argument("--wait-s", type=float, default=600.0,
                        help="fetch: how long to wait for the job")
    args = parser.parse_args(argv)
    configure("warning" if args.quiet else None)
    directory = pathlib.Path(args.dir)
    if args.cache_dir:
        set_knob(CACHE_DIR_ENV, args.cache_dir)

    if args.command == "compare-mitigations":
        try:
            table, ok = compare_mitigations(
                trh=args.trh, activations=args.activations, seed=args.seed,
                designs=tuple(args.designs) if args.designs else None,
                csv_path=pathlib.Path(args.csv) if args.csv else None)
        except ValueError as error:
            parser.error(str(error))
        print(table, end="")
        return 0 if ok else 1
    if args.command == "plan":
        paths = plan(directory, args.workloads,
                     args.designs or list(DEFAULT_DESIGNS), args.trhs,
                     args.instructions)
        log.info("planned %d evaluations in %s/", len(paths), directory)
        return 0
    if args.command == "run":
        csv_path = run(directory, workers=args.workers,
                       verbose=not args.quiet)
        log.info("wrote %s", csv_path)
        return 0
    if args.command == "verify":
        try:
            failures = verify(directory, limit=args.limit)
        except FileNotFoundError as error:
            log.error("%s", error)
            return 2
        return 1 if failures else 0
    if args.command == "submit":
        if not args.server:
            parser.error("submit requires --server")
        try:
            print(submit(directory, args.server,
                         priority=args.priority))
        except FileNotFoundError as error:
            log.error("%s", error)
            return 2
        return 0
    if args.command == "status":
        try:
            document = status(directory, server=args.server)
        except FileNotFoundError as error:
            log.error("%s", error)
            return 2
        for key in sorted(document):
            print(f"{key}={document[key]}")
        return 0
    if args.command == "fetch":
        try:
            csv_path = fetch(directory, server=args.server,
                             wait_s=args.wait_s)
        except (FileNotFoundError, RuntimeError, TimeoutError) as error:
            log.error("%s", error)
            return 2
        log.info("wrote %s", csv_path)
        return 0
    try:
        print(stats(directory), end="")
    except FileNotFoundError as error:
        log.error("%s", error)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
