"""Pure helpers of the campaign benchmark: digests, work-count ledgers,
correctness checks on the CSVs the campaign tool writes, and the derived
per-layer ratios.

Nothing here imports the program under test, so the helpers are tested
on their own (``python -m pytest campaign_bench/tests``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import statistics
from typing import Iterable, Mapping, Sequence

#: ``result.stats`` counters summed over every memory controller
#: (``mc.<sc>.<name>``) into the ledger's ``mc.<name>``.
MC_COUNTS = ("serviced", "activations", "row_hits", "row_conflicts",
             "refreshes", "alerts", "rfm_commands")

#: ``result.stats`` aggregates the policies already sum over sub-channels.
MITIGATION_COUNTS = ("counter_updates", "mitigations", "rfm_events",
                     "ref_drains")


def digest(data: bytes) -> str:
    """Hex sha256 of ``data`` (a results file's bytes)."""
    return hashlib.sha256(data).hexdigest()


def derive_seed(seed: int, label: str) -> int:
    """32-bit input seed for ``label`` from the benchmark's ``--seed``."""
    blob = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(blob[:4], "big")


def read_rows(data: bytes) -> list[dict[str, str]]:
    """Rows of a CSV document given as bytes."""
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _indexed(stats: Mapping[str, float], family: str, name: str
             ) -> Iterable[float]:
    """Values of ``<family>.<index>.<name>`` keys (per-unit counters)."""
    prefix = f"{family}."
    suffix = f".{name}"
    for key, value in stats.items():
        if key.startswith(prefix) and key.endswith(suffix) \
                and key[len(prefix):-len(suffix)].isdigit():
            yield value


def work_counts(stats_list: Sequence[Mapping[str, float]]) -> dict[str, int]:
    """Deterministic work-count ledger of a set of simulated points.

    Sums, over every point's ``result.stats``, the memory-controller
    counters, the mitigation aggregates, the trace items the cores
    issued, the simulated instructions and the simulated and
    fast-forwarded picoseconds.
    """
    ledger = {f"mc.{name}": 0 for name in MC_COUNTS}
    ledger.update({f"mitigation.{name}": 0 for name in MITIGATION_COUNTS})
    ledger.update({"mc.read_serviced": 0, "mc.read_latency_ps": 0,
                   "workloads.trace_items": 0, "sim.instructions": 0,
                   "sim.simulated_ps": 0, "sim.fastforward_ps": 0})
    for stats in stats_list:
        for name in MC_COUNTS + ("read_serviced", "read_latency_ps"):
            ledger[f"mc.{name}"] += int(sum(_indexed(stats, "mc", name)))
        for name in MITIGATION_COUNTS:
            ledger[f"mitigation.{name}"] += int(
                stats.get(f"mitigation.{name}", 0))
        ledger["workloads.trace_items"] += int(
            sum(_indexed(stats, "core", "requests")))
        ledger["sim.instructions"] += int(
            sum(_indexed(stats, "core", "instructions")))
        ledger["sim.simulated_ps"] += int(stats.get("sim.elapsed_ps", 0))
        ledger["sim.fastforward_ps"] += int(
            stats.get("sim.fastforward_ps", 0))
    return ledger


def ledger_drift(ledgers: Sequence[Mapping[str, object]]) -> list[str]:
    """Keys on which any ledger differs from the first one.

    A key missing from one ledger counts as drift. Sorted, so the
    report is stable.
    """
    if not ledgers:
        return []
    first = ledgers[0]
    drifted: set[str] = set()
    for other in ledgers[1:]:
        for key in set(first) | set(other):
            if key not in first or key not in other \
                    or first[key] != other[key]:
                drifted.add(key)
    return sorted(drifted)


def bad_campaign_rows(rows: Sequence[Mapping[str, str]]) -> list[str]:
    """Names of ``results.csv`` rows with no requests or a non-finite
    (or unparsable) slowdown."""
    bad = []
    for row in rows:
        try:
            ok = int(row["requests"]) > 0 \
                and math.isfinite(float(row["slowdown"]))
        except (KeyError, ValueError):
            ok = False
        if not ok:
            bad.append(row.get("name", "?"))
    return bad


def broken_secure_designs(rows: Sequence[Mapping[str, str]]) -> list[str]:
    """Designs of a ``compare-mitigations`` table whose verdict reads
    ``BROKEN``: registered as secure, yet the ledger saw a row exceed
    the threshold. Known-broken strawmen read ``broken*`` and pass."""
    return [row["design"] for row in rows if row.get("secure") == "BROKEN"]


def mitigation_ledger(rows: Sequence[Mapping[str, object]]
                      ) -> dict[str, object]:
    """Per-design work counts of a ``compare-mitigations`` table."""
    ledger: dict[str, object] = {}
    for row in rows:
        design = row["design"]
        for name in ("alerts", "mitigations", "max_count", "drift_max"):
            ledger[f"{design}.{name}"] = int(row[name])
        ledger[f"{design}.cu_per_act"] = str(row["cu_per_act"])
    return ledger


def cu_per_act(counter_updates: int, activations: int) -> str:
    """The table's ``cu_per_act`` cell, formatted as the tool does."""
    return f"{counter_updates / activations:.3f}" if activations else "0"


def pool_efficiency(sim_wall_s: float, wall_s: float, workers: int) -> float:
    """Share of the pool's worker-seconds spent simulating."""
    return sim_wall_s / (wall_s * workers) if wall_s and workers else 0.0


def dispatch_s(sim_wall_s: float, wall_s: float, workers: int) -> float:
    """Engine wall time not covered by perfectly packed simulation."""
    return wall_s - sim_wall_s / workers if workers else wall_s


def policy_ns_per_act(design_s: Sequence[float], targets_s: float,
                      floor_s: float, activations: int) -> float:
    """Mean host ns per activation a policy adds over the bare harness.

    Each ``design_s`` is one ``run_differential`` call for one design,
    which draws its own target stream (``targets_s``) and drives it
    through the harness (``floor_s`` with the unprotected policy).
    """
    if not design_s or not activations:
        return 0.0
    extra = [s - targets_s - floor_s for s in design_s]
    return statistics.fmean(extra) / activations * 1e9


def histogram_delta_mean(before: Mapping[str, float],
                         after: Mapping[str, float], name: str) -> float:
    """Mean of the observations a registry histogram gained between two
    ``/stats`` snapshots (``<name>.count`` and ``<name>.mean`` keys)."""
    count_before = before.get(f"{name}.count", 0)
    count_after = after.get(f"{name}.count", 0)
    added = count_after - count_before
    if added <= 0:
        return 0.0
    total = (count_after * after.get(f"{name}.mean", 0.0)
             - count_before * before.get(f"{name}.mean", 0.0))
    return total / added


def poll_wait_share(client_s: float, server_s: float, wall_s: float
                    ) -> float:
    """Share of a pass the client spent polling after the server had
    finished its jobs: the client's view of the jobs (submit call to
    wait return) minus the server's job latency, over the pass time."""
    return (client_s - server_s) / wall_s if wall_s else 0.0


def overhead_pct(traced: Sequence[float], untraced: Sequence[float]
                 ) -> float:
    """Traced passes' median wall time over the untraced median, in %."""
    return (statistics.median(traced) / statistics.median(untraced)
            - 1.0) * 100.0
