"""Ablation: MOP vs fully-open-page address mapping.

The paper uses MOP with 4 lines/row (Section 3.1): a short burst of
spatial locality per row plus aggressive bank interleaving. Fully
row-contiguous mapping harvests more row hits on streams but loses
bank-level parallelism for everything else. This bench compares the two
mappings under the baseline and PRAC.
"""

from _common import bench_instructions, record, run_once

from repro.sim.runner import DesignPoint, build_system


def run(workload: str, mapper_kind: str, design: str):
    point = DesignPoint(workload=workload, design=design,
                        instructions=bench_instructions())
    return build_system(point, mapper_kind=mapper_kind).run()


def sweep():
    out = {}
    for workload in ("add", "mcf"):
        for kind in ("mop", "open"):
            base = run(workload, kind, "baseline")
            prac = run(workload, kind, "prac")
            ipc_b = sum(base.ipcs)
            ipc_p = sum(prac.ipcs)
            out[(workload, kind)] = {
                "rbhr": base.row_buffer_hit_rate,
                "prac_slowdown": 1 - ipc_p / ipc_b,
            }
    return out


def test_ablation_mapping(benchmark):
    out = run_once(benchmark, sweep)
    lines = ["Ablation: MOP vs open-page address mapping",
             f"{'workload':>9s} {'mapping':>8s} {'RBHR':>6s} "
             f"{'PRAC slowdown':>14s}"]
    for (workload, kind), row in out.items():
        lines.append(f"{workload:>9s} {kind:>8s} {row['rbhr']:>6.2f} "
                     f"{row['prac_slowdown']:>14.1%}")
    record("ablation_mapping", "\n".join(lines) + "\n")
    # row-contiguous mapping yields a higher stream hit rate than MOP-4
    assert out[("add", "open")]["rbhr"] > out[("add", "mop")]["rbhr"]
    # PRAC hurts under both mappings
    for row in out.values():
        assert row["prac_slowdown"] > 0
