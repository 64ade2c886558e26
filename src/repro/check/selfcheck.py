"""Self-check: prove the verification stack works end to end.

``python -m repro.check.selfcheck`` runs, in order:

1. **oracle/clean** — trace a default-config campaign point (an
   ABO-heavy MoPAC-D hammer run) and a second, geometry-diverse point
   through the simulator; the conformance oracle must report zero
   violations with no dropped trace events;
2. **oracle/mutations** — apply each seeded mutation from
   :mod:`repro.check.mutations` (drop a PRE, shrink a tRC, skip an RFM)
   to the clean trace, for several seeds; the oracle must flag every
   mutant (a silent oracle proves nothing);
3. **differential** — MoPAC-C / MoPAC-D / QPRAC / exact-PRAC on one
   seeded adversarial stream; security and counter-conservation
   invariants must hold;
4. **fuzz smoke** — a bounded run of the property-based MC fuzzer,
   plus replay of the per-mitigation seed corpora under
   ``tests/check/seeds/`` (curated ALERT/RFM-heavy cases);
5. **goldens** — every case of :mod:`repro.check.golden` must
   reproduce its committed stats and trace digests, and the oracle
   must accept every golden trace.

Exit status 0 when every step passes, 1 otherwise — wired into
``make check`` (and thereby ``make ci``).
"""

from __future__ import annotations

import argparse
import random
import sys

from ..sim.runner import DesignPoint
from . import golden
from .corpus import run_corpus
from .differential import run_differential
from .driver import oracle_config_for, trace_point, verify_point
from .fuzz import run_fuzz
from .mutations import MutationError, drop_pre, shrink_trc, skip_rfm
from .oracle import ConformanceOracle

#: campaign point with heavy ABO traffic (13+ ALERT/RFM pairs) — the
#: mutation checks need RFMs in the trace to have something to skip
ABO_POINT = DesignPoint(
    workload="hammer", design="mopac-d", trh=250, instructions=12_000,
    rows_per_bank=128, refresh_scale=1 / 256, p=1.0, srq_size=5,
    drain_on_ref=0)

#: second clean-trace point: different design, page pressure, geometry
MIX_POINT = DesignPoint(
    workload="mcf", design="mopac-c", trh=500, instructions=20_000,
    rows_per_bank=256, refresh_scale=1 / 128)

MUTATIONS = (("drop-pre", drop_pre, False),
             ("shrink-trc", shrink_trc, True),
             ("skip-rfm", skip_rfm, False))

MUTATION_SEEDS = (1, 2, 3)


def _check(name: str, ok: bool, detail: str, failures: list[str],
           quiet: bool) -> None:
    if not ok:
        failures.append(f"{name}: {detail}")
    if not quiet:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")


def run_selfcheck(fuzz_cases: int = 12, fuzz_seed: int = 0xC4EC,
                  quiet: bool = False) -> int:
    failures: list[str] = []

    # 1. clean traces verify with zero violations
    for point in (ABO_POINT, MIX_POINT):
        verdict = verify_point(point)
        _check(f"oracle/clean/{verdict.label}", verdict.ok,
               verdict.describe(), failures, quiet)

    # 2. every seeded mutation of the clean trace is caught
    tracer = trace_point(ABO_POINT)
    events = tracer.events()
    config = oracle_config_for(ABO_POINT)
    for name, mutate, wants_config in MUTATIONS:
        for seed in MUTATION_SEEDS:
            rng = random.Random(seed)
            try:
                mutant = mutate(events, config, rng) if wants_config \
                    else mutate(events, rng)
            except MutationError as error:
                _check(f"oracle/mutation/{name}/seed{seed}", False,
                       f"no mutation site: {error}", failures, quiet)
                continue
            violations = ConformanceOracle(config).verify(mutant)
            detail = (f"caught as {violations[0].rule}" if violations
                      else "NOT caught")
            _check(f"oracle/mutation/{name}/seed{seed}",
                   bool(violations), detail, failures, quiet)

    # 3. differential invariants across the designs
    report = run_differential()
    _check("differential", report.ok, report.describe().splitlines()[0],
           failures, quiet)

    # 4. fuzz smoke + pinned per-mitigation seed corpora
    fuzz = run_fuzz(cases=fuzz_cases, master_seed=fuzz_seed)
    _check("fuzz", fuzz.ok, fuzz.describe().splitlines()[0],
           failures, quiet)
    corpus = run_corpus()
    _check("fuzz/corpus", corpus.ok, corpus.describe().splitlines()[0],
           failures, quiet)

    # 5. the simulator reproduces its golden fingerprints
    mismatches = golden.check(quiet=True)
    _check("goldens", not mismatches,
           (f"{len(golden.cases())} cases reproduced, oracle clean"
            if not mismatches else mismatches[0]),
           failures, quiet)

    if failures:
        print(f"selfcheck: {len(failures)} FAILURE(S)", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if not quiet:
        print("selfcheck: all checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.selfcheck",
        description="independent verification of the simulator's traces")
    parser.add_argument("--fuzz-cases", type=int, default=12,
                        help="number of fuzz cases (default 12)")
    parser.add_argument("--fuzz-seed", type=lambda s: int(s, 0),
                        default=0xC4EC, help="fuzz master seed")
    parser.add_argument("--quiet", action="store_true",
                        help="only print on failure")
    args = parser.parse_args(argv)
    return run_selfcheck(fuzz_cases=args.fuzz_cases,
                         fuzz_seed=args.fuzz_seed, quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
