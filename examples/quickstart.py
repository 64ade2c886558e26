#!/usr/bin/env python3
"""Quickstart: the MoPAC reproduction in five minutes.

1. Derive the paper's security parameters for a Rowhammer threshold.
2. Throw a double-sided Rowhammer attack at MoPAC-D and check it holds.
3. Compare benign-workload slowdown: PRAC vs MoPAC-C vs MoPAC-D.

Run:  python examples/quickstart.py
"""

import random

from repro import security
from repro.attacks import double_sided, run_attack
from repro.mitigations import MoPACDPolicy
from repro.sim import DesignPoint, slowdowns

TRH = 500  # the paper's default Rowhammer threshold


def derive_parameters():
    print(f"=== Security parameters at T_RH = {TRH} ===")
    budget = security.budget_for(TRH)
    print(f"failure budget F = {budget.failure_probability:.2e}, "
          f"epsilon = {budget.epsilon:.2e} (10K-year bank MTTF)")

    mopac_c = security.mopac_c_params(TRH)
    print(f"MoPAC-C: p = 1/{mopac_c.inv_p}, C = "
          f"{mopac_c.critical_updates}, ATH* = {mopac_c.ath_star} "
          f"(paper Table 7: 1/8, 22, 176)")

    mopac_d = security.mopac_d_params(TRH)
    print(f"MoPAC-D: A' = {mopac_d.effective_acts}, C = "
          f"{mopac_d.critical_updates}, ATH* = {mopac_d.ath_star} "
          f"(paper Table 8: 440, 19, 152)")
    print()


def attack_mopac_d():
    print("=== Double-sided Rowhammer vs MoPAC-D ===")
    geometry = dict(banks=4, rows=1024, refresh_groups=64)
    policy = MoPACDPolicy(TRH, **geometry, rng=random.Random(1))
    result = run_attack(policy, double_sided(0, 100),
                        activations=300_000, trh=TRH, **geometry)
    report = result.ledger
    print(f"issued {result.activations:,} activations, "
          f"{result.alerts} ABO episodes")
    print(f"hottest unmitigated row reached {report.max_count} "
          f"activations (threshold {TRH})")
    print("attack", "SUCCEEDED" if result.attack_succeeded else "DEFEATED")
    print()


def benign_slowdown():
    print("=== Benign slowdown on 8-core mcf (scaled run) ===")
    designs = ("prac", "mopac-c", "mopac-d")
    # one call resolves every design with its baseline run
    values = slowdowns([DesignPoint(workload="mcf", design=design,
                                    trh=TRH, instructions=60_000)
                        for design in designs])
    for design, value in zip(designs, values):
        print(f"{design:9s}: {value:6.1%}")
    print("(paper, full scale: prac ~10-14%, mopac-c ~1.8%, "
          "mopac-d ~0.8% on average)")


if __name__ == "__main__":
    derive_parameters()
    attack_mopac_d()
    benign_slowdown()
