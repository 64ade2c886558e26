"""Pinned harness fingerprints: the per-ACT loop's results, frozen.

Every buildable design runs one fixed seeded stream through
:class:`~repro.attacks.harness.AttackHarness`, plus the paths a plain
stream does not reach: ``stop_on_failure`` on the known-broken TRR,
``enable_refresh=False``, MoPAC-D at ``abo_level=2``, and the Table 9
multi-bank single-row pattern (on MoPAC-C, and on PRACtical, whose
bank-scoped recovery then stalls only the two hammered banks). Each
case pins the wall clock, the ALERT count, the ledger report, the
policy's stats and its telemetry's drift and per-bank peak, so any
change to the loop's pacing or to the counters under it shows here.

A row is ``(elapsed_ps, alerts, activations, ledger, stats,
security)``: ``ledger`` is ``(max_count, max_bank, max_row,
total_activations, trh)``, ``stats`` the
:class:`~repro.mitigations.base.PolicyStats` fields in declaration
order, ``security`` ``(drift_max, drift_total, per-bank
max_disturbance)`` or None for a policy without telemetry.
"""

import dataclasses

import pytest

from repro.attacks.harness import AttackHarness
from repro.attacks.patterns import multi_bank_single_row
from repro.check.differential import make_targets
from repro.mitigations import registry

GEO = dict(banks=4, rows=256, refresh_groups=32)
TRH, ACTS, SEED = 250, 8_000, 0xF1A6

PINNED = {
    "prac": (286967500, 14, 8000, (222, 3, 137, 8000, 250),
             (8000, 8000, 14, 14, 0, 0, 25, 0, 0),
             (0, 0, (4, 4, 222, 222))),
    "moat": (286967500, 14, 8000, (222, 3, 137, 8000, 250),
             (8000, 8000, 14, 14, 0, 0, 25, 0, 0),
             (0, 0, (4, 4, 222, 222))),
    "qprac": (282116500, 0, 8000, (149, 2, 197, 8000, 250),
              (8000, 8000, 0, 0, 0, 0, 42, 0, 0),
              (0, 0, (4, 4, 149, 146))),
    "qprac-proactive": (282116500, 0, 8000, (81, 2, 197, 8000, 250),
                        (8000, 8000, 0, 0, 0, 0, 269, 0, 0),
                        (0, 0, (5, 4, 82, 81))),
    "cnc-prac": (255419500, 13, 8000, (220, 3, 137, 8000, 250),
                 (8000, 2619, 13, 13, 0, 0, 24, 0, 0),
                 (0, 0, (5, 4, 220, 220))),
    "practical": (280007500, 22, 8000, (222, 3, 137, 8000, 250),
                  (8000, 8000, 22, 22, 0, 0, 22, 0, 0),
                  (0, 0, (4, 4, 222, 222))),
    "mopac-c": (271245500, 40, 8000, (123, 3, 137, 8000, 250),
                (8000, 1980, 40, 40, 0, 0, 80, 0, 0),
                (45, 13588, (5, 4, 118, 124))),
    "mopac-d": (291413500, 121, 8000, (102, 2, 197, 8000, 250),
                (8000, 806, 121, 41, 0, 80, 89, 1999, 180),
                (49, 4812, (4, 4, 103, 89))),
    "mint": (250952500, 0, 8000, (342, 3, 137, 8000, 1528),
             (8000, 0, 0, 0, 0, 0, 92, 0, 0),
             (0, 0, (5, 4, 184, 345))),
    "pride": (250952500, 0, 8000, (376, 2, 197, 8000, 2060),
              (8000, 0, 0, 0, 0, 0, 89, 0, 0),
              (0, 0, (5, 4, 377, 234))),
    "trr": (250952500, 0, 8000, (342, 3, 137, 8000, 250),
            (8000, 0, 0, 0, 0, 0, 32, 0, 0),
            (0, 0, (5, 4, 203, 343))),
    "baseline": (250952500, 0, 8000, (1411, 3, 137, 8000, 250),
                 (8000, 0, 0, 0, 0, 0, 0, 0, 0),
                 None),
    "mopac-d-nup": (293806500, 126, 8000, (115, 2, 197, 8000, 250),
                    (8000, 606, 126, 52, 0, 74, 85, 1641, 141),
                    (37, 4324, (4, 4, 116, 114))),
    "trr/stop-on-failure": (226990500, 0, 7226,
                            (251, 3, 137, 7226, 250),
                            (7226, 0, 0, 0, 0, 0, 28, 0, 0),
                            (0, 0, (5, 4, 203, 252))),
    "prac/no-refresh": (259785500, 15, 8000, (222, 3, 137, 8000, 250),
                        (8000, 8000, 15, 15, 0, 0, 30, 0, 0),
                        (0, 0, (7, 6, 222, 222))),
    "mopac-d/abo-level-2": (308087500, 79, 8000, (80, 3, 137, 8000, 250),
                            (8000, 781, 158, 30, 0, 79, 148, 1999, 100),
                            (24, 3587, (4, 3, 80, 81))),
    "mopac-c/multi-bank": (116026000, 28, 8000, (120, 0, 100, 8000, 250),
                           (8000, 1980, 28, 28, 0, 0, 109, 0, 0),
                           (49, 15954, (120, 89, 114, 88))),
    "practical/multi-bank": (233626500, 16, 8000,
                             (222, 0, 100, 8000, 250),
                             (8000, 8000, 16, 16, 0, 0, 32, 0, 0),
                             (0, 0, (222, 222, 0, 0))),
}

#: case -> (design, run options, policy knobs)
CASES = {design: (design, {}, {}) for design in registry.buildable()}
CASES.update({
    "trr/stop-on-failure": ("trr", {"stop_on_failure": True}, {}),
    "prac/no-refresh": ("prac", {"enable_refresh": False}, {}),
    "mopac-d/abo-level-2": ("mopac-d", {}, {"abo_level": 2}),
    "mopac-c/multi-bank": (
        "mopac-c", {"pattern": lambda: multi_bank_single_row(range(4), 100)},
        {}),
    "practical/multi-bank": (
        "practical",
        {"pattern": lambda: multi_bank_single_row(range(2), 100)}, {}),
})


def _run(case):
    design, options, knobs = CASES[case]
    spec = registry.get(design)
    policy = spec.build(TRH, seed=SEED, **GEO, **knobs)
    harness = AttackHarness(policy, spec.effective_trh(TRH),
                            enable_refresh=options.get("enable_refresh",
                                                       True),
                            **GEO)
    make_pattern = options.get("pattern")
    pattern = (make_pattern() if make_pattern is not None else
               iter(make_targets(SEED, GEO["banks"], GEO["rows"], ACTS)))
    result = harness.run(pattern, ACTS,
                         stop_on_failure=options.get("stop_on_failure",
                                                     False))
    security = policy.security
    return (result.elapsed_ps, result.alerts, result.activations,
            dataclasses.astuple(result.ledger),
            dataclasses.astuple(policy.stats),
            None if security is None else
            (security.drift_max, security.drift_total,
             tuple(security.max_disturbance(bank)
                   for bank in range(GEO["banks"])))), harness


def test_every_buildable_design_is_pinned():
    assert set(registry.buildable()) <= set(PINNED)
    assert set(CASES) == set(PINNED)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_harness_fingerprint(case):
    fingerprint, _ = _run(case)
    assert fingerprint == PINNED[case]


def test_stop_on_failure_stops_at_the_first_breach():
    fingerprint, harness = _run("trr/stop-on-failure")
    assert fingerprint[2] < ACTS
    assert harness.ledger.max_count == TRH + 1


def test_bank_scoped_recovery_leaves_idle_banks_unstalled():
    fingerprint, harness = _run("practical/multi-bank")
    assert fingerprint[1] > 0
    # banks 2 and 3 were never hammered nor named by an ALERT
    assert harness.bank_ready[2] == harness.bank_ready[3]
    assert harness.bank_ready[0] > harness.bank_ready[2]
