"""repro.check: independent verification of the simulator's claims.

Three pillars (see docs/verification.md):

* :mod:`repro.check.oracle` — a second, independent implementation of
  the DDR5 legality rules that replays traced command streams;
* :mod:`repro.check.differential` — MoPAC-C / MoPAC-D / QPRAC /
  exact-PRAC on identical seeded workloads, asserting the invariants
  that must agree (no unmitigated row past the tolerated count, PRAC
  counter conservation);
* :mod:`repro.check.fuzz` — a property-based fuzzer that hammers the
  MC scheduler and page policies with randomized request streams and
  shrinks any oracle violation by trace-prefix bisection.

``tests/check`` runs all three, plus the seed corpora and the golden
fingerprints, as part of the tier-1 suite.
"""

from .oracle import (ConformanceOracle, OracleConfig, Violation,
                     events_from_jsonl, verify_events)
from .driver import PointVerdict, oracle_config_for, trace_point, \
    verify_point

__all__ = [
    "ConformanceOracle", "OracleConfig", "Violation",
    "events_from_jsonl", "verify_events",
    "PointVerdict", "oracle_config_for", "trace_point", "verify_point",
]
