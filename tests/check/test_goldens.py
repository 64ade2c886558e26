"""The simulator reproduces its committed golden fingerprints.

Every case in :mod:`repro.check.golden` must match ``goldens.json``
exactly (stats digest, trace digest, event count), and the conformance
oracle must accept every golden trace.
"""

import pytest

from repro.check import golden
from repro.check.oracle import ConformanceOracle

CASES = golden.cases()
GOLDENS = golden.load_goldens()


def test_every_case_has_a_golden():
    assert set(CASES) == set(GOLDENS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(name):
    case = CASES[name]
    got, events = golden.fingerprint(case)
    assert got == GOLDENS[name]
    assert ConformanceOracle(case.oracle()).verify(events) == []
