"""Shared fixtures: small geometries so tests run in milliseconds."""

from __future__ import annotations

import pytest

from repro.config import DRAMConfig, SystemConfig
from repro.dram.timing import ddr5_base, ddr5_prac
from repro.exec.engine import SweepEngine


@pytest.fixture
def base_timing():
    return ddr5_base()


@pytest.fixture
def prac_timing():
    return ddr5_prac()


@pytest.fixture
def small_dram():
    """4 banks/sub-channel, 256 rows, fast refresh cycling."""
    return DRAMConfig(
        subchannels=2, banks_per_subchannel=4, rows_per_bank=256,
        timing=ddr5_base().scaled_refresh(1 / 256),
    )


@pytest.fixture
def small_system(small_dram):
    return SystemConfig(dram=small_dram, cores=2)


#: Conventional small policy geometry used across mitigation tests.
POLICY_GEOMETRY = dict(banks=4, rows=512, refresh_groups=32)


@pytest.fixture
def engine_runs(monkeypatch):
    """The point lists passed to ``SweepEngine.run``, one per call."""
    calls = []
    run = SweepEngine.run

    def counted(self, points):
        calls.append(list(points))
        return run(self, points)

    monkeypatch.setattr(SweepEngine, "run", counted)
    return calls
