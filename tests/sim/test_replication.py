"""Multi-seed replication statistics."""

import pytest

from repro.sim.replication import Replication, replicate, \
    significantly_faster
from repro.sim.runner import DesignPoint

FAST = dict(instructions=12_000, rows_per_bank=512, refresh_scale=1 / 256)


class TestReplicationMath:
    def _repl(self, samples):
        point = DesignPoint(workload="mcf", design="prac")
        return Replication(point=point, samples=tuple(samples))

    def test_mean(self):
        assert self._repl([0.1, 0.2, 0.3]).mean == pytest.approx(0.2)

    def test_stdev(self):
        assert self._repl([0.1, 0.2, 0.3]).stdev == pytest.approx(0.1)

    def test_ci_shrinks_with_samples(self):
        narrow = self._repl([0.1, 0.2] * 5)
        wide = self._repl([0.1, 0.2])
        assert narrow.ci95 < wide.ci95

    @pytest.mark.parametrize("n, t", [(12, 2.201), (31, 2.042)])
    def test_ci_uses_student_t_past_ten_samples(self, n, t):
        """t(0.975, 11) = 2.201; past df 30 the df-30 value stands, not
        the normal 1.96."""
        repl = self._repl([0.1, 0.2] * (n // 2) + [0.15] * (n % 2))
        assert repl.n == n
        assert repl.ci95 == pytest.approx(t * repl.stdev / n ** 0.5)

    def test_single_sample_infinite_ci(self):
        assert self._repl([0.1]).ci95 == float("inf")

    def test_overlap_symmetric(self):
        a = self._repl([0.10, 0.11, 0.12])
        b = self._repl([0.11, 0.12, 0.13])
        assert a.overlaps(b) and b.overlaps(a)

    def test_disjoint_intervals(self):
        a = self._repl([0.01, 0.011, 0.012])
        b = self._repl([0.30, 0.301, 0.302])
        assert not a.overlaps(b)

    def test_str_format(self):
        assert "±" in str(self._repl([0.1, 0.2]))


class TestReplicateRuns:
    def test_seeds_produce_samples(self):
        point = DesignPoint(workload="xalancbmk", design="mopac-c",
                            trh=500, **FAST)
        result = replicate(point, seeds=(1, 2, 3))
        assert result.n == 3
        assert len(set(result.samples)) >= 2  # seeds actually differ

    def test_one_engine_run(self, engine_runs):
        point = DesignPoint(workload="xalancbmk", design="mopac-c",
                            trh=500, **FAST)
        replicate(point, seeds=(1, 2, 3))
        (flat,) = engine_runs
        assert len(set(flat)) == 6  # three seeds, each with its baseline

    def test_empty_seeds_rejected(self):
        point = DesignPoint(workload="xalancbmk", design="prac", **FAST)
        with pytest.raises(ValueError):
            replicate(point, seeds=())

    def test_prac_significantly_slower_than_baselineish(self):
        prac = DesignPoint(workload="mcf", design="prac", trh=500,
                           instructions=20_000)
        mopac = DesignPoint(workload="mcf", design="mopac-d", trh=500,
                            instructions=20_000)
        assert significantly_faster(mopac, prac, seeds=(1, 2, 3))
