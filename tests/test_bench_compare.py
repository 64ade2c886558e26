"""The benchmark regression gate: compare.py semantics and exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))

from compare import compare  # noqa: E402  (path set up above)


def summary(seconds=0.10, digest="d1", workload="mix1", pops=None):
    row = {"workload": workload, "design": "mopac-c",
           "instructions": 40_000, "seconds": seconds,
           "requests": 1000, "digest": digest}
    if pops is not None:
        row["pops"] = pops
    return {"rows": [row], "total_s": seconds}


def census(service=1000, complete=200, drive=800):
    return {"service": service, "complete": complete, "drive": drive,
            "timeout": 0, "ref": 3, "refsb": 0, "rfm": 0}


class TestCompare:
    def test_equal_runs_pass(self):
        failures, notes = compare(summary(), summary(), threshold=0.10)
        assert failures == []
        assert notes  # per-row timings are reported

    def test_slowdown_within_threshold_passes(self):
        failures, _ = compare(summary(0.10), summary(0.105),
                              threshold=0.10)
        assert failures == []

    def test_slowdown_beyond_threshold_fails(self):
        failures, _ = compare(summary(0.10), summary(0.15),
                              threshold=0.10)
        assert any("engine" in f for f in failures)
        assert any("total" in f for f in failures)

    def test_speedup_always_passes(self):
        failures, _ = compare(summary(0.10), summary(0.01),
                              threshold=0.10)
        assert failures == []

    def test_changed_results_fail_regardless_of_speed(self):
        failures, _ = compare(summary(digest="d1"),
                              summary(seconds=0.01, digest="d2"),
                              threshold=0.10)
        assert any("results changed" in f for f in failures)

    def test_more_pops_for_same_results_fail(self):
        failures, _ = compare(summary(pops=census()),
                              summary(seconds=0.01,
                                      pops=census(complete=201)),
                              threshold=0.10)
        assert failures == ["mix1/mopac-c: event pops rose for the same "
                            "results (2003 -> 2004: complete +1)"]

    def test_pop_failure_names_each_opcode_that_rose(self):
        # service and drive rose, complete fell: only the risers are named
        failures, _ = compare(summary(pops=census()),
                              summary(pops=census(service=1003,
                                                  complete=199,
                                                  drive=801)),
                              threshold=0.10)
        assert failures == ["mix1/mopac-c: event pops rose for the same "
                            "results (2003 -> 2006: service +3, "
                            "drive +1)"]

    def test_fewer_or_moved_pops_pass(self):
        # the gate is on the total: pops may move between opcodes
        failures, _ = compare(summary(pops=census()),
                              summary(pops=census(complete=100,
                                                  drive=850)),
                              threshold=0.10)
        assert failures == []

    def test_pops_of_changed_results_are_not_compared(self):
        failures, _ = compare(summary(digest="d1", pops=census()),
                              summary(digest="d2",
                                      pops=census(service=5000)),
                              threshold=0.10)
        assert len(failures) == 1
        assert "results changed" in failures[0]

    def test_rows_without_census_skip_the_pop_gate(self):
        failures, _ = compare(summary(), summary(pops=census()),
                              threshold=0.10)
        assert failures == []

    def test_disjoint_rows_noted_not_failed(self):
        failures, notes = compare(summary(workload="mix1"),
                                  summary(workload="mcf"),
                                  threshold=0.10)
        assert failures == []
        assert any("only in baseline" in n for n in notes)
        assert any("only in candidate" in n for n in notes)


class TestCommandLine:
    def run(self, tmp_path, baseline, candidate, *extra):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(baseline))
        cand.write_text(json.dumps(candidate))
        return subprocess.run(
            [sys.executable, str(REPO / "benchmarks" / "compare.py"),
             str(base), str(cand), *extra],
            capture_output=True, text=True)

    def test_pass_exits_zero(self, tmp_path):
        proc = self.run(tmp_path, summary(), summary())
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_pop_regression_exits_one(self, tmp_path):
        proc = self.run(tmp_path, summary(pops=census()),
                        summary(pops=census(drive=900)))
        assert proc.returncode == 1
        assert "event pops rose" in proc.stdout

    def test_regression_exits_one(self, tmp_path):
        proc = self.run(tmp_path, summary(0.10), summary(0.50))
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout

    def test_threshold_flag_loosens_gate(self, tmp_path):
        proc = self.run(tmp_path, summary(0.10), summary(0.50),
                        "--threshold", "5.0")
        assert proc.returncode == 0

    def test_missing_file_exits_two(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(REPO / "benchmarks" / "compare.py"),
             str(tmp_path / "nope.json"), str(tmp_path / "nope.json")],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_committed_baseline_is_self_consistent(self):
        baseline_path = (REPO / "benchmarks" / "results" /
                         "BENCH_engine_smoke.json")
        if not baseline_path.exists():  # pragma: no cover
            pytest.skip("smoke baseline not generated yet")
        doc = json.loads(baseline_path.read_text())
        failures, _ = compare(doc, doc, threshold=0.0)
        assert failures == []
        assert doc["profile"] == "smoke"
