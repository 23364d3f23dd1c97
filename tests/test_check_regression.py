"""The benchmark regression gate (``benchmarks/check_regression.py``),
driven on synthetic result files in the harness's row schema."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import check_regression  # noqa: E402


def write(path: Path, rows, mode: str = "smoke") -> Path:
    """A result file with one row per ``(workload, total_s, metrics)``."""
    results = [
        {"workload": name, "n": 1, "answer": "sat", "seconds": {"total": total}, "metrics": metrics}
        for name, total, metrics in rows
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"bench": "t", "mode": mode, "python": "3", "cpus": 1, "results": results}))
    return path


@pytest.fixture
def gate(tmp_path, capsys):
    """Write a baseline and a fresh file, run the gate, and return its
    exit status and printed report."""

    def run(baseline_rows, fresh_rows, fresh_mode="smoke"):
        write(tmp_path / "baselines" / "BENCH_t.json", baseline_rows)
        fresh = write(tmp_path / "BENCH_t.json", fresh_rows, fresh_mode)
        status = check_regression.main([str(fresh), "--baseline-dir", str(tmp_path / "baselines")])
        return status, capsys.readouterr().out

    return run


def test_unchanged_timings_pass(gate):
    rows = [("a", 1.0, {"sat.conflicts": 100}), ("b", 0.3, {})]
    status, out = gate(rows, rows)
    assert status == 0
    assert "OK: no workload regressed beyond 2.5x" in out


def test_a_workload_over_the_threshold_fails(gate):
    status, out = gate([("a", 1.0, {}), ("b", 1.0, {})], [("a", 2.6, {}), ("b", 1.0, {})])
    assert status == 1
    assert "REGRESSED" in out
    assert "BENCH_t.json:a (2.60x)" in out


def test_a_pair_below_the_floor_never_fails(gate):
    # 40x slower, but both sides sit under the 50 ms floor.
    status, out = gate([("a", 0.001, {})], [("a", 0.04, {})])
    assert status == 0
    assert "OK" in out


def test_a_mode_mismatch_fails(gate):
    rows = [("a", 1.0, {})]
    status, out = gate(rows, rows, fresh_mode="full")
    assert status == 1
    assert "MODE MISMATCH" in out
    assert "fresh mode 'full' differs from baseline mode 'smoke'" in out


def test_a_discovered_baseline_without_a_fresh_file_fails(tmp_path, capsys, monkeypatch):
    write(tmp_path / "baselines" / "BENCH_t.json", [("a", 1.0, {})])
    monkeypatch.chdir(tmp_path)
    status = check_regression.main(["--baseline-dir", str(tmp_path / "baselines")])
    out = capsys.readouterr().out
    assert status == 1
    assert "BENCH_t.json (fresh result missing — suite not run?)" in out


def test_a_much_faster_workload_is_reported_and_passes(gate):
    status, out = gate([("a", 1.0, {})], [("a", 0.4, {})])
    assert status == 0
    assert "FASTER (2.5x) — consider re-baselining" in out
    assert "BENCH_t.json:a (2.5x faster)" in out


def test_counter_drift_is_reported_and_never_fails(gate):
    baseline = [("a", 1.0, {"sat.conflicts": 100, "sat.decisions": 200, "build.hit_rate": 0.5})]
    fresh = [("a", 1.0, {"sat.conflicts": 400, "sat.decisions": 210, "build.hit_rate": 0.9})]
    status, out = gate(baseline, fresh)
    assert status == 0
    assert "~ a.sat.conflicts: 100 -> 400 (3.97x)" in out
    # Within the drift threshold, and rates are not counters.
    assert "sat.decisions" not in out
    assert "hit_rate" not in out


def test_process_wide_intern_counters_are_not_drift(gate):
    baseline = [("a", 1.0, {"intern.hits": 2552, "sat.propagations": 190})]
    fresh = [("a", 1.0, {"intern.hits": 132, "sat.propagations": 61})]
    status, out = gate(baseline, fresh)
    assert status == 0
    assert "intern.hits" not in out
    assert "~ a.sat.propagations: 190 -> 61 (0.32x)" in out
