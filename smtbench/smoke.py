#!/usr/bin/env python3
"""The benchmark's own smoke test.

Runs tiny sizes of every workload end to end, once untraced and once
traced, and checks that:

* each run exits 0 and ends with one JSON object holding exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the metrics are exactly the ones ``BENCHMARK.json`` names for that
  mode, each with its unit;
* the generators are seed-deterministic: the same seed gives the same
  text, another seed gives other text;
* the program's counters repeat exactly across two runs with the same
  seed in separate interpreters with different hash seeds;
* certify replays proofs (``proof.rup_checked`` > 0), and a script that
  should carry proofs but answers ``unsat`` without one is a wrong
  verdict;
* only ``fuzz_combo``, built on the engine's known gaps, fails queries.

Usage (from the root of a checkout)::

    python3 smtbench/smoke.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def run_benchmark(workload: str, seed: int, trace: int, hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def check_result(line: str, expected: dict[str, str], fails: bool) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert (result["failed"] > 0) == fails, result["failed"]
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], (name, metric["unit"], expected[name])
        assert isinstance(metric["value"], (int, float)), (name, metric)
    return result["metrics"]


def check_missing_proof() -> None:
    """An ``unsat`` from a proof-carrying script without its proof must
    fail the run: here the script's ``produce-proofs`` option is cut."""
    repro = run.load_program()
    case = workloads.certify(random.Random(7), rounds=1, scale=1)[0]
    stripped = workloads.Case(case.family, case.text.replace(workloads._PROOFS, ""),
                              case.expected, proofs=True)
    run.run_plain(repro, case)
    try:
        run.run_plain(repro, stripped)
    except run.WrongVerdict:
        return
    raise AssertionError("an unsat without its proof was accepted")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(run.SMOKE_WORKLOADS)
    check_missing_proof()
    units = [
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    ]
    for workload, build in run.SMOKE_WORKLOADS.items():
        first = [case.text for case in build(random.Random(7))]
        again = [case.text for case in build(random.Random(7))]
        other = [case.text for case in build(random.Random(8))]
        assert first == again, f"{workload}: seed 7 generated different scripts"
        assert first != other, f"{workload}: seeds 7 and 8 generated the same scripts"

        counters = []
        for trace, hash_seed in ((0, "1"), (1, "2")):
            lines = run_benchmark(workload, 7, trace, hash_seed)
            metrics = check_result(lines[-1], units[trace], fails=workload == "fuzz_combo")
            if trace and workload == "certify":
                assert metrics["proof.rup_checked"]["value"] > 0, metrics["proof.rup_checked"]
            counters += [line for line in lines if line.startswith("# counters per pass:")]
        assert len(counters) == 2 and counters[0] == counters[1], counters
        print(f"ok {workload}: {counters[0][2:]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
