#!/usr/bin/env python3
"""Benchmark harness for proof production and checking.

Four deterministic workload families measure the certification
pipeline end to end:

* ``pigeonhole_plain`` / ``pigeonhole_logged`` — the same PHP(n+1, n)
  refutation with proof logging off and on: the pair bounds the
  logging overhead on a learning-heavy unsat search.
* ``pigeonhole_check`` — replaying the logged proof through the
  independent RUP/DRAT checker (shared with nothing in the solver):
  checker throughput on a real proof.  The row reports ``hinted``, the
  learned clauses the checker verified by their hints; verification
  fails unless that is every learned clause, so a solver that stops
  emitting hints fails the smoke run instead of only slowing the row.
* ``random_3sat_logged`` — fixed-seed phase-transition 3-SAT with
  logging on; every unsat instance's proof is checked, so the row
  carries both solve and check time on mixed verdicts.
* ``engine_unsat_core`` — an engine-level script with many ``:named``
  assertions of which exactly one clashing pair matters: measures the
  named-selector machinery, core extraction and proof certification
  through the full SMT-LIB stack.

Results are printed as a table and written as JSON (``BENCH_proof.json``)
in the same shape as the other ``bench_*`` suites, so CI archives them
and ``check_regression.py`` gates the timings against the committed
baseline.  ``--smoke`` shrinks sizes and verifies every answer, core
and proof.

Usage::

    PYTHONPATH=src python benchmarks/bench_proof.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.setrecursionlimit(1_000_000)

from repro.engine import solve_script  # noqa: E402
from repro.proof import ProofLog, check_proof  # noqa: E402
from repro.sat import Solver  # noqa: E402

PHASE_TRANSITION_RATIO = 4.26
RANDOM_3SAT_SEEDS = (0, 1, 2)


def pigeonhole_clauses(holes: int) -> list[list[int]]:
    """PHP(holes+1, holes): every pigeon in a hole, no hole shared."""
    pigeons = holes + 1

    def var(i: int, j: int) -> int:
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return clauses


def random_3sat_clauses(num_vars: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    num_clauses = round(PHASE_TRANSITION_RATIO * num_vars)
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def named_core_script(width: int) -> str:
    """``width`` named facts on distinct variables plus one clashing
    pair on x: the core must be exactly that pair."""
    lines = ["(set-logic QF_LIA)", "(set-option :produce-unsat-cores true)"]
    lines.append("(declare-const x Int)")
    for i in range(width):
        lines.append(f"(declare-const v{i} Int)")
        lines.append(f"(assert (! (<= v{i} {i}) :named pad{i}))")
    lines.append("(assert (! (<= x 0) :named low))")
    lines.append("(assert (! (>= x 1) :named high))")
    lines.append("(check-sat)")
    lines.append("(get-unsat-core)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Runners.
# ---------------------------------------------------------------------------


def _solve(clauses: list[list[int]], logged: bool):
    solver = Solver()
    if logged:
        solver.proof = ProofLog()
    for clause in clauses:
        solver.add_clause(clause)
    t0 = time.perf_counter()
    answer = solver.solve()
    return solver, answer, time.perf_counter() - t0


def run_pigeonhole(holes: int, verify: bool) -> list[dict]:
    clauses = pigeonhole_clauses(holes)
    _, answer_plain, plain_s = _solve(clauses, logged=False)
    solver, answer, logged_s = _solve(clauses, logged=True)
    if verify:
        assert answer_plain == answer == "unsat", (answer_plain, answer)
    proof = solver.proof.snapshot(())
    t0 = time.perf_counter()
    verdict = check_proof(proof)
    check_s = time.perf_counter() - t0
    hinted = verdict.stats["hinted"]
    learned = solver.stats["learned"]
    if verify:
        assert verdict.ok, verdict.error
        assert hinted == learned, f"{hinted} of {learned} learned clauses verified by hints"
    counts = proof.counts()
    shape = {
        "steps": len(proof),
        "rup": counts["rup"],
        "deletions": counts["delete"],
    }
    return [
        {
            "workload": "pigeonhole_plain",
            "n": holes,
            "answer": answer_plain,
            "seconds": {"solve": round(plain_s, 6)},
        },
        {
            "workload": "pigeonhole_logged",
            "n": holes,
            "answer": answer,
            "proof": shape,
            "seconds": {"solve": round(logged_s, 6)},
        },
        {
            "workload": "pigeonhole_check",
            "n": holes,
            "answer": "certified" if verdict.ok else "REJECTED",
            "hinted": hinted,
            "learned": learned,
            "checker": verdict.stats,
            "seconds": {"check": round(check_s, 6)},
        },
    ]


def run_random_3sat(num_vars: int, verify: bool) -> dict:
    solve_s = check_s = 0.0
    answers = []
    steps = 0
    for seed in RANDOM_3SAT_SEEDS:
        clauses = random_3sat_clauses(num_vars, seed)
        solver, answer, seconds = _solve(clauses, logged=True)
        solve_s += seconds
        answers.append(answer)
        if answer == "unsat":
            proof = solver.proof.snapshot(())
            steps += len(proof)
            t0 = time.perf_counter()
            verdict = check_proof(proof)
            check_s += time.perf_counter() - t0
            if verify:
                assert verdict.ok, verdict.error
    return {
        "workload": "random_3sat_logged",
        "n": num_vars,
        "answer": ",".join(answers),
        "proof": {"steps": steps},
        "seconds": {"solve": round(solve_s, 6), "check": round(check_s, 6)},
    }


def run_engine_cores(width: int, verify: bool) -> dict:
    source = named_core_script(width)
    t0 = time.perf_counter()
    checks = solve_script(source, produce_proofs=True, produce_unsat_cores=True)
    solve_s = time.perf_counter() - t0
    (check,) = checks
    t0 = time.perf_counter()
    verdict = check_proof(check.proof) if check.proof is not None else None
    check_s = time.perf_counter() - t0
    if verify:
        assert check.answer == "unsat", check.answer
        assert check.unsat_core == ("low", "high"), check.unsat_core
        assert verdict is not None and verdict.ok, verdict
    return {
        "workload": "engine_unsat_core",
        "n": width,
        "answer": check.answer,
        "core": list(check.unsat_core or ()),
        "proof": {"steps": len(check.proof) if check.proof is not None else 0},
        "seconds": {"solve": round(solve_s, 6), "check": round(check_s, 6)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small sizes + full verification")
    parser.add_argument("--check", action="store_true", help="verify answers, cores and proofs")
    parser.add_argument("--out", default="BENCH_proof.json", help="JSON output path")
    args = parser.parse_args(argv)
    verify = args.check or args.smoke
    php_n = 4 if args.smoke else 6
    # 35 vars puts two of the three fixed seeds on the unsat side, so
    # even the smoke run exercises proof checking on mixed verdicts.
    sat3_n = 35 if args.smoke else 100
    core_n = 20 if args.smoke else 200

    results = run_pigeonhole(php_n, verify)
    results.append(run_random_3sat(sat3_n, verify))
    results.append(run_engine_cores(core_n, verify))

    header = f"{'workload':<20} {'n':>6} {'answer':>16} {'steps':>8} {'seconds':>9}"
    print(header)
    print("-" * len(header))
    for row in results:
        steps = row.get("proof", {}).get("steps", "-")
        total = sum(row["seconds"].values())
        print(
            f"{row['workload']:<20} {row['n']:>6} {row['answer'][:16]:>16} "
            f"{steps:>8} {total:>9.4f}"
        )

    payload = {
        "bench": "proof",
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
