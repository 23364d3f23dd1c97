#!/usr/bin/env python3
"""Benchmark suite for proof production and checking.

Four deterministic workload families measure the certification
pipeline end to end:

* ``pigeonhole_plain`` / ``pigeonhole_logged`` — the same PHP(n+1, n)
  refutation with proof logging off and on: the pair bounds the
  logging overhead on a learning-heavy unsat search.
* ``pigeonhole_check`` — replaying the logged proof through the
  independent RUP/DRAT checker (shared with nothing in the solver):
  checker throughput on a real proof.  The run fails unless every RUP
  step is verified by its hints (``checker.hinted`` equals
  ``checker.rup_checked`` and the proof's RUP step count) with
  ``checker.propagations`` at 0, so a solver that stops emitting hints,
  or leaves a level-0 literal unnamed, fails the suite instead of only
  slowing the row.
* ``random_3sat_logged`` — fixed-seed phase-transition 3-SAT with
  logging on; every unsat instance's proof is checked, so the row
  carries both solve and check time on mixed verdicts.
* ``engine_unsat_core`` — an engine-level script with many ``:named``
  assertions of which exactly one clashing pair matters: measures the
  named-selector machinery, core extraction and proof certification
  through the full SMT-LIB stack.

Usage::

    PYTHONPATH=src python benchmarks/bench_proof.py [--mode {smoke,full}] [--out PATH]
"""

from __future__ import annotations

from functools import partial

from _harness import Outcome, Workload, main, prefixed  # also puts src/ on sys.path
from bench_sat import RANDOM_3SAT_SEEDS, pigeonhole_clauses, random_3sat_clauses
from repro.engine import solve_script
from repro.obs import Observability
from repro.proof import ProofLog, check_proof
from repro.sat import Solver

# Workload sizes per tier: (pigeonhole holes, random-3sat vars, named
# assertions).  35 vars puts two of the three fixed seeds on the unsat
# side, so even the smoke run exercises proof checking on mixed verdicts.
MODES = {
    "smoke": (4, 35, 20),
    "full": (6, 100, 200),
}


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


def _solver(clauses: list[list[int]], logged: bool) -> Solver:
    solver = Solver()
    if logged:
        solver.proof = ProofLog()
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def run_pigeonhole(holes: int, logged: bool, tracer) -> Outcome:
    solver = _solver(pigeonhole_clauses(holes), logged)
    with tracer.span("solve"):
        answer = solver.solve()
    metrics = prefixed("sat", solver.stats)
    if logged:
        proof = solver.proof.snapshot(())
        counts = proof.counts()
        metrics["proof.steps"] = len(proof)
        metrics["proof.rup"] = counts["rup"]
        metrics["proof.deletions"] = counts["delete"]
    return Outcome(answer, metrics)


def run_pigeonhole_check(holes: int, tracer) -> Outcome:
    solver = _solver(pigeonhole_clauses(holes), logged=True)
    solver.solve()
    proof = solver.proof.snapshot(())
    with tracer.span("check"):
        verdict = check_proof(proof)
    assert verdict.ok, verdict.error
    hinted, rups = verdict.stats["hinted"], proof.counts()["rup"]
    assert hinted == verdict.stats["rup_checked"] == rups, f"{hinted} of {rups} RUP steps hinted"
    assert verdict.stats["propagations"] == 0, verdict.stats
    return Outcome(
        "certified", {**prefixed("checker", verdict.stats), **prefixed("sat", solver.stats)}
    )


def run_random_3sat(num_vars: int, tracer) -> Outcome:
    answers = []
    steps = 0
    for seed in RANDOM_3SAT_SEEDS:
        solver = _solver(random_3sat_clauses(num_vars, seed), logged=True)
        with tracer.span("solve", merge=True):
            answer = solver.solve()
        answers.append(answer)
        if answer == "unsat":
            proof = solver.proof.snapshot(())
            steps += len(proof)
            with tracer.span("check", merge=True):
                verdict = check_proof(proof)
            assert verdict.ok, verdict.error
    return Outcome(",".join(answers), {"proof.steps": steps})


def run_engine_cores(width: int, tracer) -> Outcome:
    source = named_core_script(width)
    with tracer.span("solve"):
        (check,) = solve_script(
            source,
            obs=Observability(tracer=tracer),
            produce_proofs=True,
            produce_unsat_cores=True,
        )
    assert check.proof is not None, check.answer
    with tracer.span("check"):
        verdict = check_proof(check.proof)
    assert check.unsat_core == ("low", "high"), check.unsat_core
    assert verdict.ok, verdict.error
    return Outcome(check.answer, {**check.metrics, "proof.steps": len(check.proof)})


def workloads(sizes):
    php_n, sat3_n, core_n = sizes
    yield Workload("pigeonhole_plain", php_n, partial(run_pigeonhole, php_n, False), "unsat")
    yield Workload("pigeonhole_logged", php_n, partial(run_pigeonhole, php_n, True), "unsat")
    yield Workload("pigeonhole_check", php_n, partial(run_pigeonhole_check, php_n), "certified")
    yield Workload("random_3sat_logged", sat3_n, partial(run_random_3sat, sat3_n))
    yield Workload("engine_unsat_core", core_n, partial(run_engine_cores, core_n), "unsat")


if __name__ == "__main__":
    raise SystemExit(main("proof", MODES, workloads, columns=("proof.steps", "sat.conflicts")))
