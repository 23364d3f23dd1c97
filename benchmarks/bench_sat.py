#!/usr/bin/env python3
"""Benchmark harness for the CNF pipeline and the CDCL solver.

Three classic workload families, all deterministic:

* ``pigeonhole`` — PHP(n+1, n) as direct CNF clauses: resolution-hard,
  always unsat; stresses conflict analysis, learning and restarts.
* ``random_3sat`` — uniform 3-SAT at the phase-transition ratio m/n = 4.26
  (fixed seeds): the classic mixed sat/unsat stress test.
* ``xor_chain_sat`` / ``xor_chain_unsat`` — chained parity constraints
  built as *terms* and lowered by the Tseitin encoder, so this family
  measures the whole cnf pipeline, not just the solver.

Per workload the harness reports CNF size (vars/clauses), the answer,
solver statistics and wall-clock split into encode and solve phases.
Results are printed as a table and written as JSON (``BENCH_sat.json``),
the same shape as ``BENCH_simplify.json``, so CI can archive and
regression-gate them.  Three tiers share the workload families and only
differ in size: ``--mode=smoke`` (milliseconds, verifies every expected
answer — what CI runs on every push), ``--mode=full`` (sub-second, the
default), and ``--mode=heavy`` (seconds-scale instances — pigeonhole 8,
random 3-SAT at n=200, deep xor chains — where a real speedup is
distinguishable from timer noise).  ``--smoke`` remains as an alias for
``--mode=smoke``.

Usage::

    PYTHONPATH=src python benchmarks/bench_sat.py [--mode {smoke,full,heavy}] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.obs import MetricsRegistry, Tracer, phase_seconds  # noqa: E402
from repro.sat import Solver  # noqa: E402
from repro.smtlib import (  # noqa: E402
    BOOL,
    Apply,
    Symbol,
    TseitinEncoder,
    bool_const,
)

PHASE_TRANSITION_RATIO = 4.26
RANDOM_3SAT_SEEDS = (0, 1, 2)

# Workload sizes per tier: (pigeonhole holes, random-3sat vars, xor length).
MODE_SIZES = {
    "smoke": (4, 30, 60),
    "full": (7, 150, 1200),
    "heavy": (8, 200, 4000),
}


# ---------------------------------------------------------------------------
# Clause-level generators.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Term-level generators (exercise the Tseitin encoder).
# ---------------------------------------------------------------------------


def xor_chain_terms(length: int, satisfiable: bool):
    """Parity constraints over a chain: ``z_i = x_i xor z_{i-1}``, with the
    chain head pinned and the overall parity asserted both through the
    chain and directly over the ``x_i`` — consistent when ``satisfiable``,
    a parity contradiction otherwise."""
    xs = [Symbol(f"x{i}", BOOL) for i in range(length)]
    zs = [Symbol(f"z{i}", BOOL) for i in range(length)]
    assertions = [Apply("=", (zs[0], xs[0]), BOOL)]
    for i in range(1, length):
        step = Apply("xor", (xs[i], zs[i - 1]), BOOL)
        assertions.append(Apply("=", (zs[i], step), BOOL))
    # The chain end states the parity of all x's; assert it twice, once
    # negated, to force a contradiction when requested.
    direct = Apply("xor", tuple(xs), BOOL)
    assertions.append(Apply("=", (zs[-1], direct), BOOL))
    if not satisfiable:
        assertions.append(Apply("xor", (zs[-1], direct), BOOL))
    return assertions


# ---------------------------------------------------------------------------
# Runners.
# ---------------------------------------------------------------------------


def _solver_metrics(solver: Solver) -> dict[str, int]:
    """The solver counters through the unified registry namespace."""
    registry = MetricsRegistry()
    registry.register_source("sat", lambda: solver.stats)
    return registry.snapshot()


def run_clause_workload(name: str, n: int, clauses: list[list[int]], expected, verify):
    num_vars = max(abs(lit) for clause in clauses for lit in clause)
    solver = Solver(num_vars)
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.span("encode"):
        solver.add_clauses(clauses)
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    with tracer.span("solve"):
        answer = solver.solve()
    solve_s = time.perf_counter() - t0
    if verify and expected is not None:
        assert answer == expected, (name, answer, expected)
    if verify and answer == "sat":
        model = solver.model
        assert all(any((lit > 0) == model[abs(lit)] for lit in c) for c in clauses), name
    return _row(
        name, n, num_vars, len(clauses), answer, solver, encode_s, solve_s, tracer
    )


def run_term_workload(name: str, n: int, assertions, expected, verify):
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.span("encode"):
        encoder = TseitinEncoder()
        for term in assertions:
            encoder.assert_term(term)
        formula = encoder.formula
        solver = Solver(formula.num_vars)
        solver.add_clauses(formula.clauses)
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    with tracer.span("solve"):
        answer = solver.solve()
    solve_s = time.perf_counter() - t0
    if verify and expected is not None:
        assert answer == expected, (name, answer, expected)
    if verify and answer == "sat":
        from repro.smtlib import TRUE, evaluate

        model = solver.model
        env = {atom.name: bool_const(model[var]) for atom, var in formula.atom_vars.items()}
        assert all(evaluate(term, env) is TRUE for term in assertions), name
    return _row(
        name,
        n,
        formula.num_vars,
        len(formula.clauses),
        answer,
        solver,
        encode_s,
        solve_s,
        tracer,
    )


def _row(name, n, num_vars, num_clauses, answer, solver, encode_s, solve_s, tracer):
    return {
        "workload": name,
        "n": n,
        "nodes": {"vars": num_vars, "clauses": num_clauses},
        "answer": answer,
        "solver": {
            key: solver.stats[key]
            for key in ("conflicts", "decisions", "propagations", "restarts", "learned")
        },
        "seconds": {"encode": round(encode_s, 6), "solve": round(solve_s, 6)},
        "phases": phase_seconds(tracer),
        "metrics": _solver_metrics(solver),
    }


def run_random_3sat(n: int, verify: bool):
    """Aggregate the fixed-seed instances into one row (answers vary by
    seed, so the row records the answer multiset)."""
    total_encode = total_solve = 0.0
    answers = []
    stats = {"conflicts": 0, "decisions": 0, "propagations": 0, "restarts": 0, "learned": 0}
    metrics: dict[str, int] = {}
    num_vars = num_clauses = 0
    tracer = Tracer()
    for seed in RANDOM_3SAT_SEEDS:
        clauses = random_3sat_clauses(n, seed)
        solver = Solver(n)
        t0 = time.perf_counter()
        with tracer.span("encode", merge=True):
            solver.add_clauses(clauses)
        total_encode += time.perf_counter() - t0
        t0 = time.perf_counter()
        with tracer.span("solve", merge=True):
            answer = solver.solve()
        total_solve += time.perf_counter() - t0
        answers.append(answer)
        if verify and answer == "sat":
            model = solver.model
            assert all(any((lit > 0) == model[abs(lit)] for lit in c) for c in clauses)
        for key in stats:
            stats[key] += solver.stats[key]
        for key, value in _solver_metrics(solver).items():
            metrics[key] = metrics.get(key, 0) + value
        num_vars, num_clauses = n, len(clauses)
    return {
        "workload": "random_3sat",
        "n": n,
        "nodes": {"vars": num_vars, "clauses": num_clauses},
        "answer": ",".join(answers),
        "solver": stats,
        "seconds": {"encode": round(total_encode, 6), "solve": round(total_solve, 6)},
        "phases": phase_seconds(tracer),
        "metrics": metrics,
    }


def _run(args: argparse.Namespace) -> int:
    verify = args.check or args.mode == "smoke"
    php_n, sat3_n, xor_n = MODE_SIZES[args.mode]

    results = [
        run_clause_workload(
            "pigeonhole", php_n, pigeonhole_clauses(php_n), "unsat", verify
        ),
        run_random_3sat(sat3_n, verify),
        run_term_workload(
            "xor_chain_sat", xor_n, xor_chain_terms(xor_n, True), "sat", verify
        ),
        run_term_workload(
            "xor_chain_unsat", xor_n, xor_chain_terms(xor_n, False), "unsat", verify
        ),
    ]

    header = (
        f"{'workload':<16} {'n':>6} {'vars':>7} {'clauses':>8} {'answer':>12} "
        f"{'conflicts':>10} {'encode_s':>9} {'solve_s':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in results:
        print(
            f"{row['workload']:<16} {row['n']:>6} {row['nodes']['vars']:>7} "
            f"{row['nodes']['clauses']:>8} {row['answer']:>12} "
            f"{row['solver']['conflicts']:>10} {row['seconds']['encode']:>9.4f} "
            f"{row['seconds']['solve']:>9.4f}"
        )

    payload = {
        "bench": "sat",
        "mode": args.mode,
        "python": sys.version.split()[0],
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode",
        choices=sorted(MODE_SIZES),
        default="full",
        help="workload tier: smoke (ms, verified), full (sub-second), heavy (seconds)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="alias for --mode=smoke (small sizes + verification)"
    )
    parser.add_argument("--check", action="store_true", help="verify answers and models")
    parser.add_argument("--out", default="BENCH_sat.json", help="JSON output path")
    args = parser.parse_args(argv)
    if args.smoke:
        args.mode = "smoke"
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
