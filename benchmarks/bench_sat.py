#!/usr/bin/env python3
"""Benchmark suite for the CNF pipeline and the CDCL solver.

Three classic workload families, all deterministic:

* ``pigeonhole`` — PHP(n+1, n) as direct CNF clauses: resolution-hard,
  always unsat; stresses conflict analysis, learning and restarts.
* ``random_3sat`` — uniform 3-SAT at the phase-transition ratio m/n = 4.26
  (fixed seeds): the classic mixed sat/unsat stress test.
* ``xor_chain_sat`` / ``xor_chain_unsat`` — chained parity constraints
  built as *terms* and lowered by the Tseitin encoder, so this family
  measures the whole cnf pipeline, not just the solver.

Each row times the ``encode`` and ``solve`` spans and counts the CNF
(``encode.vars``, ``encode.clauses``) and the search (``sat.*``); every
``sat`` answer's model is checked against the clauses or terms.  The
three modes share the families and differ only in size: ``heavy`` runs
seconds-scale instances (pigeonhole 8, random 3-SAT at n=200, deep xor
chains), where a real speedup is distinguishable from timer noise.

Usage::

    PYTHONPATH=src python benchmarks/bench_sat.py [--mode {smoke,full,heavy}] [--out PATH]
"""

from __future__ import annotations

import random
from functools import partial

from _harness import Outcome, Workload, main, prefixed  # also puts src/ on sys.path
from repro.sat import Solver
from repro.smtlib import BOOL, TRUE, Apply, Symbol, TseitinEncoder, bool_const, evaluate

PHASE_TRANSITION_RATIO = 4.26
RANDOM_3SAT_SEEDS = (0, 1, 2)

# Workload sizes per tier: (pigeonhole holes, random-3sat vars, xor length).
MODES = {
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


def run_clauses(num_vars: int, instances: list[list[list[int]]], tracer) -> Outcome:
    """Solve each clause list on a fresh solver; the row sums the search
    counts over the instances (each is ``num_vars`` variables and the
    same number of clauses) and joins their answers."""
    answers = []
    metrics: dict[str, int] = {}
    for clauses in instances:
        solver = Solver(num_vars)
        with tracer.span("encode", merge=True):
            solver.add_clauses(clauses)
        with tracer.span("solve", merge=True):
            answer = solver.solve()
        if answer == "sat":
            model = solver.model
            assert all(any((lit > 0) == model[abs(lit)] for lit in c) for c in clauses)
        answers.append(answer)
        for key, value in prefixed("sat", solver.stats).items():
            metrics[key] = metrics.get(key, 0) + value
    return Outcome(
        ",".join(answers),
        {"encode.vars": num_vars, "encode.clauses": len(instances[-1]), **metrics},
    )


def run_terms(assertions, tracer) -> Outcome:
    with tracer.span("encode"):
        encoder = TseitinEncoder()
        for term in assertions:
            encoder.assert_term(term)
        formula = encoder.formula
        solver = Solver(formula.num_vars)
        solver.add_clauses(formula.clauses)
    with tracer.span("solve"):
        answer = solver.solve()
    if answer == "sat":
        model = solver.model
        env = {atom.name: bool_const(model[var]) for atom, var in formula.atom_vars.items()}
        assert all(evaluate(term, env) is TRUE for term in assertions)
    return Outcome(
        answer,
        {
            "encode.vars": formula.num_vars,
            "encode.clauses": len(formula.clauses),
            **prefixed("sat", solver.stats),
        },
    )


def workloads(sizes):
    php_n, sat3_n, xor_n = sizes
    php_vars = php_n * (php_n + 1)
    yield Workload(
        "pigeonhole", php_n, partial(run_clauses, php_vars, [pigeonhole_clauses(php_n)]), "unsat"
    )
    # Answers vary by seed, so the row's answer is not known in advance.
    instances = [random_3sat_clauses(sat3_n, seed) for seed in RANDOM_3SAT_SEEDS]
    yield Workload("random_3sat", sat3_n, partial(run_clauses, sat3_n, instances))
    yield Workload("xor_chain_sat", xor_n, partial(run_terms, xor_chain_terms(xor_n, True)), "sat")
    yield Workload(
        "xor_chain_unsat", xor_n, partial(run_terms, xor_chain_terms(xor_n, False)), "unsat"
    )


if __name__ == "__main__":
    raise SystemExit(main("sat", MODES, workloads, columns=("encode.clauses", "sat.conflicts")))
