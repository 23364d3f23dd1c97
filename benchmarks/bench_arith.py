#!/usr/bin/env python3
"""Benchmark harness for the linear-arithmetic theory: simplex shapes
and branch-and-bound depth, driven through the full engine.

Four deterministic workload families:

* ``dense_simplex`` — a satisfiable LP whose constraint rows touch
  *every* variable (``Σ xᵢ`` bounds plus per-variable boxes): each
  pivot rewrites wide rows, stressing tableau row/column bookkeeping
  and model extraction over shared slacks.
* ``sparse_simplex`` — a banded chain ``xᵢ + x_{i+1} ≥ i`` with a
  global cap, unsat by summation: pivots touch 2-variable rows and the
  refutation needs the dual simplex's row explanation, not a bound
  clash.
* ``branch_bound`` — bounded integer knapsack equalities
  (``3x + 5y + 7z = K`` over boxes), alternating feasible and
  infeasible ``K``: the rational relaxation is fractional, so every
  query exercises branch-and-bound (depth grows with the box).
* ``diamond_lra`` — the classic diamond chain: per-layer disjunctions
  ``x_{i+1} ≤ xᵢ + 1`` or ``x_{i+1} ≤ xᵢ + 2`` with a final window on
  ``x_n``: the SAT core enumerates paths and the theory vetoes them
  with bound explanations — the lazy-SMT search/theory ping-pong for
  arithmetic.

Results are printed as a table and written as JSON
(``BENCH_arith.json``), the same shape as the other suites, so
``check_regression.py`` auto-gates them against
``benchmarks/baselines/BENCH_arith.json``.  Three tiers share the
workload families: ``--mode=smoke`` (milliseconds, verified — CI's
per-push gate), ``--mode=full`` (the default), and ``--mode=heavy``
(seconds-scale simplex instances for trustworthy timing).  ``--smoke``
remains as an alias for ``--mode=smoke``.

Usage::

    PYTHONPATH=src python benchmarks/bench_arith.py [--mode {smoke,full,heavy}] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.setrecursionlimit(1_000_000)

from repro import Engine  # noqa: E402
from repro.obs import Observability, phase_seconds  # noqa: E402
from repro.smtlib import (  # noqa: E402
    BOOL,
    INT,
    REAL,
    Apply,
    Assert,
    CheckSat,
    Script,
    Symbol,
)
from repro.smtlib.terms import Constant, int_const  # noqa: E402
from fractions import Fraction  # noqa: E402


# Workload sizes per tier:
# (dense n, sparse n, bb box, bb targets, diamond layers).
MODE_SIZES = {
    "smoke": (20, 40, 6, (29, 1, 41, 2), 8),
    "full": (60, 160, 10, (29, 1, 41, 2, 71, 4, 97, 101, 2, 139), 14),
    "heavy": (220, 700, 13, (29, 1, 41, 2, 71, 4, 97, 101, 2, 139, 163, 3), 600),
}


def rconst(value):
    return Constant(Fraction(value), REAL)


def plus(args, sort):
    return args[0] if len(args) == 1 else Apply("+", tuple(args), sort)


def scaled(coeff, symbol, sort):
    const = int_const if sort == INT else rconst
    return symbol if coeff == 1 else Apply("*", (const(coeff), symbol), sort)


def le(a, b):
    return Apply("<=", (a, b), BOOL)


def ge(a, b):
    return Apply(">=", (a, b), BOOL)


# ---------------------------------------------------------------------------
# Workload generators.
# ---------------------------------------------------------------------------


def dense_simplex_commands(n):
    """A satisfiable LP with n variables and dense Σ-rows."""
    xs = [Symbol(f"r{i}", REAL) for i in range(n)]
    commands = []
    total = plus(xs, REAL)
    commands.append(Assert(le(total, rconst(n))))
    commands.append(Assert(ge(total, rconst(n // 2))))
    for i, x in enumerate(xs):
        commands.append(Assert(ge(x, rconst(0))))
        commands.append(Assert(le(x, rconst(2))))
        if i + 1 < n:
            # Overlapping prefix sums keep the rows dense and distinct.
            prefix = plus(xs[: i + 2], REAL)
            commands.append(Assert(ge(prefix, rconst(i // 3))))
    commands.append(CheckSat())
    return tuple(commands), ["sat"]


def sparse_simplex_commands(n):
    """Banded chain x_i + x_{i+1} >= i with a global cap: unsat."""
    xs = [Symbol(f"s{i}", REAL) for i in range(n)]
    commands = []
    need = 0
    for i in range(n - 1):
        commands.append(Assert(ge(plus([xs[i], xs[i + 1]], REAL), rconst(i))))
        if i % 2 == 0:
            need += i
    # Summing the even-indexed band rows: Σ over disjoint pairs must
    # reach `need`, so capping the full sum below that is infeasible.
    commands.append(Assert(le(plus(xs, REAL), rconst(need - 1))))
    commands.append(CheckSat())
    return tuple(commands), ["unsat"]


def branch_bound_commands(box, targets):
    """Bounded knapsack equalities 3x + 5y + 7z = K, one check per K."""
    x, y, z = (Symbol(name, INT) for name in ("bx", "by", "bz"))
    commands = []
    for symbol in (x, y, z):
        commands.append(Assert(ge(symbol, int_const(0))))
        commands.append(Assert(le(symbol, int_const(box))))
    combo = plus(
        [scaled(3, x, INT), scaled(5, y, INT), scaled(7, z, INT)], INT
    )
    expected = []
    from repro.smtlib import Pop, Push

    for target in targets:
        commands.append(Push(1))
        commands.append(Assert(ge(combo, int_const(target))))
        commands.append(Assert(le(combo, int_const(target))))
        commands.append(CheckSat())
        commands.append(Pop(1))
        reachable = any(
            3 * a + 5 * b + 7 * c == target
            for a in range(box + 1)
            for b in range(box + 1)
            for c in range(box + 1)
        )
        expected.append("sat" if reachable else "unsat")
    return tuple(commands), expected


def diamond_lra_commands(layers, window):
    """Diamond chains over Real: x_{i+1} is x_i + 1 or x_i + 2 (as <=
    disjunctions with >= floors), final value boxed into a window that
    only some path sums can hit."""
    xs = [Symbol(f"d{i}", REAL) for i in range(layers + 1)]
    commands = [Assert(ge(xs[0], rconst(0))), Assert(le(xs[0], rconst(0)))]
    for i in range(layers):
        step1 = plus([xs[i], rconst(1)], REAL)
        step2 = plus([xs[i], rconst(2)], REAL)
        one = Apply("and", (le(xs[i + 1], step1), ge(xs[i + 1], step1)), BOOL)
        two = Apply("and", (le(xs[i + 1], step2), ge(xs[i + 1], step2)), BOOL)
        commands.append(Assert(Apply("or", (one, two), BOOL)))
    low, high = window
    commands.append(Assert(ge(xs[-1], rconst(low))))
    commands.append(Assert(le(xs[-1], rconst(high))))
    commands.append(CheckSat())
    expected = "sat" if layers <= high and low <= 2 * layers else "unsat"
    return tuple(commands), [expected]


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------


def run_workload(name, n, commands, expected, verify):
    obs = Observability.tracing()
    engine = Engine(obs=obs)
    t0 = time.perf_counter()
    result = engine.run(Script(tuple(commands)))
    elapsed = time.perf_counter() - t0
    answers = result.answers
    if verify and expected is not None:
        assert answers == expected, (name, answers, expected)
    totals = {
        key: sum(r.metrics.get(metric, 0) for r in result.check_results)
        for key, metric in (
            ("conflicts", "sat.conflicts"),
            ("theory_lemmas", "sat.theory_lemmas"),
            ("arith_pivots", "theory.arith.pivots"),
            ("arith_branches", "theory.arith.branches"),
        )
    }
    metrics = engine.metrics.snapshot()
    return {
        "workload": name,
        "n": n,
        "nodes": {
            "vars": metrics["engine.vars"],
            "clauses": metrics["engine.clauses_shipped"],
            "atoms": metrics["engine.atoms"],
        },
        "answer": ",".join(answers),
        "solver": totals,
        "seconds": {"solve": round(elapsed, 6)},
        "phases": phase_seconds(obs.tracer),
        "metrics": metrics,
    }


def _run(args: argparse.Namespace) -> int:
    verify = args.check or args.mode == "smoke"
    dense_n, sparse_n, bb_box, bb_targets, diamond_layers = MODE_SIZES[args.mode]
    bb_targets = list(bb_targets)

    results = [
        run_workload(
            "dense_simplex", dense_n, *dense_simplex_commands(dense_n), verify
        ),
        run_workload(
            "sparse_simplex", sparse_n, *sparse_simplex_commands(sparse_n), verify
        ),
        run_workload(
            "branch_bound", bb_box, *branch_bound_commands(bb_box, bb_targets), verify
        ),
        run_workload(
            "diamond_lra",
            diamond_layers,
            *diamond_lra_commands(diamond_layers, (diamond_layers + 1, 2 * diamond_layers)),
            verify,
        ),
    ]

    header = (
        f"{'workload':<16} {'n':>5} {'vars':>7} {'atoms':>6} {'answer':>24} "
        f"{'pivots':>8} {'branches':>9} {'seconds':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in results:
        answer = row["answer"] if len(row["answer"]) <= 24 else row["answer"][:21] + "..."
        print(
            f"{row['workload']:<16} {row['n']:>5} {row['nodes']['vars']:>7} "
            f"{row['nodes']['atoms']:>6} {answer:>24} "
            f"{row['solver']['arith_pivots']:>8} {row['solver']['arith_branches']:>9} "
            f"{row['seconds']['solve']:>10.4f}"
        )

    payload = {
        "bench": "arith",
        "mode": args.mode,
        "python": sys.version.split()[0],
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
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
    parser.add_argument("--check", action="store_true", help="verify answers")
    parser.add_argument("--out", default="BENCH_arith.json", help="JSON output path")
    args = parser.parse_args(argv)
    if args.smoke:
        args.mode = "smoke"
    outcome: list = []
    threading.stack_size(512 * 1024 * 1024)
    worker = threading.Thread(target=lambda: outcome.append(_run(args)))
    worker.start()
    worker.join()
    return outcome[0] if outcome else 1


if __name__ == "__main__":
    raise SystemExit(main())
