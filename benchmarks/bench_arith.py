#!/usr/bin/env python3
"""Benchmark suite for the linear-arithmetic theory: simplex shapes
and integer splits, driven through the full engine.

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
  query needs integer splits, which the SAT core branches on (more of
  them as the box grows).
* ``diamond_lra`` — the classic diamond chain: per-layer disjunctions
  ``x_{i+1} ≤ xᵢ + 1`` or ``x_{i+1} ≤ xᵢ + 2`` with a final window on
  ``x_n``: the SAT core enumerates paths and the theory vetoes them
  with bound explanations — the lazy-SMT search/theory ping-pong for
  arithmetic.

Three modes share the families: ``smoke`` (milliseconds, CI's per-push
gate), ``full`` (the default) and ``heavy`` (seconds-scale simplex
instances for trustworthy timing).

Usage::

    PYTHONPATH=src python benchmarks/bench_arith.py [--mode {smoke,full,heavy}] [--out PATH]
"""

from __future__ import annotations

from fractions import Fraction

from _harness import engine_workload, main  # also puts src/ on sys.path
from repro.smtlib import BOOL, INT, REAL, Apply, Assert, CheckSat, Pop, Push, Symbol
from repro.smtlib.terms import Constant, int_const

# Workload sizes per tier:
# (dense n, sparse n, bb box, bb targets, diamond layers).
MODES = {
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


def workloads(sizes):
    dense_n, sparse_n, bb_box, bb_targets, layers = sizes
    yield engine_workload("dense_simplex", dense_n, *dense_simplex_commands(dense_n))
    yield engine_workload("sparse_simplex", sparse_n, *sparse_simplex_commands(sparse_n))
    yield engine_workload("branch_bound", bb_box, *branch_bound_commands(bb_box, bb_targets))
    yield engine_workload(
        "diamond_lra", layers, *diamond_lra_commands(layers, (layers + 1, 2 * layers))
    )


if __name__ == "__main__":
    raise SystemExit(
        main("arith", MODES, workloads, columns=("theory.arith.pivots", "theory.arith.branches"))
    )
