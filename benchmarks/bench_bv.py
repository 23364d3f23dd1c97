#!/usr/bin/env python3
"""Benchmark suite for the eager bit-blasting path: circuit CNF size
and SAT search over blasted word-level structure, driven through the
full engine.

Four deterministic workload families:

* ``adder_equiv`` — the commutativity miter ``x + y ≠ y + x`` at a
  given width: two ripple-carry adders feed one disequality, the CNF is
  unsat, and the refutation wall-clock tracks how well unit propagation
  flows through carry chains.
* ``mul_equiv`` — the distributivity miter ``a·(b+c) ≠ a·b + a·c``:
  shift-add multipliers dominate the clause count (O(w²) gates), so
  this is the blasting-throughput stress.
* ``factor_sweep`` — the width sweep: one push/pop'd factoring query
  per width (``x · y = K`` for a semiprime ``K`` with both factors
  forced non-trivial), sat at every width; search cost grows with the
  width while the encoding stays incremental.
* ``ult_ladder`` — a strict unsigned chain ``x₀ < x₁ < … < x_m`` packed
  near the width's capacity: almost every assignment violates some
  link, so the solver walks the comparison circuits' propagations hard
  before finding the single ascending ribbon.

Usage::

    PYTHONPATH=src python benchmarks/bench_bv.py [--mode {smoke,full}] [--out PATH]
"""

from __future__ import annotations

from _harness import engine_workload, main  # also puts src/ on sys.path
from repro.smtlib import BOOL, Apply, Assert, CheckSat, Pop, Push, Symbol, bitvec_const, bitvec_sort

# Workload sizes per tier: (adder width, multiplier width, factoring
# widths, (ladder width, ladder length)).
MODES = {
    "smoke": (12, 4, (6, 8), (4, 12)),
    "full": (24, 5, (6, 8, 10, 12), (5, 28)),
}


def bv(name, width):
    return Symbol(name, bitvec_sort(width))


def eq(a, b):
    return Apply("=", (a, b), BOOL)


def neq(a, b):
    return Apply("not", (eq(a, b),), BOOL)


def word(op, a, b):
    return Apply(op, (a, b), a.sort)


def ult(a, b):
    return Apply("bvult", (a, b), BOOL)


# ---------------------------------------------------------------------------
# Workload generators.
# ---------------------------------------------------------------------------


def adder_equiv_commands(width):
    """Commutativity miter: x + y != y + x, unsat at any width."""
    x, y = bv("x", width), bv("y", width)
    commands = (
        Assert(neq(word("bvadd", x, y), word("bvadd", y, x))),
        CheckSat(),
    )
    return commands, ["unsat"]


def mul_equiv_commands(width):
    """Distributivity miter: a*(b+c) != a*b + a*c, unsat at any width."""
    a, b, c = bv("a", width), bv("b", width), bv("c", width)
    lhs = word("bvmul", a, word("bvadd", b, c))
    rhs = word("bvadd", word("bvmul", a, b), word("bvmul", a, c))
    return (Assert(neq(lhs, rhs)), CheckSat()), ["unsat"]


#: Width → a semiprime that fits it, with both factors > 1.
SEMIPRIMES = {6: 3 * 5, 8: 11 * 13, 10: 17 * 19, 12: 29 * 31}


def factor_sweep_commands(widths):
    """One factoring query per width: x*y = K, x > 1, y > 1 — sat."""
    commands = []
    expected = []
    for width in widths:
        product = SEMIPRIMES[width]
        x, y = bv(f"fx{width}", width), bv(f"fy{width}", width)
        one = bitvec_const(1, width)
        commands.append(Push(1))
        commands.append(Assert(eq(word("bvmul", x, y), bitvec_const(product, width))))
        commands.append(Assert(ult(one, x)))
        commands.append(Assert(ult(one, y)))
        commands.append(CheckSat())
        commands.append(Pop(1))
        expected.append("sat")
    return tuple(commands), expected


def ult_ladder_commands(width, length):
    """Strict ascending chain of `length` words packed into the width's
    value range: sat, but with very little slack."""
    xs = [bv(f"l{i}", width) for i in range(length)]
    commands = [Assert(ult(bitvec_const(1, width), xs[0]))]
    for left, right in zip(xs, xs[1:]):
        commands.append(Assert(ult(left, right)))
    commands.append(CheckSat())
    return tuple(commands), ["sat"]


def workloads(sizes):
    adder_width, mul_width, sweep_widths, (ladder_width, ladder_length) = sizes
    yield engine_workload("adder_equiv", adder_width, *adder_equiv_commands(adder_width))
    yield engine_workload("mul_equiv", mul_width, *mul_equiv_commands(mul_width))
    yield engine_workload("factor_sweep", sweep_widths[-1], *factor_sweep_commands(sweep_widths))
    yield engine_workload(
        "ult_ladder", ladder_length, *ult_ladder_commands(ladder_width, ladder_length)
    )


if __name__ == "__main__":
    raise SystemExit(
        main("bv", MODES, workloads, columns=("theory.bv.gates", "sat.conflicts"))
    )
