#!/usr/bin/env python3
"""Benchmark harness for the eager bit-blasting path: circuit CNF size
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

Results are printed as a table and written as JSON (``BENCH_bv.json``),
the same shape as the other suites, so ``check_regression.py``
auto-gates them against ``benchmarks/baselines/BENCH_bv.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_bv.py [--smoke] [--out PATH]
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
    Apply,
    Assert,
    CheckSat,
    Pop,
    Push,
    Script,
    Symbol,
    bitvec_const,
    bitvec_sort,
)


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
            ("decisions", "sat.decisions"),
            ("bv_atoms_blasted", "theory.bv.atoms_blasted"),
            ("bv_gates", "theory.bv.gates"),
            ("bv_bits", "theory.bv.bits"),
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
    verify = args.check or args.smoke
    adder_width = 12 if args.smoke else 24
    mul_width = 4 if args.smoke else 5
    sweep_widths = (6, 8) if args.smoke else (6, 8, 10, 12)
    ladder_width, ladder_length = (4, 12) if args.smoke else (5, 28)

    results = [
        run_workload(
            "adder_equiv", adder_width, *adder_equiv_commands(adder_width), verify
        ),
        run_workload("mul_equiv", mul_width, *mul_equiv_commands(mul_width), verify),
        run_workload(
            "factor_sweep",
            sweep_widths[-1],
            *factor_sweep_commands(sweep_widths),
            verify,
        ),
        run_workload(
            "ult_ladder",
            ladder_length,
            *ult_ladder_commands(ladder_width, ladder_length),
            verify,
        ),
    ]

    header = (
        f"{'workload':<14} {'n':>4} {'vars':>7} {'clauses':>8} {'answer':>16} "
        f"{'blasted':>8} {'gates':>8} {'conflicts':>10} {'seconds':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in results:
        answer = row["answer"] if len(row["answer"]) <= 16 else row["answer"][:13] + "..."
        print(
            f"{row['workload']:<14} {row['n']:>4} {row['nodes']['vars']:>7} "
            f"{row['nodes']['clauses']:>8} {answer:>16} "
            f"{row['solver']['bv_atoms_blasted']:>8} {row['solver']['bv_gates']:>8} "
            f"{row['solver']['conflicts']:>10} {row['seconds']['solve']:>10.4f}"
        )

    payload = {
        "bench": "bv",
        "mode": "smoke" if args.smoke else "full",
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
    parser.add_argument("--smoke", action="store_true", help="small sizes + full verification")
    parser.add_argument("--check", action="store_true", help="verify answers")
    parser.add_argument("--out", default="BENCH_bv.json", help="JSON output path")
    args = parser.parse_args(argv)
    outcome: list = []
    threading.stack_size(512 * 1024 * 1024)
    worker = threading.Thread(target=lambda: outcome.append(_run(args)))
    worker.start()
    worker.join()
    return outcome[0] if outcome else 1


if __name__ == "__main__":
    raise SystemExit(main())
