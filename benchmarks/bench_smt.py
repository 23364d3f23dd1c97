#!/usr/bin/env python3
"""Benchmark suite for the DPLL(T) engine: EUF workloads and
incremental push/pop solving.

Four deterministic workload families, all driven through the full
engine (parse-free: scripts are built as command tuples):

* ``euf_orbit`` — the orbit collapse ``f^n(x) = x ∧ f^(n+1)(x) = x ∧
  f(x) ≠ x``: a deep congruence-closure chain, always unsat; stresses
  registration, congruence propagation and proof-forest explanations.
* ``euf_pigeonhole`` — n+1 constants mapped by an uninterpreted ``f``
  into n named holes, images pairwise distinct: the SAT core enumerates
  hole choices and EUF vetoes them with blocking lemmas — the classic
  lazy-SMT search/theory ping-pong, always unsat.
* ``euf_model`` — a satisfiable equality web over function chains;
  measures closure plus model construction and in-engine validation.
* ``incremental`` — a shared boolean core (xor chain) plus ``rounds``
  push/assert/check/pop deltas, solved twice: once through ONE persistent
  engine (selector-literal frames, retained learned clauses, zero
  re-encoding of the core; the ``incremental`` span) and once from
  scratch with a fresh engine per query (the ``scratch`` span).  The
  row reports their ratio as ``incremental.speedup``, and the run
  asserts that both paths agree on every answer and that the
  persistent path is at least 2x faster (the acceptance criterion).

Usage::

    PYTHONPATH=src python benchmarks/bench_smt.py [--mode {smoke,full}] [--out PATH]
"""

from __future__ import annotations

from functools import partial

from _harness import Outcome, Workload, engine_workload, main  # also puts src/ on sys.path
from repro import Engine
from repro.obs import Observability
from repro.smtlib import (
    BOOL,
    Apply,
    Assert,
    CheckSat,
    DeclareFun,
    Pop,
    Push,
    Script,
    Symbol,
    uninterpreted_sort,
)

# Workload sizes per tier: (orbit length, pigeonhole holes, model web
# size, incremental chain length, incremental rounds).
MODES = {
    "smoke": (60, 4, 80, 120, 6),
    "full": (400, 6, 600, 500, 14),
}

U = uninterpreted_sort("U")


def eq(a, b):
    return Apply("=", (a, b), BOOL)


def neg(a):
    return Apply("not", (a,), BOOL)


def f_chain(term, length):
    for _ in range(length):
        term = Apply("f", (term,), U)
    return term


# ---------------------------------------------------------------------------
# Workload generators.
# ---------------------------------------------------------------------------


def orbit_commands(n):
    """f^n(x) = x, f^(n+1)(x) = x, f(x) != x — unsat by gcd collapse."""
    x = Symbol("x", U)
    return (
        DeclareFun("f", (U,), U),
        Assert(eq(f_chain(x, n), x)),
        Assert(eq(f_chain(x, n + 1), x)),
        Assert(neg(eq(f_chain(x, 1), x))),
        CheckSat(),
    )


def euf_pigeonhole_commands(holes):
    """holes+1 pigeons mapped into ``holes`` named cells, images pairwise
    distinct — unsat, found through SAT/EUF lemma exchange."""
    pigeons = [Symbol(f"p{i}", U) for i in range(holes + 1)]
    cells = [Symbol(f"h{j}", U) for j in range(holes)]
    commands = [DeclareFun("f", (U,), U)]
    for pigeon in pigeons:
        image = Apply("f", (pigeon,), U)
        choice = tuple(eq(image, cell) for cell in cells)
        commands.append(
            Assert(choice[0] if len(choice) == 1 else Apply("or", choice, BOOL))
        )
    for i in range(len(pigeons)):
        for j in range(i + 1, len(pigeons)):
            commands.append(
                Assert(
                    neg(eq(Apply("f", (pigeons[i],), U), Apply("f", (pigeons[j],), U)))
                )
            )
    commands.append(CheckSat())
    return tuple(commands)


def euf_model_commands(n):
    """A satisfiable equality web: chains glued at every other link plus
    scattered disequalities; exercises model construction/validation."""
    commands = [DeclareFun("f", (U,), U)]
    symbols = [Symbol(f"a{i}", U) for i in range(n)]
    for i in range(n - 1):
        if i % 2 == 0:
            commands.append(Assert(eq(f_chain(symbols[i], 2), symbols[i + 1])))
        else:
            commands.append(Assert(eq(symbols[i], f_chain(symbols[i + 1], 1))))
    for i in range(0, n - 3, 4):
        commands.append(Assert(neg(eq(symbols[i], symbols[i + 3]))))
    commands.append(CheckSat())
    return tuple(commands)


def xor_core_assertions(length):
    """The bench_sat xor chain as terms: z_i = x_i xor z_{i-1}, plus the
    direct parity — satisfiable, with plenty of shared structure."""
    xs = [Symbol(f"x{i}", BOOL) for i in range(length)]
    zs = [Symbol(f"z{i}", BOOL) for i in range(length)]
    assertions = [eq(zs[0], xs[0])]
    for i in range(1, length):
        assertions.append(eq(zs[i], Apply("xor", (xs[i], zs[i - 1]), BOOL)))
    assertions.append(eq(zs[-1], Apply("xor", tuple(xs), BOOL)))
    return assertions, xs, zs


def incremental_workload(length, rounds):
    """Returns (full incremental script, per-check flattened scripts,
    expected answers)."""
    base, xs, zs = xor_core_assertions(length)
    commands = [Assert(term) for term in base]
    commands.append(CheckSat())
    flattened = [Script(tuple(Assert(t) for t in base) + (CheckSat(),))]
    expected = ["sat"]
    for round_index in range(rounds):
        extra_sat = round_index % 2 == 0
        if extra_sat:
            # Pin a couple of chain variables: still satisfiable.
            extras = [
                xs[(3 * round_index) % length],
                neg(xs[(3 * round_index + 1) % length]),
            ]
            expected.append("sat")
        else:
            # Contradict one chain link (a small, local delta): unsat.
            k = 1 + (round_index * 7) % (length - 1)
            extras = [neg(eq(zs[k], Apply("xor", (xs[k], zs[k - 1]), BOOL)))]
            expected.append("unsat")
        commands.append(Push(1))
        commands.extend(Assert(term) for term in extras)
        commands.append(CheckSat())
        commands.append(Pop(1))
        flattened.append(
            Script(
                tuple(Assert(t) for t in base)
                + tuple(Assert(t) for t in extras)
                + (CheckSat(),)
            )
        )
    return Script(tuple(commands)), flattened, expected


# ---------------------------------------------------------------------------
# Runners.
# ---------------------------------------------------------------------------


def run_incremental(script, flattened, rounds, tracer) -> Outcome:
    with tracer.span("incremental") as incremental:
        engine = Engine(obs=Observability(tracer=tracer))
        result = engine.run(script)
    with tracer.span("scratch") as scratch:
        scratch_answers = [Engine().run(reference).answers[0] for reference in flattened]
    incremental_s = incremental.span.total_ns / 1e9
    scratch_s = scratch.span.total_ns / 1e9
    speedup = scratch_s / incremental_s if incremental_s > 0 else float("inf")
    assert scratch_answers == result.answers, (scratch_answers, result.answers)
    # The core is never re-encoded after the first check ...
    assert all(
        r.metrics["engine.tseitin_new_vars"] < 50 for r in result.check_results[1:]
    ), "core re-encoded"
    # ... and the acceptance criterion: >= 2x over from-scratch.  The
    # full bar applies only above a timing floor (mirroring
    # check_regression's clamp) so scheduler noise on CI-sized smoke
    # runs cannot flake the build; smoke still sanity-checks >= 1.2x
    # against a locally-measured ~3x.
    if scratch_s >= 0.25:
        assert speedup >= 2.0, f"incremental speedup only {speedup:.2f}x"
    else:
        assert speedup >= 1.2, f"incremental speedup only {speedup:.2f}x"
    return Outcome(
        ",".join(result.answers),
        {
            **engine.metrics.snapshot(),
            "incremental.rounds": rounds,
            "incremental.speedup": round(speedup, 2),
        },
    )


def workloads(sizes):
    orbit_n, php_n, model_n, chain_n, rounds = sizes
    yield engine_workload("euf_orbit", orbit_n, orbit_commands(orbit_n), ["unsat"])
    yield engine_workload("euf_pigeonhole", php_n, euf_pigeonhole_commands(php_n), ["unsat"])
    yield engine_workload("euf_model", model_n, euf_model_commands(model_n), ["sat"])
    script, flattened, expected = incremental_workload(chain_n, rounds)
    yield Workload(
        "incremental",
        chain_n,
        partial(run_incremental, script, flattened, rounds),
        ",".join(expected),
    )


if __name__ == "__main__":
    raise SystemExit(
        main(
            "smt",
            MODES,
            workloads,
            columns=("sat.conflicts", "engine.clauses_shipped", "incremental.speedup"),
        )
    )
