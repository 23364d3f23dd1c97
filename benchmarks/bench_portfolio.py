#!/usr/bin/env python3
"""Benchmark suite for the parallel portfolio runner.

Races the diversified :class:`~repro.sat.SolverConfig` lineup against the
sequential engine on the two heavy-tier families where single-trajectory
luck dominates wall clock:

* ``pigeonhole`` — PHP(n+1, n), resolution-hard and always unsat.
* ``random_3sat`` — uniform 3-SAT at the phase-transition ratio (fixed
  seeds, mixed answers).

Measurement is **interleaved A/B**: for every worker count the suite
runs the sequential engine immediately before the portfolio race and
derives the speedup from that adjacent pair, so machine drift between
the first and last run cannot flatter either side.  Every run's verdicts
are asserted equal to the sequential engine's (a portfolio must never
change an answer).  The row's ``seconds`` time the first sequential run
and each race (``sequential``, ``portfolio_w<N>``); ``speedup`` and
``wins`` (the config that won each race) are the only suite-specific
row fields.  NOTE: on a single-core container the portfolio cannot
beat the sequential engine except by diversification luck — workers
time-share one CPU.  Speedups here are honest measurements of whatever
hardware CI provides, not a claim about the 1-core case.

Usage::

    PYTHONPATH=src python benchmarks/bench_portfolio.py [--mode {smoke,full,heavy}] [--out PATH]
"""

from __future__ import annotations

import time
from functools import partial

from _harness import Outcome, Workload, main  # also puts src/ on sys.path
from bench_sat import pigeonhole_clauses, random_3sat_clauses
from repro import run_script
from repro.portfolio import solve_portfolio

#: Per-tier sizes: (pigeonhole holes, 3-SAT vars, 3-SAT seeds, worker counts).
MODES = {
    "smoke": (4, 30, (0,), (1, 2)),
    "full": (6, 120, (0, 1), (1, 2, 4)),
    "heavy": (7, 200, (0, 1), (1, 2, 4, 8)),
}
#: Hard wall-clock ceiling per race, so a pathological heavy run cannot
#: wedge CI; hitting it shows up as a verdict mismatch (unknown/timeout).
RACE_TIMEOUT = 600.0


def clauses_to_script(clauses: list[list[int]]) -> str:
    """Render a CNF clause list as an SMT-LIB script over Bool consts."""
    num_vars = max(abs(lit) for clause in clauses for lit in clause)
    lines = ["(set-logic QF_UF)"]
    lines.extend(f"(declare-const b{v} Bool)" for v in range(1, num_vars + 1))
    for clause in clauses:
        lits = " ".join(
            f"b{lit}" if lit > 0 else f"(not b{-lit})" for lit in clause
        )
        lines.append(f"(assert (or {lits}))")
    lines.append("(check-sat)")
    return "\n".join(lines)


def run_family(script: str, worker_counts: tuple[int, ...], tracer) -> Outcome:
    with tracer.span("sequential"):
        baseline = run_script(script, timeout=RACE_TIMEOUT)
    speedup: dict[str, float] = {}
    wins: dict[str, str] = {}
    for workers in worker_counts:
        # Interleaved A/B: a fresh sequential run right before each race,
        # timed for the speedup only, outside the row's spans.
        t0 = time.perf_counter()
        adjacent = run_script(script, timeout=RACE_TIMEOUT)
        seq_s = time.perf_counter() - t0
        assert adjacent.answers == baseline.answers, (workers, "sequential drifted")
        with tracer.span(f"portfolio_w{workers}") as race:
            outcome = solve_portfolio(script, workers=workers, timeout=RACE_TIMEOUT)
        assert outcome.result.answers == baseline.answers, (
            f"portfolio w{workers} changed the verdict "
            f"({outcome.result.answers} vs {baseline.answers})"
        )
        port_s = race.span.total_ns / 1e9
        speedup[f"w{workers}"] = round(seq_s / port_s, 3) if port_s else 0.0
        wins[f"w{workers}"] = outcome.winner_config.name
    return Outcome(
        ",".join(baseline.answers),
        baseline.check_results[0].metrics,
        {"speedup": speedup, "wins": wins},
    )


def workloads(sizes):
    php_n, sat3_n, sat3_seeds, worker_counts = sizes
    script = clauses_to_script(pigeonhole_clauses(php_n))
    yield Workload("pigeonhole", php_n, partial(run_family, script, worker_counts))
    for seed in sat3_seeds:
        script = clauses_to_script(random_3sat_clauses(sat3_n, seed))
        yield Workload(f"random_3sat_s{seed}", sat3_n, partial(run_family, script, worker_counts))


if __name__ == "__main__":
    raise SystemExit(main("portfolio", MODES, workloads, columns=("sat.conflicts",)))
