#!/usr/bin/env python3
"""Benchmark harness for the parallel portfolio runner.

Races the diversified :class:`~repro.sat.SolverConfig` lineup against the
sequential engine on the two heavy-tier families where single-trajectory
luck dominates wall clock:

* ``pigeonhole`` — PHP(n+1, n), resolution-hard and always unsat.
* ``random_3sat`` — uniform 3-SAT at the phase-transition ratio (fixed
  seeds, mixed answers).

Measurement is **interleaved A/B**: for every worker count the harness
runs the sequential engine immediately before the portfolio race and
derives the speedup from that adjacent pair, so machine drift between
the first and last run cannot flatter either side.  Every run's verdicts
are asserted equal to the sequential engine's (a portfolio must never
change an answer), and the win-attribution table records which config
won each race.

The JSON shape matches the other suites (``results[*].workload`` +
``seconds``), so ``check_regression.py`` gates it the moment a baseline
is committed.  NOTE: on a single-core container the portfolio cannot
beat the sequential engine except by diversification luck — workers
time-share one CPU.  Speedups here are honest measurements of whatever
hardware CI provides, not a claim about the 1-core case.

Usage::

    PYTHONPATH=src python benchmarks/bench_portfolio.py \
        [--mode {smoke,full,heavy}] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from bench_sat import pigeonhole_clauses, random_3sat_clauses  # noqa: E402

from repro import run_script  # noqa: E402
from repro.portfolio import solve_portfolio  # noqa: E402

#: Per-tier sizes: (pigeonhole holes, 3-SAT vars, 3-SAT seeds, worker counts).
MODE_SIZES = {
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


def sequential_run(script: str) -> tuple[list[str], float, dict[str, int]]:
    t0 = time.perf_counter()
    result = run_script(script, timeout=RACE_TIMEOUT)
    elapsed = time.perf_counter() - t0
    metrics = result.check_results[0].metrics
    solver = {
        key: metrics.get(f"sat.{key}", 0)
        for key in ("conflicts", "decisions", "propagations", "restarts", "learned")
    }
    return result.answers, elapsed, solver


def portfolio_run(script: str, workers: int) -> tuple[list[str], float, str]:
    t0 = time.perf_counter()
    outcome = solve_portfolio(script, workers=workers, timeout=RACE_TIMEOUT)
    elapsed = time.perf_counter() - t0
    return (
        outcome.result.answers,
        elapsed,
        outcome.winner_config.name,
    )


def run_family(
    name: str,
    n: int,
    script: str,
    worker_counts: tuple[int, ...],
) -> dict:
    seconds: dict[str, float] = {}
    speedup: dict[str, float] = {}
    wins: dict[str, str] = {}
    baseline_answers, seq_s, solver = sequential_run(script)
    seconds["sequential"] = round(seq_s, 6)
    for workers in worker_counts:
        # Interleaved A/B: a fresh sequential run right before each race.
        answers_a, seq_adjacent, _ = sequential_run(script)
        assert answers_a == baseline_answers, (name, workers, "sequential drifted")
        answers_b, port_s, winner = portfolio_run(script, workers)
        assert answers_b == baseline_answers, (
            f"{name}: portfolio w{workers} changed the verdict "
            f"({answers_b} vs {baseline_answers})"
        )
        seconds[f"portfolio_w{workers}"] = round(port_s, 6)
        speedup[f"w{workers}"] = round(seq_adjacent / port_s, 3) if port_s else 0.0
        wins[f"w{workers}"] = winner
    return {
        "workload": name,
        "n": n,
        "answer": ",".join(baseline_answers),
        "solver": solver,
        "seconds": seconds,
        "speedup": speedup,
        "wins": wins,
    }


def _run(args: argparse.Namespace) -> int:
    php_n, sat3_n, sat3_seeds, worker_counts = MODE_SIZES[args.mode]
    results = [
        run_family(
            "pigeonhole",
            php_n,
            clauses_to_script(pigeonhole_clauses(php_n)),
            worker_counts,
        )
    ]
    for seed in sat3_seeds:
        results.append(
            run_family(
                f"random_3sat_s{seed}",
                sat3_n,
                clauses_to_script(random_3sat_clauses(sat3_n, seed)),
                worker_counts,
            )
        )

    header = (
        f"{'workload':<18} {'n':>5} {'answer':>8} {'seq_s':>8} "
        + " ".join(f"{'w' + str(w) + '_s':>8} {'x' + str(w):>6}" for w in worker_counts)
    )
    print(header)
    print("-" * len(header))
    for row in results:
        cells = " ".join(
            f"{row['seconds'][f'portfolio_w{w}']:>8.3f} "
            f"{row['speedup'][f'w{w}']:>6.2f}"
            for w in worker_counts
        )
        print(
            f"{row['workload']:<18} {row['n']:>5} {row['answer']:>8} "
            f"{row['seconds']['sequential']:>8.3f} {cells}"
        )
    print("\nwin attribution:")
    for row in results:
        attribution = ", ".join(
            f"{key}={value}" for key, value in sorted(row["wins"].items())
        )
        print(f"  {row['workload']}: {attribution}")

    payload = {
        "bench": "portfolio",
        "mode": args.mode,
        "cpus": os.cpu_count(),
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
        help="workload tier: smoke (ms), full (sub-second), heavy (seconds)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="alias for --mode=smoke"
    )
    parser.add_argument("--out", default="BENCH_portfolio.json", help="JSON output path")
    args = parser.parse_args(argv)
    if args.smoke:
        args.mode = "smoke"
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
