"""``python -m repro`` — decide SMT-LIB scripts from the command line.

Reads each ``.smt2`` script, executes it with the incremental
:class:`repro.engine.Engine` and prints the solver output: one
``sat``/``unsat``/``unknown`` line per ``(check-sat)``, a ``(model ...)``
block per ``(get-model)`` and a value list per ``(get-value ...)``.

When a script carries a ``(set-info :status sat|unsat)`` annotation, every
computed answer is compared against it; a contradiction prints a warning
to stderr, and with ``--strict-status`` also fails the run.

Observability flags:

* ``--stats`` prints each ``check-sat``'s namespaced ``metrics``
  (``sat.conflicts``, ``theory.arith.pivots``,
  ``engine.tseitin_new_vars`` ...) as one sorted comment line.
* ``--stats-json`` replaces the normal solver output with **one** JSON
  document covering every input file — per-check namespaced
  ``metrics`` deltas, per-phase nanoseconds and a final whole-run
  registry snapshot — so the output pipes straight into
  ``python -m json.tool`` or ``jq``.  Warnings and ``--profile`` tables
  move to stderr.
* ``--trace FILE`` streams the structured search-event log (decisions,
  conflicts/learns with LBD, restarts, theory lemmas/conflicts with
  plugin provenance, push/pop, unknown reasons) as JSONL to ``FILE``,
  one shared bounded log across all inputs with a ``script`` event per
  file.
* ``--profile`` records hierarchical phase spans (parse → prepare →
  encode → search → theory-check → model/validate) and prints a
  per-file timing table as comment lines.
* ``--dimacs PATH`` dumps the final solver CNF — gates, frame-selector
  guards, level-0 facts and theory lemmas — in DIMACS format (with
  several inputs, ``PATH.<index>`` per file).

Certification flags:

* ``--proof PATH`` turns proof production on and writes each ``unsat``
  answer's DRAT-style clause proof to ``PATH`` (``PATH.<index>`` per
  file with several inputs, and ``.c<check>`` per check when a script
  has several unsat answers).
* ``--check-proofs`` turns proof production on and replays every
  ``unsat`` answer's proof through the independent RUP/DRAT checker; a
  missing or rejected proof prints an error and fails the run.

Exit status: 0 on success, 1 when any file failed to read, parse or
type-check (or ``--check-proofs`` rejected a proof), 2 when
``--strict-status`` found a contradicted annotation.

Parallelism and budgets:

* ``--timeout SECS`` gives each script a wall-clock budget; expired
  checks answer ``unknown`` with reason ``timeout``.
* ``--portfolio N`` races N diversified solver configurations in worker
  processes, first definitive answer wins (losers are cancelled
  cooperatively).  ``--dimacs``/``--trace`` are sequential-only.

Usage::

    python -m repro file.smt2 [more.smt2 ...] [--stats] [--stats-json]
                    [--trace FILE] [--profile] [--conflict-limit N]
                    [--timeout SECS] [--portfolio N]
                    [--dimacs PATH] [--proof PATH] [--check-proofs]
                    [--strict-status]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

from .engine import Engine
from .errors import ReproError
from .portfolio import solve_portfolio
from .obs import (
    EventLog,
    Observability,
    Tracer,
    format_phase_table,
    phase_totals,
    set_current_tracer,
    trace_span,
)
from .proof import check_proof
from .smtlib import parse_script


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Execute SMT-LIB scripts and decide their check-sat commands.",
    )
    parser.add_argument("paths", nargs="+", metavar="script.smt2", help="scripts to run")
    parser.add_argument(
        "--conflict-limit",
        type=int,
        default=None,
        metavar="N",
        help="answer unknown after N CDCL conflicts per check-sat",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECS",
        help="wall-clock budget per script; expired checks answer unknown "
        "with reason timeout",
    )
    parser.add_argument(
        "--portfolio",
        type=int,
        default=None,
        metavar="N",
        help="race N diversified solver configurations in worker processes; "
        "the first definitive answer wins",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print each check-sat's namespaced metrics as a comment line",
    )
    parser.add_argument(
        "--stats-json",
        action="store_true",
        help="print one JSON document (per-check namespaced metrics, phase "
        "timings) instead of the solver output",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="stream the structured search-event log (JSONL) to FILE",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase spans and print a timing table per file",
    )
    parser.add_argument(
        "--dimacs",
        metavar="PATH",
        default=None,
        help="dump the final CNF in DIMACS format (PATH.<i> per file when "
        "several scripts are given)",
    )
    parser.add_argument(
        "--proof",
        metavar="PATH",
        default=None,
        help="produce clause proofs and write each unsat answer's DRAT "
        "proof to PATH (PATH.<i> per file, .c<check> per extra unsat check)",
    )
    parser.add_argument(
        "--check-proofs",
        action="store_true",
        help="produce clause proofs and verify every unsat answer with the "
        "independent RUP/DRAT checker (a rejected proof fails the run)",
    )
    parser.add_argument(
        "--strict-status",
        action="store_true",
        help="exit non-zero when an answer contradicts (set-info :status ...)",
    )
    args = parser.parse_args(argv)

    racing = args.portfolio is not None and args.portfolio > 1
    if racing and (args.dimacs is not None or args.trace is not None):
        parser.error("--dimacs and --trace are sequential-only: they expose "
                     "worker-local solver state that a portfolio race does "
                     "not keep")

    events = EventLog(args.trace) if args.trace is not None else None
    tracing = args.profile or args.stats_json or events is not None
    status = 0
    contradicted = False
    documents: list[dict[str, Any]] = []
    try:
        for index, path in enumerate(args.paths):
            if len(args.paths) > 1 and not args.stats_json:
                print(f"; {path}")
            if events is not None:
                events.emit("script", path=str(path))
            tracer = Tracer() if tracing else None
            previous = set_current_tracer(tracer) if tracer is not None else None
            try:
                try:
                    with trace_span("parse"):
                        script = parse_script(Path(path).read_text(encoding="utf-8"))
                except (OSError, ReproError) as exc:
                    print(f'(error "{path}: {exc}")', file=sys.stderr)
                    status = 1
                    continue
                obs = (
                    Observability(tracer=tracer, events=events)
                    if (tracer is not None or events is not None)
                    else None
                )
                produce_proofs = args.proof is not None or args.check_proofs
                outcome = None
                if racing:
                    outcome = solve_portfolio(
                        script,
                        workers=args.portfolio,
                        conflict_limit=args.conflict_limit,
                        timeout=args.timeout,
                        obs=obs,
                        produce_proofs=produce_proofs,
                    )
                    result = outcome.result
                    final_metrics = obs.metrics.snapshot() if obs is not None else {}
                else:
                    engine = Engine(
                        conflict_limit=args.conflict_limit,
                        obs=obs,
                        produce_proofs=produce_proofs,
                        timeout=args.timeout,
                    )
                    result = engine.run(script)
                    final_metrics = engine.metrics.snapshot()
            finally:
                if tracer is not None:
                    set_current_tracer(previous)
            if not args.stats_json:
                for line in result.output:
                    print(line)
            for check_index in result.status_mismatches:
                check = result.check_results[check_index]
                contradicted = True
                print(
                    f"; warning: {path}: check-sat #{check_index} answered "
                    f"{check.answer} but :status is {check.expected}",
                    file=sys.stderr,
                )
            if produce_proofs:
                unsat_checks = [
                    (check_index, check)
                    for check_index, check in enumerate(result.check_results)
                    if check.answer == "unsat"
                ]
                for check_index, check in unsat_checks:
                    if check.proof is None:
                        print(
                            f'(error "{path}: check-sat #{check_index} is unsat'
                            ' but carries no proof")',
                            file=sys.stderr,
                        )
                        status = 1
                        continue
                    if args.check_proofs:
                        verdict = check_proof(check.proof)
                        if not verdict.ok:
                            print(
                                f'(error "{path}: check-sat #{check_index} proof'
                                f' rejected: {verdict.error}")',
                                file=sys.stderr,
                            )
                            status = 1
                    if args.proof is not None:
                        base = (
                            args.proof
                            if len(args.paths) == 1
                            else f"{args.proof}.{index}"
                        )
                        out_path = (
                            base
                            if len(unsat_checks) == 1
                            else f"{base}.c{check_index}"
                        )
                        Path(out_path).write_text(
                            check.proof.to_drat(include_inputs=True),
                            encoding="utf-8",
                        )
            if args.stats and not args.stats_json and outcome is not None:
                winner = outcome.reports[outcome.winner]
                statuses = ", ".join(
                    f"w{report.index}={report.status}"
                    for report in outcome.reports
                )
                print(
                    f"; portfolio: winner w{outcome.winner} "
                    f"({winner.config.name}) in {outcome.elapsed:.2f}s "
                    f"[{statuses}]"
                )
            if args.stats and not args.stats_json:
                for check_index, check in enumerate(result.check_results):
                    detail = ", ".join(
                        f"{key}={value}" for key, value in sorted(check.metrics.items())
                    )
                    reason = f" reason={check.reason}" if check.reason else ""
                    print(f"; check-sat #{check_index}: {check.answer}{reason} ({detail})")
            if args.profile and tracer is not None:
                sink = sys.stderr if args.stats_json else sys.stdout
                print(f"; {path}: phase timings", file=sink)
                print(format_phase_table(tracer, prefix="; "), file=sink)
            if args.stats_json:
                phases = (
                    {p: row["ns"] for p, row in phase_totals(tracer).items()}
                    if tracer is not None
                    else {}
                )
                documents.append(
                    {
                        "path": str(path),
                        "answers": result.answers,
                        "checks": [
                            {
                                "answer": check.answer,
                                "reason": check.reason,
                                "expected": check.expected,
                                "metrics": check.metrics,
                                "phases": check.phases,
                                "proof_steps": (
                                    len(check.proof)
                                    if check.proof is not None
                                    else None
                                ),
                                "unsat_core": (
                                    list(check.unsat_core)
                                    if check.unsat_core is not None
                                    else None
                                ),
                            }
                            for check in result.check_results
                        ],
                        "phases": phases,
                        "metrics": final_metrics,
                    }
                )
            if args.dimacs is not None:
                out_path = (
                    args.dimacs if len(args.paths) == 1 else f"{args.dimacs}.{index}"
                )
                text = engine.dimacs(comments=[f"final CNF of {path}"])
                Path(out_path).write_text(text, encoding="utf-8")
    finally:
        if events is not None:
            events.close()
    if args.stats_json:
        print(json.dumps({"files": documents}, indent=2))
    if status == 0 and contradicted and args.strict_status:
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
