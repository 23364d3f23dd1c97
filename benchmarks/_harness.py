"""The one harness of the ``bench_*.py`` suites: command line, traced run,
row schema, table and JSON writer.

A suite keeps its generators, a size table ``MODES`` (``{mode: sizes}``)
and a ``workloads(sizes)`` function that yields its :class:`Workload`
rows, and hands them to :func:`main`, which owns the rest:

* **The command line.**  ``--mode`` picks a row of the size table
  (default ``full``) and ``--out`` the JSON path (default
  ``BENCH_<bench>.json``).
* **The traced run.**  Each workload gets a fresh
  :class:`~repro.obs.Tracer` and marks its timed regions as root spans,
  so input generation and verification stay outside them.  Every mode
  verifies: a workload checks its models, proofs and cores after its
  spans close, and the harness checks its answer against the expected
  one.
* **One row per workload**, ``{workload, n, answer, seconds, metrics}``.
  ``seconds.total`` is the sum of the root spans, the wall-clock that
  ``check_regression.py`` gates; every other ``seconds`` key is a span
  path (``solve/check-sat/search``).  ``metrics`` holds every count under
  a namespaced key (``sat.conflicts``, ``theory.arith.pivots``,
  ``nodes.dag_after``).  The portfolio's ``speedup`` and ``wins`` are the
  only other fields.
* **The table and the JSON document**
  ``{bench, mode, python, cpus, results}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro import Engine  # noqa: E402
from repro.obs import Observability, Tracer, phase_seconds  # noqa: E402
from repro.smtlib import Script  # noqa: E402


@dataclass
class Outcome:
    """What one run produced: its answer (one per check, comma-joined),
    its namespaced counts and any suite-specific row fields."""

    answer: str
    metrics: dict[str, Any]
    fields: dict[str, Any] = field(default_factory=dict)


@dataclass
class Workload:
    """One row of a suite.  ``run`` receives the row's tracer and returns
    an :class:`Outcome`; ``expected``, when the answer is known in
    advance, is checked after the run."""

    name: str
    n: int
    run: Callable[[Tracer], Outcome]
    expected: Optional[str] = None


def prefixed(namespace: str, counts: dict[str, Any]) -> dict[str, Any]:
    """``counts`` under ``namespace.``: the metrics key convention."""
    return {f"{namespace}.{key}": value for key, value in counts.items()}


def engine_workload(name: str, n: int, commands, expected: list[str]) -> Workload:
    """A workload that runs ``commands`` through one traced engine; its
    counts are the engine's registry snapshot."""

    def run(tracer: Tracer) -> Outcome:
        engine = Engine(obs=Observability(tracer=tracer))
        with tracer.span("solve"):
            result = engine.run(Script(tuple(commands)))
        return Outcome(",".join(result.answers), engine.metrics.snapshot())

    return Workload(name, n, run, ",".join(expected))


def measure(workload: Workload) -> dict[str, Any]:
    """Run one workload and return its row."""
    tracer = Tracer()
    try:
        outcome = workload.run(tracer)
    except Exception as error:  # a failed check: say which workload failed it
        error.add_note(f"in workload {workload.name}")
        raise
    if workload.expected is not None and outcome.answer != workload.expected:
        raise AssertionError(
            f"{workload.name}: answered {outcome.answer}, expected {workload.expected}"
        )
    total = sum(span.total_ns for span in tracer.roots) / 1e9
    return {
        "workload": workload.name,
        "n": workload.n,
        "answer": outcome.answer,
        "seconds": {"total": round(total, 6), **phase_seconds(tracer)},
        "metrics": outcome.metrics,
        **outcome.fields,
    }


def print_table(rows: list[dict[str, Any]], columns: Sequence[str]) -> None:
    """One line per row: the schema's fixed columns, then the suite's
    chosen metrics, then any suite-specific fields."""
    widths = [max(len(column), 8) for column in columns]
    header = f"{'workload':<20} {'n':>6} {'answer':>16} {'total_s':>9}" + "".join(
        f" {column:>{width}}" for column, width in zip(columns, widths)
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        answer = row["answer"] if len(row["answer"]) <= 16 else row["answer"][:13] + "..."
        cells = "".join(
            f" {row['metrics'].get(column, '-'):>{width}}"
            for column, width in zip(columns, widths)
        )
        print(
            f"{row['workload']:<20} {row['n']:>6} {answer:>16} "
            f"{row['seconds']['total']:>9.4f}{cells}"
        )
        for key, value in row.items():
            if key not in ("workload", "n", "answer", "seconds", "metrics"):
                print(f"  {key}: " + ", ".join(f"{k}={v}" for k, v in value.items()))


def main(
    bench: str,
    modes: dict[str, Any],
    workloads: Callable[..., Iterable[Workload]],
    columns: Sequence[str] = (),
    options: Sequence[tuple[str, str, str]] = (),
    argv: Optional[list[str]] = None,
) -> int:
    """Parse the command line, run the suite's workloads at the chosen
    mode's sizes, print the table and write the JSON document.

    ``options`` adds ``(flag, default, help)`` string options; their
    values reach ``workloads`` as keyword arguments."""
    parser = argparse.ArgumentParser(description=f"The {bench} benchmark suite.")
    parser.add_argument(
        "--mode", choices=list(modes), default="full", help="workload sizes (default: full)"
    )
    parser.add_argument("--out", default=f"BENCH_{bench}.json", help="JSON output path")
    dests = [
        parser.add_argument(flag, default=default, help=text).dest
        for flag, default, text in options
    ]
    args = parser.parse_args(argv)
    extra = {dest: getattr(args, dest) for dest in dests}
    rows = []
    for workload in workloads(modes[args.mode], **extra):
        rows.append(measure(workload))
        # Drop its terms before the next workload is generated, so they
        # cannot turn the next workload's intern misses into hits.
        del workload
    print_table(rows, columns)
    payload = {
        "bench": bench,
        "mode": args.mode,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "results": rows,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return 0
