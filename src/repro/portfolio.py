"""Parallel portfolio solving: race diversified solver configurations.

A portfolio runs the *same* script under N different
:class:`~repro.sat.SolverConfig` strategies, one worker process each, and
returns the first definitive answer.  On the hardest instances,
single-trajectory luck dominates wall clock (PR 9 measured phase-transition
3-SAT swinging 0.07×–3.4× run to run), so racing diverse trajectories wins
whenever *any* lineup member gets lucky — the classic ppfolio/Plingeling
result, reproduced here at the script level.

Worker protocol
---------------

The parent renders the (already parsed) script back to SMT-LIB text and
forks one worker per config.  Each worker bootstraps its own
:class:`~repro.engine.Engine`, re-parses and solves under its config, and
ships the full pickled :class:`~repro.engine.ScriptResult` — verdicts,
models, proofs, per-check metrics — plus a whole-run metrics snapshot
back through a result queue.  Shipping text instead of the pickled term
DAG keeps the protocol independent of the multiprocessing start method
and makes the worker input auditable.

Cancellation is cooperative: every worker polls a shared
:class:`multiprocessing.Event` through the SAT core's ``interrupt`` hook
(checked at conflict, restart and theory-check boundaries), so losers
unwind their trails and exit cleanly; ``terminate()`` is a last resort for
workers that stop responding.  A wall-clock ``timeout`` doubles as each
worker's engine deadline, so on expiry the workers stop *themselves* and
report ``unknown``/``timeout`` results the parent can still use.

Observability
-------------

The parent's :class:`~repro.obs.Observability` bundle (when given)
receives one metric source per worker (``portfolio.w<i>.*`` — the
worker's final namespaced snapshot plus its status), a ``portfolio.*``
win-attribution source, and a ``portfolio-race`` span when tracing.
"""

from __future__ import annotations

import multiprocessing
import queue
from dataclasses import dataclass, field
from time import monotonic
from typing import Optional, Sequence, Union

from .engine import ScriptResult
from .errors import SolverError
from .limits import ensure_recursion_limit
from .obs import Observability
from .obs.spans import set_current_tracer, trace_span
from .sat import SolverConfig
from .smtlib.script import Script

#: Seconds granted after the deadline for self-stopped workers to deliver
#: their ``unknown``/``timeout`` results before the parent gives up on them.
_GRACE_SECONDS = 10.0
#: Seconds a cancelled worker gets to exit cleanly before ``terminate()``.
_JOIN_SECONDS = 5.0


@dataclass(frozen=True)
class WorkerReport:
    """What one portfolio worker did, for attribution and debugging."""

    index: int
    config: SolverConfig
    #: ``"won"`` — delivered the winning result; ``"answered"`` — finished
    #: but lost (or answered ``unknown``); ``"cancelled"`` — stopped
    #: cooperatively after the race was decided; ``"terminated"`` — had to
    #: be killed; ``"error"`` — raised (message in :attr:`error`).
    status: str
    #: Worker-side wall clock in seconds, when the worker reported one.
    elapsed: Optional[float] = None
    error: Optional[str] = None
    #: The worker's final metrics snapshot (namespaced counters), when
    #: the worker reported one.
    metrics: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class PortfolioOutcome:
    """The race's result plus per-worker attribution."""

    #: The winning worker's full script result (verdicts, models, proofs).
    result: ScriptResult
    #: Index of the winning worker (``reports[winner]`` has its config).
    winner: int
    #: One report per worker, in lineup order.
    reports: tuple[WorkerReport, ...]
    #: Parent-side wall clock for the whole race, in seconds.
    elapsed: float

    @property
    def winner_config(self) -> SolverConfig:
        return self.reports[self.winner].config


def _definitive(result: ScriptResult) -> bool:
    """True when every ``check-sat`` answered ``sat`` or ``unsat``."""
    checks = result.check_results
    return bool(checks) and all(
        check.answer in ("sat", "unsat") for check in checks
    )


def _worker_main(
    index: int,
    config: SolverConfig,
    script_text: str,
    conflict_limit: Optional[int],
    timeout: Optional[float],
    produce_proofs: bool,
    produce_unsat_cores: bool,
    cancel,
    results,
) -> None:
    """Worker entry point: solve the script under ``config`` and report.

    Must stay a module-level function so every multiprocessing start
    method can import it."""
    started = monotonic()
    try:
        # Imports deferred so a fork-started worker does no extra work and
        # a spawn-started one initializes exactly what it needs.
        from .engine import Engine
        from .smtlib.parser import parse_script

        engine = Engine(
            conflict_limit=conflict_limit,
            produce_proofs=produce_proofs,
            produce_unsat_cores=produce_unsat_cores,
            config=config,
            timeout=timeout,
            interrupt=cancel.is_set,
        )
        result = engine.run(parse_script(script_text))
        snapshot = engine.metrics.snapshot()
        results.put((index, "ok", result, snapshot, monotonic() - started))
    except BaseException as exc:  # report, never hang the race
        message = f"{type(exc).__name__}: {exc}"
        try:
            results.put((index, "error", message, {}, monotonic() - started))
        except Exception:
            pass


def solve_portfolio(
    source: Union[str, Script],
    workers: int = 2,
    *,
    configs: Optional[Sequence[SolverConfig]] = None,
    conflict_limit: Optional[int] = None,
    timeout: Optional[float] = None,
    obs: Optional[Observability] = None,
    produce_proofs: bool = False,
    produce_unsat_cores: bool = False,
) -> PortfolioOutcome:
    """Race ``workers`` diversified solver processes over one script.

    The first worker whose whole script finishes with only definitive
    answers (``sat``/``unsat`` on every ``check-sat``) wins; the rest are
    cancelled cooperatively.  If no worker is definitive (conflict limit
    or ``timeout`` exhausted everywhere), the first completed result is
    returned so callers still see per-check ``unknown`` reasons.  Raises
    :class:`~repro.errors.SolverError` only when *no* worker produced a
    result at all.

    ``configs`` overrides the default :meth:`SolverConfig.portfolio`
    lineup (its length then sets the worker count).  Remaining keywords
    mirror :func:`repro.engine.solve_script`.
    """
    # Rendering a Script back to text recurses over term depth, in the
    # parent, where no Engine.run has installed the guard.
    ensure_recursion_limit()
    if configs is not None:
        lineup = tuple(configs)
        workers = len(lineup)
    else:
        lineup = SolverConfig.portfolio(workers)
    if not lineup:
        raise ValueError("a portfolio needs at least one worker")
    if isinstance(source, Script):
        from .smtlib.printer import script_to_smtlib

        script_text = script_to_smtlib(source)
    else:
        # Parse in the parent so syntax errors surface once, here, rather
        # than as N identical worker failures.
        from .smtlib.parser import parse_script

        parse_script(source)
        script_text = source

    bundle = obs if obs is not None else Observability()
    tracer = bundle.tracer
    previous = set_current_tracer(tracer) if tracer is not None else None
    try:
        with trace_span("portfolio-race"):
            outcome = _race(
                lineup,
                script_text,
                conflict_limit,
                timeout,
                produce_proofs,
                produce_unsat_cores,
            )
    finally:
        if tracer is not None:
            set_current_tracer(previous)
    _register_metrics(bundle, outcome)
    return outcome


def _race(
    lineup: tuple[SolverConfig, ...],
    script_text: str,
    conflict_limit: Optional[int],
    timeout: Optional[float],
    produce_proofs: bool,
    produce_unsat_cores: bool,
) -> PortfolioOutcome:
    ctx = multiprocessing.get_context()
    cancel = ctx.Event()
    results = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(
                index,
                config,
                script_text,
                conflict_limit,
                timeout,
                produce_proofs,
                produce_unsat_cores,
                cancel,
                results,
            ),
            name=f"portfolio-w{index}",
        )
        for index, config in enumerate(lineup)
    ]

    started = monotonic()
    deadline = started + timeout if timeout is not None else None
    reported: dict[int, tuple[str, object, dict, float]] = {}
    winner: Optional[int] = None
    try:
        for proc in procs:
            proc.start()
        pending = set(range(len(procs)))
        while pending:
            try:
                index, status, payload, snapshot, elapsed = results.get(
                    timeout=0.2
                )
            except queue.Empty:
                if deadline is not None and monotonic() > deadline + _GRACE_SECONDS:
                    break
                if not any(procs[i].is_alive() for i in pending):
                    # Every unreported worker is already dead; one final
                    # drain catches results still in the queue's pipe.
                    try:
                        index, status, payload, snapshot, elapsed = results.get(
                            timeout=1.0
                        )
                    except queue.Empty:
                        break
                else:
                    continue
            pending.discard(index)
            reported[index] = (status, payload, snapshot, elapsed)
            if status == "ok" and _definitive(payload):
                winner = index
                break
    finally:
        cancel.set()
        race_elapsed = monotonic() - started
        # Drain any results that arrived while we were deciding, so late
        # finishers show up as "answered" rather than "cancelled".
        while True:
            try:
                index, status, payload, snapshot, elapsed = results.get_nowait()
            except (queue.Empty, OSError, EOFError):
                break
            reported.setdefault(index, (status, payload, snapshot, elapsed))
        terminated: set[int] = set()
        exit_codes: dict[int, Optional[int]] = {}
        launched = {
            index: proc for index, proc in enumerate(procs) if proc.ident is not None
        }
        join_deadline = monotonic() + _JOIN_SECONDS
        for proc in launched.values():
            proc.join(timeout=max(0.0, join_deadline - monotonic()))
        for index, proc in launched.items():
            if proc.is_alive():
                proc.terminate()
                terminated.add(index)
        for index, proc in launched.items():
            if proc.is_alive():
                proc.join(timeout=_JOIN_SECONDS)
            exit_codes[index] = proc.exitcode
            try:
                proc.close()
            except ValueError:
                pass  # refused to die even after terminate(); leak the handle
        results.cancel_join_thread()
        results.close()

    if winner is None:
        # No definitive answer: fall back to the first completed result so
        # per-check unknown reasons (timeout/conflict-limit) still surface.
        for index in sorted(reported):
            if reported[index][0] == "ok":
                winner = index
                break
    if winner is None:
        # No worker reported "ok" (the fallback above would have taken
        # it): each one reported an error or died without reporting — a
        # crash, or a result lost while being pickled.
        causes = "; ".join(
            f"w{index}: {reported[index][1]}"
            if index in reported
            else f"w{index}: exited with code {code} without reporting"
            for index, code in sorted(exit_codes.items())
        )
        raise SolverError(f"portfolio produced no result — worker errors: {causes}")

    reports = []
    for index, config in enumerate(lineup):
        if index in reported:
            status, payload, snapshot, elapsed = reported[index]
            if status == "error":
                reports.append(
                    WorkerReport(index, config, "error", elapsed, str(payload))
                )
            else:
                label = "won" if index == winner else "answered"
                reports.append(
                    WorkerReport(index, config, label, elapsed, None, snapshot)
                )
        elif index in terminated:
            reports.append(WorkerReport(index, config, "terminated"))
        else:
            reports.append(WorkerReport(index, config, "cancelled"))
    return PortfolioOutcome(
        result=reported[winner][1],
        winner=winner,
        reports=tuple(reports),
        elapsed=race_elapsed,
    )


def _register_metrics(bundle: Observability, outcome: PortfolioOutcome) -> None:
    """Expose the race under the parent metrics registry:
    ``portfolio.*`` win attribution and ``portfolio.w<i>.*`` per-worker
    final counters."""
    metrics = bundle.metrics
    metrics.unregister_prefix("portfolio")
    winner = outcome.reports[outcome.winner]
    attribution = {
        "workers": len(outcome.reports),
        "winner": outcome.winner,
        f"wins.{winner.config.name}": 1,
        "cancelled": sum(
            1 for r in outcome.reports if r.status in ("cancelled", "terminated")
        ),
        "errors": sum(1 for r in outcome.reports if r.status == "error"),
        "elapsed_ms": int(outcome.elapsed * 1000),
    }
    metrics.register_source(
        "portfolio", lambda: attribution, gauges=("workers", "winner", "elapsed_ms")
    )
    for report in outcome.reports:
        source = dict(report.metrics)
        source["won"] = 1 if report.index == outcome.winner else 0
        metrics.register_source(
            f"portfolio.w{report.index}", lambda src=source: src
        )


__all__ = [
    "PortfolioOutcome",
    "WorkerReport",
    "solve_portfolio",
]
