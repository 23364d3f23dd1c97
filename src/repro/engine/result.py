"""Result shapes produced by script execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..proof.log import Proof
from ..smtlib.evaluate import FunctionInterpretation
from ..smtlib.terms import Constant, Term


@dataclass
class CheckSatResult:
    """The outcome of one ``(check-sat)``.

    ``assertions`` are the asserted terms active at the check, with
    ``define-fun`` applications inlined, ``let`` binders expanded and
    n-ary (dis)equalities over non-boolean terms expanded to binary form —
    exactly the terms a ``sat`` model is guaranteed to satisfy under
    :func:`~repro.smtlib.evaluate.evaluate` (pass ``fun_interps`` as its
    ``funs`` argument when uninterpreted functions are involved).
    ``reason`` explains an ``unknown`` answer.  ``expected`` records the
    script's ``(set-info :status ...)`` annotation, when present.

    ``metrics`` is the check's counters: the namespaced delta of the
    engine's metrics registry over this check.  It holds the SAT-core
    counters (``sat.conflicts``, ``sat.theory_lemmas`` ...), per-plugin
    theory counters (``theory.euf.merges``, ``theory.arith.pivots``
    ...), the intern table (``intern.hits`` ...) and the engine's own
    counters: incremental encoding (``engine.encoded_assertions``,
    ``engine.tseitin_new_vars``, ``engine.tseitin_new_clauses``),
    clause shipping (``engine.clauses_shipped``,
    ``engine.guard_clauses``), ``engine.trivial`` (1 when a ``false``
    assertion decided the check without search) and the gauges
    ``engine.vars``, ``engine.atoms`` and ``engine.learned_db``.
    ``phases`` carries per-phase wall-clock in nanoseconds keyed by span
    path (``prepare``, ``search``, ``search/theory-check`` ...) when the
    engine ran with a tracer, else it is empty.

    For an ``unsat`` answer two certification artifacts may be present:
    ``proof`` (when the engine ran with proof production on) is the
    DRAT-style clause proof, checkable with
    :func:`repro.proof.check_proof`; ``unsat_core`` (when unsat cores
    were enabled) is the subset of ``:named`` assertion labels whose
    assertions — together with the unnamed background — are already
    unsatisfiable, in assertion order.
    """

    answer: str
    model: Optional[dict[str, Constant]] = None
    fun_interps: Optional[dict[str, FunctionInterpretation]] = None
    assertions: tuple[Term, ...] = ()
    reason: Optional[str] = None
    expected: Optional[str] = None
    metrics: dict[str, int] = field(default_factory=dict)
    phases: dict[str, int] = field(default_factory=dict)
    proof: Optional[Proof] = None
    unsat_core: Optional[tuple[str, ...]] = None

    @property
    def contradicts_expected(self) -> bool:
        """True when a definite answer contradicts the ``:status``
        annotation (an ``unknown`` answer never contradicts anything)."""
        return (
            self.expected in ("sat", "unsat")
            and self.answer in ("sat", "unsat")
            and self.answer != self.expected
        )


@dataclass
class ScriptResult:
    """Everything one script run produced: per-``check-sat`` results and
    the printable solver output (one entry per output-producing command).
    ``phases`` aggregates whole-run per-phase wall-clock (nanoseconds by
    span path, including ``parse`` when the run went through
    :func:`~repro.engine.solve.run_script` with tracing on)."""

    check_results: list[CheckSatResult] = field(default_factory=list)
    output: list[str] = field(default_factory=list)
    phases: dict[str, int] = field(default_factory=dict)

    @property
    def answers(self) -> list[str]:
        return [result.answer for result in self.check_results]

    @property
    def status_mismatches(self) -> list[int]:
        """Indices of check-sat results contradicting their ``:status``."""
        return [
            index
            for index, result in enumerate(self.check_results)
            if result.contradicts_expected
        ]


__all__ = ["CheckSatResult", "ScriptResult"]
