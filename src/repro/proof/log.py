"""The clause-proof log the CDCL core appends to while searching.

A proof is a sequence of :class:`ProofStep` records over DIMACS-style
integer literals, in the order the solver produced them:

* ``input`` — a problem clause exactly as shipped to the solver
  (before its level-0 simplification): assertion root clauses, bare in
  the base frame or selector-guarded, Tseitin gates and retirement
  units.  Inputs are the axioms of the proof.
* ``lemma`` — a theory lemma, logged as stated by the theory plugin
  (before mid-search simplification), with the plugin name as
  provenance.  Lemmas are theory-valid axioms: the checker records but
  does not re-derive them, so the lemma list is the auditable interface
  between propositional certification and theory reasoning.
* ``rup`` — a clause the solver claims follows by reverse unit
  propagation: every learned clause, and the concluding clause of each
  ``unsat`` answer (empty, or the negated failed-assumption core).
  These are the steps the independent checker verifies.
* ``delete`` — a learned clause dropped by database reduction; the
  checker deactivates it, so later RUP steps cannot lean on clauses the
  solver no longer had.

**Ids by position.**  ``input``, ``lemma`` and ``rup`` steps each add a
clause, and a clause's *proof id* is its position among those steps,
counted from 0 (``delete`` steps take no id).  The id is the checker's
clause index, so neither side has to store it: the ``log_*`` methods of
:class:`ProofLog` return it, and the checker numbers clauses as it adds
them.

**Hints.**  A ``rup`` step may carry ``hints``, the ids of the clauses
its derivation uses, in the order they become unit once every literal
of the clause is assumed false, the last one then falsified.  For a
learned clause they are the unit clauses of the level-0 literals the
analysis read, the reasons of the literals minimization removed, the
reasons resolved on, and last the conflicting clause.  A literal fixed
at decision level 0 is always named by the id of a unit clause: an
input or learned unit, or a ``rup`` step of one literal that the solver
derives the first time a hint needs it.  Concluding steps are hinted
too: the empty clause names its level-0 chain in trail order, and a
negated failed-assumption core names the reasons that imply the failed
assumption's negation.  Hints are a claim, not a trusted fact: the
checker walks them alone and rejects the step if any is wrong.
``hints=None`` — the steps of a hand-built proof, and a step whose
derivation reaches a clause or literal older than a log attached
mid-life — leaves the checker to find the derivation by search.

One :class:`ProofLog` lives for the whole life of a solver — the engine
is incremental, and a later check's learned clauses may depend on
earlier checks' derivations — and :meth:`ProofLog.snapshot` freezes the
prefix into an immutable :class:`Proof` whose ``conclusion`` states what
that particular ``unsat`` answer claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Step kinds, in the vocabulary used throughout this package.
INPUT = "input"
LEMMA = "lemma"
RUP = "rup"
DELETE = "delete"


@dataclass(frozen=True, slots=True)
class ProofStep:
    """One proof event: a clause plus how it entered (or left) the formula.

    ``source`` carries provenance for ``lemma`` steps (the theory plugin
    that produced the explanation) and, occasionally, for ``input`` steps
    the engine wants to annotate (e.g. an assertion that simplified to
    ``false``).  ``hints`` are the antecedent ids of a ``rup`` step (see
    the module docstring), ``None`` when the step carries none."""

    kind: str
    lits: tuple[int, ...]
    source: Optional[str] = None
    hints: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lits", tuple(map(int, self.lits)))
        if self.hints is not None:
            object.__setattr__(self, "hints", tuple(self.hints))


#: The slots' own setters: :func:`_step` fills a step through them,
#: skipping the frozen ``__setattr__`` and ``__post_init__``.
_SET_KIND, _SET_LITS, _SET_SOURCE, _SET_HINTS = (
    ProofStep.__dict__[name].__set__ for name in ("kind", "lits", "source", "hints")
)


def _step(
    kind: str,
    lits: tuple[int, ...],
    source: Optional[str] = None,
    hints: Optional[tuple[int, ...]] = None,
) -> ProofStep:
    """A :class:`ProofStep` over a tuple of Python ints, built without
    the constructor's per-literal ``int`` conversion."""
    step = object.__new__(ProofStep)
    _SET_KIND(step, kind)
    _SET_LITS(step, lits)
    _SET_SOURCE(step, source)
    _SET_HINTS(step, hints)
    return step


@dataclass(frozen=True)
class Proof:
    """An immutable proof for one ``unsat`` answer.

    ``steps`` is the full log prefix up to (and including) the answer's
    concluding step; ``conclusion`` is the clause the proof establishes —
    ``()`` for outright unsatisfiability, or the negated failed-assumption
    core when the check ran under assumptions (the engine maps those
    selector literals back to named assertions for ``get-unsat-core``).
    """

    steps: tuple[ProofStep, ...]
    conclusion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "conclusion", tuple(int(lit) for lit in self.conclusion))

    def __len__(self) -> int:
        return len(self.steps)

    def counts(self) -> dict[str, int]:
        """Step totals by kind (``input``/``lemma``/``rup``/``delete``)."""
        out = {INPUT: 0, LEMMA: 0, RUP: 0, DELETE: 0}
        for step in self.steps:
            out[step.kind] = out.get(step.kind, 0) + 1
        return out

    def to_drat(self, include_inputs: bool = False) -> str:
        """Render the proof in DRAT text format.

        Standard DRAT files carry only additions and ``d`` deletion
        lines; inputs belong to the CNF, so they render as ``c i``
        comment lines only when ``include_inputs`` is set.  Lemma steps
        are additions preceded by a ``c t <plugin>`` provenance comment —
        a checker that trusts only RUP can strip them into a separate
        axiom file.  The concluding clause is the last addition.
        """
        lines: list[str] = []
        for step in self.steps:
            body = " ".join(str(lit) for lit in step.lits) + " 0" if step.lits else "0"
            if step.kind == INPUT:
                if include_inputs:
                    lines.append(f"c i {body}")
            elif step.kind == LEMMA:
                lines.append(f"c t {step.source or 'theory'}")
                lines.append(body)
            elif step.kind == RUP:
                lines.append(body)
            elif step.kind == DELETE:
                lines.append(f"d {body}")
            else:  # pragma: no cover - log_* constructors fix the kinds
                raise ValueError(f"unknown proof step kind: {step.kind!r}")
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class ProofLog:
    """The append-only log a :class:`~repro.sat.Solver` writes into.

    ``stats`` mirrors the step counts as plain counters so the engine can
    absorb them into its metrics registry (``proof.inputs`` ...).  The
    methods that add a clause return its proof id.  Literals must be
    Python ints, as the solver passes them: the ``log_*`` methods build
    their steps without :class:`ProofStep`'s conversion.
    """

    steps: list[ProofStep] = field(default_factory=list)
    stats: dict[str, int] = field(
        default_factory=lambda: {
            "inputs": 0,
            "lemmas": 0,
            "rup_steps": 0,
            "deletions": 0,
            "conclusions": 0,
        }
    )

    #: The proof id the next ``input``, ``lemma`` or ``rup`` step gets.
    _next_id: int = field(default=0, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.steps)

    def log_input(self, lits: Iterable[int], source: Optional[str] = None) -> int:
        self.steps.append(_step(INPUT, tuple(lits), source))
        self.stats["inputs"] += 1
        return self._take_id()

    def log_lemma(self, lits: Iterable[int], source: Optional[str] = None) -> int:
        self.steps.append(_step(LEMMA, tuple(lits), source))
        self.stats["lemmas"] += 1
        return self._take_id()

    def log_rup(
        self, lits: Iterable[int], hints: Optional[tuple[int, ...]] = None
    ) -> int:
        self.steps.append(
            _step(RUP, tuple(lits), None, None if hints is None else tuple(hints))
        )
        self.stats["rup_steps"] += 1
        return self._take_id()

    def log_delete(self, lits: Iterable[int]) -> None:
        self.steps.append(_step(DELETE, tuple(lits)))
        self.stats["deletions"] += 1

    def _take_id(self) -> int:
        ident = self._next_id
        self._next_id = ident + 1
        return ident

    def snapshot(self, conclusion: Iterable[int] = ()) -> Proof:
        """Freeze the current prefix into a :class:`Proof` claiming
        ``conclusion``."""
        self.stats["conclusions"] += 1
        return Proof(tuple(self.steps), tuple(conclusion))


__all__ = ["ProofStep", "Proof", "ProofLog", "INPUT", "LEMMA", "RUP", "DELETE"]
