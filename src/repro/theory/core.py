"""The pluggable theory interface of the DPLL(T) engine.

A :class:`Theory` decides conjunctions of *theory literals* — atoms the
boolean skeleton abstracts away, asserted positively or negatively as the
SAT trail grows.  The engine drives a theory through five operations:

* :meth:`~Theory.owns_atom` — static classification: does this atom belong
  to the theory's fragment?  Atoms nobody owns stay abstract and make a
  propositionally satisfiable answer ``unknown``.
* :meth:`~Theory.assert_literal` — add one literal to the asserted set.
  Theories process eagerly: an inconsistency is reported immediately as a
  :class:`TheoryConflict` naming the responsible literal subset (the
  *explanation*, which the engine turns into a blocking clause for the
  SAT solver).
* :meth:`~Theory.check` — final consistency verdict over everything
  currently asserted; called at full propositional assignments.
* :meth:`~Theory.push` / :meth:`~Theory.pop` — checkpoint/rollback of the
  asserted set.  The engine takes one checkpoint per batch of trail
  literals it hands over, so backtracking never rebuilds theory state
  from scratch; :class:`UndoLogTheory` is the undo log both shipped
  plugins keep their state in.
* :meth:`~Theory.model` — after a consistent final check: concrete values
  for the theory's symbols and interpretations for its uninterpreted
  functions, buildable into a script-level model.

The contract mirrors the lazy-SMT architecture of Z3/cvc5-style engines:
the SAT core enumerates boolean skeletons, theories veto them with
explanations, and the exchange of lemmas converges on a theory-consistent
model or propositional unsatisfiability.  The engine drives an ordered
tuple of plugins itself (``repro.engine.solve``): each atom goes to the
first plugin that owns it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..smtlib.evaluate import FunctionInterpretation
from ..smtlib.sorts import (
    BOOL,
    INT,
    REAL,
    STRING,
    Sort,
    is_bitvec,
    is_finite_field,
)
from ..smtlib.terms import (
    FALSE,
    Constant,
    Term,
    bitvec_const,
    ff_const,
    int_const,
    qualified_constant,
)


@dataclass(frozen=True)
class TheoryConflict:
    """An inconsistent subset of the asserted literals.

    ``literals`` are ``(atom, positive)`` pairs whose conjunction the
    theory refutes; the engine negates them into a blocking clause.  Every
    listed literal must currently be asserted — the explanation is a
    subset, ideally small, of the asserted set.  ``source`` names the
    plugin that produced the conflict (observability provenance: the
    search-event log records which theory vetoed an assignment).
    """

    literals: tuple[tuple[Term, bool], ...]
    source: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(self.literals))


@dataclass(frozen=True)
class TheoryClause:
    """A valid clause a theory asks the engine to add to the SAT core.

    Lazy instantiation (the array axioms, say) sometimes needs a
    *case split* the current assignment does not determine — ``i = j``
    versus ``i ≠ j`` for a symbolic read over a write, or ``x ≤ 2``
    versus ``x ≥ 3`` for an integer the simplex put at 2.5.  A
    :class:`TheoryConflict` cannot express that (its literals must all be
    asserted); a :class:`TheoryClause` can: its literals are ``(atom,
    positive)`` pairs whose disjunction is **valid in the theory**, so the
    engine may add it permanently (it survives ``pop``) and let the SAT
    core branch.  Atoms new to the solver are encoded on the fly.
    ``source`` names the emitting plugin for proof/event provenance.
    """

    literals: tuple[tuple[Term, bool], ...]
    source: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(self.literals))


@dataclass
class TheoryModel:
    """Concrete theory assignment: symbol values plus interpretations for
    uninterpreted functions, in the shapes :mod:`repro.smtlib.evaluate`
    consumes directly."""

    values: dict[str, Constant] = field(default_factory=dict)
    functions: dict[str, FunctionInterpretation] = field(default_factory=dict)


class Theory(ABC):
    """Abstract base of theory plugins (see the module docstring).

    Implementations keep ``stats`` (plain counters, which the engine
    registers once per run as the ``theory.<name>`` metrics source, so
    each ``check-sat`` reports their increments) and must make :meth:`pop`
    restore *exactly* the state at the matching :meth:`push`, including
    any recorded conflict.  A plugin lives for a whole engine run: at
    each ``check-sat`` the engine pops it back to empty and re-asserts
    the trail, so state outside the undo log must be valid in every
    check (caches, emitted lemmas) or reset by :meth:`check`.
    """

    #: Short lowercase identifier, the ``theory.<name>`` metrics namespace.
    name: str = "theory"

    def __init__(self) -> None:
        self.stats: dict[str, int] = {}
        #: Valid clauses queued for :meth:`pending_lemmas` to hand over.
        self._lemmas: list[TheoryClause] = []

    @abstractmethod
    def owns_atom(self, atom: Term) -> bool:
        """True when the theory decides ``atom`` (asserted either way)."""

    @abstractmethod
    def assert_literal(self, atom: Term, positive: bool) -> Optional[TheoryConflict]:
        """Assert one literal; report an inconsistency immediately."""

    @abstractmethod
    def check(self) -> Optional[TheoryConflict]:
        """Final verdict over the full asserted set (``None`` = consistent)."""

    @abstractmethod
    def push(self) -> None:
        """Checkpoint the current asserted state."""

    @abstractmethod
    def pop(self, levels: int = 1) -> None:
        """Roll back to the state ``levels`` checkpoints ago (``0``: stay)."""

    @abstractmethod
    def model(self, allocator: "SortValueAllocator") -> Optional[TheoryModel]:
        """Concrete values after a consistent :meth:`check`; ``None`` when
        the theory cannot realize one (e.g. a finite sort ran out of
        distinct values)."""

    def incomplete_reason(self) -> Optional[str]:
        """Why the last :meth:`check` was incomplete (an exhausted search
        budget, say) — the engine reports it as the ``unknown`` reason
        when :meth:`model` returns ``None``.  Default: ``None`` (the
        theory is complete for its fragment)."""
        return None

    def pending_lemmas(self) -> tuple[TheoryClause, ...]:
        """Valid clauses queued on ``self._lemmas`` since the last call
        (lazy instantiation, case splits).

        Drained by the engine after a conflict-free :meth:`check`; each
        clause is added to the SAT core permanently and the search
        resumes, so instantiation converges over repeated final checks."""
        lemmas = tuple(self._lemmas)
        self._lemmas.clear()
        return lemmas


_MISSING = object()


class UndoLogTheory(Theory):
    """A plugin whose assignment-dependent state is written through one
    undo log.

    Every such mutation first logs its inverse: :meth:`_save` the old
    value (or absence) of a dict key, :meth:`_save_len` the length of a
    list, and :meth:`_set_conflict` the conflict flag it replaces.
    :meth:`push` marks the log's length and :meth:`pop` replays the log
    backward, in one pass, to the mark ``levels`` checkpoints ago.
    """

    def __init__(self) -> None:
        super().__init__()
        self._conflict: Optional[TheoryConflict] = None
        self._trail: list[tuple] = []
        self._marks: list[int] = []

    def push(self) -> None:
        self._marks.append(len(self._trail))

    def pop(self, levels: int = 1) -> None:
        if not levels:
            return
        marks, trail = self._marks, self._trail
        mark = marks[-levels]
        del marks[-levels:]
        undone = trail[mark:]
        del trail[mark:]
        for entry in reversed(undone):
            kind = entry[0]
            if kind == "d":
                _, mapping, key, old = entry
                if old is _MISSING:
                    mapping.pop(key, None)
                else:
                    mapping[key] = old
            elif kind == "l":
                _, values, length = entry
                del values[length:]
            else:  # "c": the conflict flag
                self._conflict = entry[1]

    def _save(self, mapping: dict, key: object) -> None:
        self._trail.append(("d", mapping, key, mapping.get(key, _MISSING)))

    def _save_len(self, values: list) -> None:
        self._trail.append(("l", values, len(values)))

    def _set_conflict(self, conflict: TheoryConflict) -> None:
        self._trail.append(("c", self._conflict))
        self._conflict = conflict
        self.stats["conflicts"] += 1


class SortValueAllocator:
    """Mints pairwise-distinct constants per sort for model construction.

    Theories pin the constants their constraints already mention via
    :meth:`reserve`; :meth:`fresh` then returns values distinct from every
    reserved *and* previously minted constant of that sort.  Uninterpreted
    sorts get ``@``-qualified abstract constants — the evaluator treats
    the ``@`` qualifier as a distinguished model value, so ``=`` and
    ``distinct`` fold over them.  Finite sorts (``BitVec``, finite
    fields) can exhaust; :meth:`fresh` then returns ``None`` and the
    caller falls back to ``unknown``.  A don't-care value, which need not
    be distinct, comes from :meth:`default` and never fails.
    """

    def __init__(self) -> None:
        self._used: dict[Sort, set] = {}
        self._next: dict[Sort, int] = {}

    def reserve(self, constant: Constant) -> None:
        """Pin an existing constant so no fresh value collides with it."""
        self._used.setdefault(constant.sort, set()).add(constant.value)

    def fresh(self, sort: Sort) -> Optional[Constant]:
        """A constant of ``sort`` distinct from all reserved/minted ones."""
        used = self._used.setdefault(sort, set())
        counter = self._next.get(sort, 0)
        if sort == BOOL:
            return None  # booleans belong to the SAT core, not the theories
        if is_bitvec(sort) or is_finite_field(sort):
            capacity = (1 << sort.width) if is_bitvec(sort) else sort.width
            while counter < capacity and counter in used:
                counter += 1
            if counter >= capacity:
                return None
            self._next[sort] = counter + 1
            used.add(counter)
            if is_finite_field(sort):
                return ff_const(counter, sort.width)
            return bitvec_const(counter, sort.width)
        if sort == INT:
            while counter in used:
                counter += 1
            self._next[sort] = counter + 1
            used.add(counter)
            return int_const(counter)
        if sort == REAL:
            while Fraction(counter) in used:
                counter += 1
            self._next[sort] = counter + 1
            used.add(Fraction(counter))
            return Constant(Fraction(counter), REAL)
        if sort == STRING:
            value = f"@{counter}"
            while value in used:
                counter += 1
                value = f"@{counter}"
            self._next[sort] = counter + 1
            used.add(value)
            return Constant(value, STRING)
        # Uninterpreted (or otherwise unvalued) sort: abstract constants.
        self._next[sort] = counter + 1
        return qualified_constant(f"@{sort.name}!{counter}", sort)

    def default(self, sort: Sort) -> Constant:
        """A value for a symbol or function no assertion constrains:
        ``false`` for Bool, otherwise a fresh value while the sort has
        one, and once a finite sort is exhausted its zero, repeating a
        value already in use."""
        if sort == BOOL:
            return FALSE
        value = self.fresh(sort)
        if value is not None:
            return value
        if is_finite_field(sort):
            return ff_const(0, sort.width)
        return bitvec_const(0, sort.width)


__all__ = [
    "Theory",
    "TheoryConflict",
    "TheoryClause",
    "TheoryModel",
    "UndoLogTheory",
    "SortValueAllocator",
]
