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
  asserted set, called in lockstep with the SAT trail so backtracking
  never rebuilds theory state from scratch.
* :meth:`~Theory.model` — after a consistent final check: concrete values
  for the theory's symbols and interpretations for its uninterpreted
  functions, buildable into a script-level model.

The contract mirrors the lazy-SMT architecture of Z3/cvc5-style engines:
the SAT core enumerates boolean skeletons, theories veto them with
explanations, and the exchange of lemmas converges on a theory-consistent
model or propositional unsatisfiability.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

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
    versus ``i ≠ j`` for a symbolic read over a write.  A
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

    Implementations keep ``stats`` (plain counters, surfaced in the
    engine's per-``check-sat`` metrics as ``theory.<name>.*``) and must
    make :meth:`pop` restore *exactly* the state at the matching
    :meth:`push`, including any recorded conflict.
    """

    #: Short lowercase identifier, the ``theory.<name>`` metrics namespace.
    name: str = "theory"

    def __init__(self) -> None:
        self.stats: dict[str, int] = {}

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
        """Roll back to the state ``levels`` checkpoints ago."""

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
        """Valid clauses queued since the last call (lazy instantiation).

        Drained by the engine after a conflict-free :meth:`check`; each
        clause is added to the SAT core permanently and the search
        resumes, so instantiation converges over repeated final checks.
        Default: no lemmas (most theories propagate eagerly)."""
        return ()

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Absorb this plugin's counters into a metrics registry under
        ``theory.<name>``.  The default registration covers any plugin
        whose ``stats`` is a plain dict; plugins with gauge-like keys
        override and extend."""
        registry.register_source(f"theory.{self.name}", lambda: self.stats)


class TheoryComposite(Theory):
    """Routes atoms among several theory plugins (first owner wins).

    The engine talks to *one* :class:`Theory`; the composite fans the
    interface out to an ordered plugin list:

    * **Routing** — an atom is decided by the first plugin whose
      ``owns_atom`` accepts it; the choice is cached so every later
      ``assert_literal`` is a dictionary hit.  The plugin order is the
      priority order (arithmetic before EUF, so numeric comparisons are
      never mistaken for uninterpreted structure).
    * **Checkpoints** — ``push``/``pop`` forward to every plugin, so the
      per-literal trail synchronization stays exact regardless of which
      plugin an individual literal went to.
    * **Conflicts** — the first plugin reporting a conflict wins; its
      explanation is already a subset of the asserted literals, so the
      engine can ship it unchanged.
    * **Models** — plugin models merge in priority order (earlier
      plugins' values win), sharing one
      :class:`SortValueAllocator` so values minted by different plugins
      stay pairwise distinct per sort.  Any plugin failing to produce a
      model fails the composite.
    * **Metrics** — each plugin registers its own ``theory.<name>.*``
      source; the composite keeps no counters of its own.
    """

    name = "multi"

    def __init__(self, plugins: Sequence[Theory]) -> None:
        self._plugins = tuple(plugins)
        self._route: dict[Term, Optional[Theory]] = {}

    @property
    def plugins(self) -> tuple[Theory, ...]:
        return self._plugins

    def owner(self, atom: Term) -> Optional[Theory]:
        """The plugin that decides ``atom``, or ``None`` (cached)."""
        cached = self._route.get(atom, _UNROUTED)
        if cached is not _UNROUTED:
            return cached  # type: ignore[return-value]
        owner: Optional[Theory] = None
        for plugin in self._plugins:
            if plugin.owns_atom(atom):
                owner = plugin
                break
        self._route[atom] = owner
        return owner

    def owns_atom(self, atom: Term) -> bool:
        return self.owner(atom) is not None

    def assert_literal(self, atom: Term, positive: bool) -> Optional[TheoryConflict]:
        owner = self.owner(atom)
        assert owner is not None, f"no plugin owns asserted atom: {atom!r}"
        return owner.assert_literal(atom, positive)

    def check(self) -> Optional[TheoryConflict]:
        for plugin in self._plugins:
            conflict = plugin.check()
            if conflict is not None:
                return conflict
        return None

    def push(self) -> None:
        for plugin in self._plugins:
            plugin.push()

    def pop(self, levels: int = 1) -> None:
        for plugin in self._plugins:
            plugin.pop(levels)

    def model(self, allocator: "SortValueAllocator") -> Optional[TheoryModel]:
        merged = TheoryModel()
        for plugin in self._plugins:
            partial = plugin.model(allocator)
            if partial is None:
                return None
            for key, value in partial.values.items():
                merged.values.setdefault(key, value)
            for key, interpretation in partial.functions.items():
                merged.functions.setdefault(key, interpretation)
        return merged

    def incomplete_reason(self) -> Optional[str]:
        for plugin in self._plugins:
            reason = plugin.incomplete_reason()
            if reason is not None:
                return reason
        return None

    def pending_lemmas(self) -> tuple[TheoryClause, ...]:
        lemmas: list[TheoryClause] = []
        for plugin in self._plugins:
            lemmas.extend(plugin.pending_lemmas())
        return tuple(lemmas)

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        for plugin in self._plugins:
            plugin.register_metrics(registry)


_UNROUTED = object()


class SortValueAllocator:
    """Mints pairwise-distinct constants per sort for model construction.

    Theories pin the constants their constraints already mention via
    :meth:`reserve`; :meth:`fresh` then returns values distinct from every
    reserved *and* previously minted constant of that sort.  Uninterpreted
    sorts get ``@``-qualified abstract constants — the evaluator treats
    the ``@`` qualifier as a distinguished model value, so ``=`` and
    ``distinct`` fold over them.  Finite sorts (``BitVec``, finite
    fields) can exhaust; :meth:`fresh` then returns ``None`` and the
    caller falls back to ``unknown``.
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


__all__ = [
    "Theory",
    "TheoryConflict",
    "TheoryClause",
    "TheoryModel",
    "TheoryComposite",
    "SortValueAllocator",
]
