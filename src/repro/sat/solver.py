"""A CDCL (conflict-driven clause learning) propositional solver.

The solver is a faithful, compact rendition of the modern SAT loop:

* **Two-watched-literal propagation** — every clause with at least two
  literals watches exactly two of them, kept in the first two slots of
  its literal block.  The *watched-literal invariant*: whenever a clause
  is not satisfied, its two watched literals are non-false, so only
  clauses watching a literal that just became false need visiting, and
  backtracking never touches the watch lists.  Each watch entry carries a
  *blocker* literal (the other watched literal when the entry was made):
  when the blocker is currently true the clause is satisfied and is
  skipped without touching its literals at all.  Binary clauses live in
  dedicated watch lists — their watches never move and the partner
  literal is all propagation needs, so the binary loop is read-only.
* **First-UIP learning** — on conflict, resolution over the implication
  graph stops at the first unique implication point of the current decision
  level, yielding an asserting clause; a cheap self-subsumption pass then
  removes literals whose reasons are subsumed by the clause itself.
* **VSIDS-style activity** — variables involved in conflicts are bumped and
  all activities decay geometrically (by bumping with a growing increment);
  decisions pick the most active unassigned variable via a lazy max-heap.
  Decision phases are saved across backtracking.
* **Luby restarts** — the solver restarts after ``RESTART_BASE * luby(i)``
  conflicts, the universally optimal strategy of Luby, Sinclair and
  Zuckerman.
* **Learned-clause reduction** — when the learned-clause database outgrows
  its budget, the less active half is dropped (binary and reason clauses
  are kept).

**Memory layout.**  The solver stores no per-clause Python objects.  All
clause literals live in one flat integer arena; a clause is identified
by its *reference* — the arena offset of its two-word header::

    arena:  ... | size | flags | lit0 | lit1 | lit2 ... | size | flags | ...
                  ^ref                                     ^next ref

``lit0``/``lit1`` are the watched positions.  ``flags`` is a bit set
(bit 0: learned, bit 1: deleted).  Reference ``0`` is reserved (the arena
starts with a sentinel word) and doubles as "no clause" everywhere a
clause reference is optional — conflict returns, reason slots.  The
arena is held as a plain Python list — flat machine-word payload, but
CPython indexes lists faster than typed arrays because small ints come
back as cached objects instead of being re-boxed per read.

Watch lists are lists of ``(clause ref, blocker literal)`` tuples —
iterated directly by the propagation loop (CPython's fastest scan) and
detached by swap-remove (O(1) per removal, no ``list.remove`` scan); the
scan stays read-only until some watch actually migrates, and only then
compacts the list in place MiniSat-style from the migration point.
Assignment values and watch-list heads are *literal-indexed*
tables: a table of capacity ``C > 2·num_vars`` holds literal ``+v`` at
index ``v`` and literal ``-v`` at index ``C - v``, so Python's negative
indexing turns ``values[lit]`` into a single branch-free lookup for
either polarity (tables rebuild when the variable count outgrows half
the capacity, amortized O(1) per variable).  Levels, reasons, saved
phases and the conflict-analysis ``seen`` marks are parallel per-variable
vectors; variable activity is an ``array('d')``.  Deleted clauses leave
holes in the arena that a mark-and-compact pass
(:meth:`Solver._collect_garbage`) reclaims once more than half the arena
is garbage.

The solver is *incremental* — the DPLL(T) engine drives it through three
extensions of the classic loop:

* **Assumptions** — ``solve(assumptions=[...])`` decides the given
  literals first, one pseudo-decision level each, before any free
  decision.  When an assumption cannot hold, the answer is ``unsat`` and
  :attr:`failed_assumptions` holds a subset of the assumptions that is
  already inconsistent (the *final-conflict* core, from a reason-graph
  walk).  Assumption failure is not permanent: clauses and new
  assumptions may follow.
* **Clause addition between solves** — :meth:`add_clause` may be called
  after any :meth:`solve` return; new clauses attach to the live watch
  lists and learned clauses persist, so repeated solving resumes instead
  of restarting.
* **Theory hook** — a :class:`TheoryHook` attached via :attr:`theory` is
  invoked at propositional fixpoints (every one when :attr:`theory_eager`
  is set, and always at a *full* assignment before ``sat`` is declared).
  The hook returns *lemma clauses* which the solver integrates mid-search
  with proper backjumping: a falsified lemma becomes the next conflict to
  analyze, a unit lemma backjumps and propagates, and anything else simply
  attaches.  Lemmas are theory-valid, so they join the problem clauses
  and are never deleted by database reduction.

Variables are ``1..n``; literals are signed non-zero integers (DIMACS
convention).  The solver is deterministic: the same clauses added in the
same order always produce the same answer, model and statistics.  The
pre-arena object-based implementation is retained as
:class:`repro.sat.reference.ReferenceSolver` and the test suite
cross-checks the two cores on seeded instances.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from random import Random
from time import monotonic
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .config import DEFAULT_CONFIG, SolverConfig

if TYPE_CHECKING:  # event emission / proof logging are optional attachments
    from ..obs.events import EventLog
    from ..proof.log import ProofLog

#: Answers returned by :meth:`Solver.solve`.
SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Conflicts per restart unit; the i-th restart happens after
#: ``RESTART_BASE * luby(i)`` conflicts.
RESTART_BASE = 64

_VAR_DECAY = 1.0 / 0.95
_CLA_DECAY = 1.0 / 0.999
_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100
_CLA_RESCALE_LIMIT = 1e20
_CLA_RESCALE_FACTOR = 1e-20

#: Arena header flag bits (the word at ``ref + 1``).
_LEARNED_BIT = 1
_DELETED_BIT = 2

#: Words of arena overhead per clause: the ``size`` and ``flags`` header.
_HEADER_WORDS = 2

#: Initial capacity of the literal-indexed tables (must exceed twice the
#: variable count; doubles on demand).
_MIN_LIT_CAPACITY = 16

#: "No clause": the arena begins with a sentinel word so offset 0 never
#: addresses a real header, making 0 a safe null for reasons/conflicts.
NO_CLAUSE = 0


def luby(i: int) -> int:
    """The i-th element (1-indexed) of the Luby sequence
    ``1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...``."""
    if i < 1:
        raise ValueError("luby is 1-indexed")
    while True:
        k = i.bit_length()
        if i + 1 == 1 << k:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1
        # i was strictly between 2^(k-1)-1 and 2^k-1: recurse on the tail.


class TheoryHook:
    """Theory-solver callback consulted at propositional fixpoints.

    Subclass and attach via :attr:`Solver.theory`.  :meth:`on_check` runs
    whenever unit propagation reaches a fixpoint without conflict —
    always when the assignment is *full* (``final=True``, the last gate
    before the solver answers ``sat``), and additionally at every
    decision level when :attr:`Solver.theory_eager` is set.  It may read
    the solver's :attr:`~Solver.trail` and :meth:`~Solver.value` and must
    return lemma clauses (iterables of literals) that are valid in the
    theory; returning a clause falsified by the current assignment is the
    way to veto it.  The solver integrates each lemma with backjumping
    and re-runs propagation, so a hook is re-consulted only after its
    lemmas changed the search.
    """

    def on_check(self, solver: "Solver", final: bool) -> Iterable[Sequence[int]]:
        return ()


class TheoryLemma(list):
    """A lemma clause that carries provenance.

    Theory hooks may return plain literal sequences; returning a
    :class:`TheoryLemma` instead lets the proof log record which plugin's
    explanation produced the clause (the ``lemma`` step's ``source``)."""

    __slots__ = ("source",)

    def __init__(self, lits: Iterable[int] = (), source: Optional[str] = None) -> None:
        super().__init__(lits)
        self.source = source


class Solver:
    """A CDCL solver over integer literals, on flat array storage.

    Typical use::

        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve() == SAT
        assert solver.model[3] is True

    ``add_clause`` must be called at decision level 0 (i.e. before
    :meth:`solve`, or after it returned — the solver always backtracks to
    level 0 before returning).  :meth:`solve` may be called repeatedly;
    learned clauses persist between calls.
    """

    def __init__(
        self, num_vars: int = 0, config: Optional[SolverConfig] = None
    ) -> None:
        #: Search-strategy knobs (see :class:`~repro.sat.SolverConfig`).
        #: The default config reproduces the historical solver bit for
        #: bit — no RNG is constructed and every branch below compiles to
        #: the pre-config behavior.
        self.config = config if config is not None else DEFAULT_CONFIG
        self._rng: Optional[Random] = (
            Random(self.config.seed) if self.config.needs_rng else None
        )
        self._var_decay_mult = 1.0 / self.config.var_decay
        self._phase_true_init = self.config.phase_init == "true"
        self._num_vars = 0
        # Literal-indexed tables (capacity > 2*num_vars): literal +v at
        # index v, literal -v at index capacity-v, so plain values[lit]
        # resolves either polarity in one lookup via Python's negative
        # indexing.  values holds 0 unassigned / 1 true / -1 false *of
        # that literal*; _watches/_bwatches hold the per-literal lists of
        # (ref, blocker) watch tuples (binary clauses separate from
        # longer ones).
        self._values: list[int] = [0] * _MIN_LIT_CAPACITY
        self._watches: list[list[tuple[int, int]]] = [
            [] for _ in range(_MIN_LIT_CAPACITY)
        ]
        self._bwatches: list[list[tuple[int, int]]] = [
            [] for _ in range(_MIN_LIT_CAPACITY)
        ]
        # Parallel per-variable vectors; slot 0 is unused padding.
        self._levels: list[int] = [0]
        self._reasons: list[int] = [NO_CLAUSE]  # clause refs; 0 = no reason
        self._activity = array("d", (0.0,))
        self._phase = bytearray(1)
        self._seen = bytearray(1)
        # All clause literals, with two header words (size, flags) per
        # clause; a clause *ref* is the offset of its header.  The
        # sentinel word keeps 0 free to mean "no clause".
        self._arena: list[int] = [0]
        #: Arena words occupied by deleted clauses (headers included).
        self._garbage_words = 0
        self._clauses: list[int] = []  # problem-clause refs
        self._learnts: list[int] = []  # learned-clause refs
        self._cla_activity: dict[int, float] = {}  # learned ref -> activity
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._trail_low = 0
        self._qhead = 0
        self._order: list[tuple[float, int]] = []  # lazy max-heap: (-activity, var)
        self._var_inc = 1.0
        self._cla_inc = 1.0
        self._unsat = False
        self._model: Optional[list[bool]] = None
        self._failed_assumptions: Optional[tuple[int, ...]] = None
        #: Theory callback consulted at propositional fixpoints (see
        #: :class:`TheoryHook`); ``None`` runs the solver purely
        #: propositionally.
        self.theory: Optional[TheoryHook] = None
        #: When set, the theory hook also runs at every decision-level
        #: fixpoint, not only at full assignments.
        self.theory_eager: bool = True
        #: Optional structured search-event log
        #: (:class:`repro.obs.events.EventLog`).  ``None`` (the default)
        #: keeps the search loop free of instrumentation beyond one
        #: ``is None`` test per emission site.
        self.events: Optional["EventLog"] = None
        #: Optional clause-proof log (:class:`repro.proof.ProofLog`).
        #: When attached *before any clause is added*, the solver records
        #: every input clause, theory lemma (with provenance), learned
        #: clause, deletion, and — at each ``unsat`` return — a concluding
        #: RUP step (the empty clause, or the negated failed-assumption
        #: core), so ``proof.snapshot(...)`` is independently checkable by
        #: :func:`repro.proof.check_proof`.
        self.proof: Optional["ProofLog"] = None
        #: Why the last :meth:`solve` returned :data:`UNKNOWN` —
        #: ``"conflict-limit"``, ``"timeout"`` or ``"cancelled"``;
        #: ``None`` after a definitive answer.
        self.stop_reason: Optional[str] = None
        self._deadline: Optional[float] = None
        self._interrupt: Optional[Callable[[], bool]] = None
        self.stats: dict[str, int] = {
            "decisions": 0,
            "conflicts": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "deleted": 0,
            "minimized": 0,
            "theory_checks": 0,
            "theory_lemmas": 0,
            "theory_conflicts": 0,
            "blocker_skips": 0,
            "arena_collections": 0,
            "random_decisions": 0,
        }
        if num_vars:
            self.ensure_vars(num_vars)

    # -- variables ----------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Problem (non-learned) clauses currently attached."""
        return len(self._clauses)

    def new_var(self) -> int:
        """Allocate and return the next variable."""
        self._num_vars += 1
        var = self._num_vars
        if 2 * var >= len(self._values):
            self._grow_literal_tables()
        self._levels.append(0)
        self._reasons.append(NO_CLAUSE)
        self._activity.append(0.0)
        if self._phase_true_init:
            self._phase.append(1)
        elif self._rng is not None and self.config.phase_init == "random":
            self._phase.append(self._rng.getrandbits(1))
        else:
            self._phase.append(0)
        self._seen.append(0)
        heappush(self._order, (0.0, var))
        return var

    def ensure_vars(self, count: int) -> None:
        """Grow the variable pool to at least ``count`` variables."""
        while self._num_vars < count:
            self.new_var()

    def _grow_literal_tables(self) -> None:
        """Double the capacity of the literal-indexed tables.

        The negative-literal half sits at the *end* of each table, so a
        plain append would shift its meaning; instead the tables are
        rebuilt with both halves re-anchored.  Amortized O(1) per
        variable."""
        n = self._num_vars
        capacity = max(_MIN_LIT_CAPACITY, 2 * len(self._values))
        while capacity <= 2 * n:
            capacity *= 2
        values = [0] * capacity
        watches: list[list[int]] = [[] for _ in range(capacity)]
        bwatches: list[list[int]] = [[] for _ in range(capacity)]
        for v in range(1, n):  # the var being added has no state yet
            values[v] = self._values[v]
            values[-v] = self._values[-v]
            watches[v] = self._watches[v]
            watches[-v] = self._watches[-v]
            bwatches[v] = self._bwatches[v]
            bwatches[-v] = self._bwatches[-v]
        self._values = values
        self._watches = watches
        self._bwatches = bwatches

    # -- the clause arena ---------------------------------------------------

    def arena_size(self) -> tuple[int, int]:
        """``(live words, garbage words)`` of the clause arena — the
        sentinel and live headers/literals versus words awaiting
        compaction.  Introspection for tests and debugging."""
        return len(self._arena) - self._garbage_words, self._garbage_words

    def clause_lits(self, ref: int) -> tuple[int, ...]:
        """The literal block of a clause reference (tests/debugging)."""
        arena = self._arena
        base = ref + _HEADER_WORDS
        return tuple(arena[base : base + arena[ref]])

    def _alloc(self, lits: list[int], learned: bool) -> int:
        """Append a clause block to the arena; returns its reference."""
        arena = self._arena
        ref = len(arena)
        arena.append(len(lits))
        arena.append(_LEARNED_BIT if learned else 0)
        arena.extend(lits)
        return ref

    def watcher_refs(self, lit: int) -> list[int]:
        """Clause refs currently watching ``lit``, binary watchers first
        (tests/debugging)."""
        return [entry[0] for entry in self._bwatches[lit]] + [
            entry[0] for entry in self._watches[lit]
        ]

    # -- clause management --------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a problem clause (a disjunction of literals).

        Level-0 simplification applies: duplicate literals collapse,
        tautologies and already-satisfied clauses are dropped, false
        literals are removed.  Returns ``False`` when the formula became
        unsatisfiable (empty clause, or a unit clause whose propagation
        conflicts); the solver is then permanently in the unsat state.
        """
        if self._trail_lim:
            raise ValueError("clauses can only be added at decision level 0")
        if self._unsat:
            return False
        self._model = None
        lits = list(lits)
        if self.proof is not None:
            # Log the clause as shipped, before level-0 simplification:
            # the checker holds the original plus every logged unit, which
            # together subsume whatever simplified form gets attached.
            self.proof.log_input(lits)
        if lits:
            self.ensure_vars(max(abs(lit) for lit in lits))
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a literal")
            if -lit in seen:
                return True  # tautology: contains both polarities
            if lit in seen:
                continue
            value = self._values[lit]
            if value == 1:
                return True  # satisfied at level 0
            if value == -1:
                continue  # false at level 0: drop the literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._unsat = True
            return False
        if len(out) == 1:
            self._assign(out[0], NO_CLAUSE)
            if self._propagate() != NO_CLAUSE:
                self._unsat = True
                return False
            return True
        ref = self._alloc(out, learned=False)
        self._clauses.append(ref)
        self._attach(ref)
        return True

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add many clauses; returns ``False`` once any addition does."""
        ok = True
        for lits in clauses:
            ok = self.add_clause(lits) and ok
        return ok

    def _attach(self, ref: int) -> None:
        """Watch the clause's first two literals, each entry carrying the
        *other* watched literal as its blocker.  Binary clauses go to the
        dedicated binary watch lists."""
        arena = self._arena
        base = ref + _HEADER_WORDS
        first, second = arena[base], arena[base + 1]
        watches = self._bwatches if arena[ref] == 2 else self._watches
        watches[first].append((ref, second))
        watches[second].append((ref, first))

    def _detach(self, ref: int) -> None:
        """Remove the clause from both watch lists by swap-remove: the
        matching ``(ref, blocker)`` entry is overwritten with the list's
        last entry and the tail popped — no ``list.remove`` shifting."""
        arena = self._arena
        base = ref + _HEADER_WORDS
        watches = self._bwatches if arena[ref] == 2 else self._watches
        for position in (base, base + 1):
            watchers = watches[arena[position]]
            for i, entry in enumerate(watchers):
                if entry[0] == ref:
                    watchers[i] = watchers[-1]
                    watchers.pop()
                    break

    # -- assignment / trail -------------------------------------------------

    @property
    def model(self) -> Optional[list[bool]]:
        """After a ``sat`` answer: variable values, indexed ``1..num_vars``
        (index 0 is padding).  ``None`` otherwise."""
        return self._model

    @property
    def failed_assumptions(self) -> Optional[tuple[int, ...]]:
        """After an ``unsat`` answer under assumptions: a subset of the
        assumptions that is already inconsistent with the clauses (empty
        when the clauses are unsatisfiable outright).  ``None`` before any
        solve and after ``sat``/``unknown``."""
        return self._failed_assumptions

    @property
    def trail(self) -> list[int]:
        """The assigned literals in assignment order (read-only view for
        theory hooks; do not mutate)."""
        return self._trail

    def trail_watermark(self) -> int:
        """Lowest trail length since the previous call — the prefix of
        :attr:`trail` guaranteed unchanged — then reset to the current
        length.  Theory hooks use this to synchronize in O(delta) per
        callback instead of rescanning the whole trail: positions below
        the watermark can only have changed through a backtrack, which
        lowers it."""
        mark = min(self._trail_low, len(self._trail))
        self._trail_low = len(self._trail)
        return mark

    def value(self, lit: int) -> int:
        """Current assignment of a literal: 1 true, -1 false, 0 unassigned."""
        return self._values[lit]

    def level(self, var: int) -> int:
        """Decision level at which ``var`` was assigned (0 for facts)."""
        return self._levels[var]

    @property
    def num_learnts(self) -> int:
        """Learned clauses currently in the database."""
        return len(self._learnts)

    def export_cnf(self) -> tuple[int, list[tuple[int, ...]]]:
        """Snapshot the current problem as ``(num_vars, clauses)``.

        Includes level-0 facts (as unit clauses) and every attached
        problem clause — theory lemmas count as problem clauses; learned
        clauses are omitted.  Clauses satisfied or simplified away at
        addition time are not reconstructed.  Must be called at decision
        level 0 (i.e. outside :meth:`solve`).
        """
        if self._trail_lim:
            raise ValueError("export_cnf requires decision level 0")
        clauses: list[tuple[int, ...]] = [(lit,) for lit in self._trail]
        if self._unsat:
            clauses.append(())
        for ref in self._clauses:
            clauses.append(self.clause_lits(ref))
        return self._num_vars, clauses

    def _assign(self, lit: int, reason: int) -> None:
        var = lit if lit > 0 else -lit
        self._values[lit] = 1
        self._values[-lit] = -1
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(lit)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        values, phase, reasons = self._values, self._phase, self._reasons
        order, activity = self._order, self._activity
        for i in range(len(self._trail) - 1, bound - 1, -1):
            lit = self._trail[i]
            var = lit if lit > 0 else -lit
            values[var] = 0
            values[-var] = 0
            phase[var] = 1 if lit > 0 else 0  # phase saving
            reasons[var] = NO_CLAUSE
            heappush(order, (-activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        if bound < self._trail_low:
            self._trail_low = bound
        self._qhead = bound

    # -- propagation --------------------------------------------------------

    def _propagate(self) -> int:
        """Unit propagation to fixpoint; returns a conflicting clause ref
        or :data:`NO_CLAUSE`.  Maintains the watched-literal invariant.

        The hot loop works on hoisted locals and assigns inline (bypassing
        :meth:`_assign`): within one call the decision level is fixed, so
        level bookkeeping hoists out of the loop entirely.  For each trail
        literal the read-only binary loop runs first — binary watch entries
        carry the partner literal, so propagation never touches the arena.
        The long-clause loop then iterates tuple entries directly (the
        fastest scan CPython offers) and materialises a replacement
        ``keep`` list lazily, only once some entry actually moves or has
        its blocker refreshed — a scan where every blocker hits writes
        nothing at all.
        """
        values = self._values
        watches = self._watches
        bwatches = self._bwatches
        arena = self._arena
        trail = self._trail
        levels = self._levels
        reasons = self._reasons
        level = len(self._trail_lim)
        qhead = self._qhead
        propagated = 0
        skips = 0
        conflict = NO_CLAUSE
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            propagated += 1
            false_lit = -lit
            for bref, other in bwatches[false_lit]:
                value = values[other]
                if value == 1:
                    skips += 1
                    continue
                if value == -1:
                    qhead = len(trail)
                    conflict = bref
                    break
                var = other if other > 0 else -other
                values[other] = 1
                values[-other] = -1
                levels[var] = level
                reasons[var] = bref
                trail.append(other)
            if conflict != NO_CLAUSE:
                break
            watchers = watches[false_lit]
            migrated = None
            # Phase 1: a pure read-only scan — no index bookkeeping, no
            # list writes.  Blocker hits, unit propagations and conflicts
            # all keep the entry in place; only an actual watch migration
            # (entry leaves this list) forces writes, at which point the
            # entry's position is recovered by identity (`list.index`
            # short-circuits on pointer equality) and the scan switches
            # to the in-place compacting phase 2.
            for entry in watchers:
                if values[entry[1]] == 1:
                    # The blocker satisfies the clause: keep the entry
                    # without touching the clause's literal block.
                    skips += 1
                    continue
                ref = entry[0]
                base = ref + _HEADER_WORDS
                # Normalise: the false literal sits in the second slot.
                if arena[base] == false_lit:
                    arena[base] = arena[base + 1]
                    arena[base + 1] = false_lit
                first = arena[base]
                value = values[first]
                if value == 1:
                    continue  # satisfied by its first watch: keep as-is
                end = base + arena[ref]
                for k in range(base + 2, end):
                    if values[arena[k]] != -1:
                        migrated = entry
                        break
                else:
                    # No replacement watch: the clause is unit or conflicting.
                    if value == -1:
                        qhead = len(trail)
                        conflict = ref
                        break
                    var = first if first > 0 else -first
                    values[first] = 1
                    values[-first] = -1
                    levels[var] = level
                    reasons[var] = ref
                    trail.append(first)
                    continue
                break
            if migrated is not None:
                # Phase 2: compact in place from the migrating entry on,
                # refreshing blockers as a side effect of the rewrite.
                count = len(watchers)
                i = j = watchers.index(migrated)
                while i < count:
                    entry = watchers[i]
                    i += 1
                    if values[entry[1]] == 1:
                        watchers[j] = entry
                        j += 1
                        skips += 1
                        continue
                    ref = entry[0]
                    base = ref + _HEADER_WORDS
                    if arena[base] == false_lit:
                        arena[base] = arena[base + 1]
                        arena[base + 1] = false_lit
                    first = arena[base]
                    value = values[first]
                    if value == 1:
                        watchers[j] = (ref, first)
                        j += 1
                        continue
                    end = base + arena[ref]
                    for k in range(base + 2, end):
                        other = arena[k]
                        if values[other] != -1:
                            arena[base + 1] = other
                            arena[k] = false_lit
                            watches[other].append((ref, first))
                            break
                    else:
                        watchers[j] = entry
                        j += 1
                        if value == -1:
                            while i < count:  # keep the remaining watchers
                                watchers[j] = watchers[i]
                                j += 1
                                i += 1
                            qhead = len(trail)
                            conflict = ref
                            break
                        var = first if first > 0 else -first
                        values[first] = 1
                        values[-first] = -1
                        levels[var] = level
                        reasons[var] = ref
                        trail.append(first)
                del watchers[j:]
            if conflict != NO_CLAUSE:
                break
        self._qhead = qhead
        self.stats["propagations"] += propagated
        if skips:
            self.stats["blocker_skips"] += skips
        return conflict

    # -- conflict analysis --------------------------------------------------

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis.  Returns the learnt (asserting)
        clause — asserting literal first, a highest-level literal second —
        and the backtrack level."""
        learnt: list[int] = [0]
        seen = self._seen
        levels = self._levels
        trail = self._trail
        arena = self._arena
        activity = self._activity
        var_inc = self._var_inc
        current_level = len(self._trail_lim)
        counter = 0
        p = 0
        reason_base = conflict + _HEADER_WORDS
        reason_lits = arena[reason_base : reason_base + arena[conflict]]
        index = len(trail)
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    # Every bumped variable is assigned (it sits on the
                    # trail or in the conflict), so no heap entry is due
                    # yet: `_cancel_until` pushes it with its then-current
                    # activity the moment it becomes decidable again.
                    bumped = activity[var] + var_inc
                    if bumped > _RESCALE_LIMIT:  # rare: rescale via the slow path
                        self._bump_var(var)
                        var_inc = self._var_inc
                    else:
                        activity[var] = bumped
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                p = trail[index]
                if seen[p if p > 0 else -p]:
                    break
            var = p if p > 0 else -p
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason = self._reasons[var]
            assert reason != NO_CLAUSE, "UIP literal must have a reason"
            if arena[reason + 1] & _LEARNED_BIT:
                self._bump_clause(reason)
            reason_base = reason + _HEADER_WORDS
            reason_lits = arena[reason_base : reason_base + arena[reason]]
        learnt[0] = -p
        if arena[conflict + 1] & _LEARNED_BIT:
            self._bump_clause(conflict)

        # Self-subsumption minimization: drop a literal whose reason's other
        # literals are all already in the clause (seen) or at level 0 —
        # the same local pass as the reference core, so seeded runs learn
        # the same clauses.  The shrunk clause is derived by one more
        # resolution step, so it stays RUP for the proof log.
        reasons = self._reasons
        kept = [learnt[0]]
        for q in learnt[1:]:
            qvar = q if q > 0 else -q
            reason = reasons[qvar]
            redundant = reason != NO_CLAUSE
            if redundant:
                rbase = reason + _HEADER_WORDS
                for r in arena[rbase : rbase + arena[reason]]:
                    rvar = r if r > 0 else -r
                    if rvar != qvar and not seen[rvar] and levels[rvar] > 0:
                        redundant = False
                        break
            if redundant:
                self.stats["minimized"] += 1
            else:
                kept.append(q)
        for q in learnt[1:]:
            seen[q if q > 0 else -q] = 0
        learnt = kept

        if len(learnt) == 1:
            return learnt, 0
        max_i = 1
        for i in range(2, len(learnt)):
            if levels[abs(learnt[i])] > levels[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, levels[abs(learnt[1])]

    def _record(self, lits: list[int]) -> None:
        """Attach a learnt clause and assert its first literal."""
        self.stats["learned"] += 1
        if self.proof is not None:
            self.proof.log_rup(lits)
        if len(lits) == 1:
            self._assign(lits[0], NO_CLAUSE)
            return
        ref = self._alloc(lits, learned=True)
        self._cla_activity[ref] = self._cla_inc
        self._learnts.append(ref)
        self._attach(ref)
        self._assign(lits[0], ref)

    def _analyze_final(self, p: int) -> tuple[int, ...]:
        """Assumption ``p`` is false under the current (assumption-only)
        trail: walk the reason graph backward and collect the assumptions
        that imply ``not p``.  Returns the failed core including ``p``."""
        out = [p]
        if not self._trail_lim:
            return tuple(out)
        seen = self._seen
        arena = self._arena
        seen[abs(p)] = 1
        for index in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[index]
            var = lit if lit > 0 else -lit
            if not seen[var]:
                continue
            reason = self._reasons[var]
            if reason == NO_CLAUSE:
                # A decision above level 0 during the assumption phase is
                # always an assumption literal itself.
                out.append(lit)
            else:
                base = reason + _HEADER_WORDS
                for q in arena[base : base + arena[reason]]:
                    qvar = q if q > 0 else -q
                    if qvar != var and self._levels[qvar] > 0:
                        seen[qvar] = 1
            seen[var] = 0
        seen[abs(p)] = 0
        return tuple(out)

    def _proof_conclude(self, core: Sequence[int]) -> None:
        """Log the concluding RUP step of an ``unsat`` answer: the empty
        clause, or the negation of the failed-assumption core (RUP because
        the core's reason-graph derivation is a unit-propagation chain)."""
        if self.proof is not None:
            self.proof.log_rup(tuple(-lit for lit in core))

    # -- theory lemmas ------------------------------------------------------

    def _theory_check(self, final: bool) -> int:
        """Consult the theory hook and integrate its lemmas.  Returns a
        conflicting clause ref for the main loop to analyze, or
        :data:`NO_CLAUSE`; may set the global unsat flag (level-0 theory
        conflict)."""
        assert self.theory is not None
        self.stats["theory_checks"] += 1
        for lits in self.theory.on_check(self, final):
            self.stats["theory_lemmas"] += 1
            lemma = [int(lit) for lit in lits]
            if self.proof is not None:
                self.proof.log_lemma(lemma, getattr(lits, "source", None))
            if self.events is not None:
                self.events.emit("theory-lemma", size=len(lemma), final=final)
            conflict = self._integrate_lemma(lemma)
            if self._unsat:
                return NO_CLAUSE
            if conflict != NO_CLAUSE:
                # Handle the first conflicting lemma; the hook regenerates
                # anything it still cares about at the next fixpoint.
                self.stats["theory_conflicts"] += 1
                return conflict
        return NO_CLAUSE

    def _integrate_lemma(self, lits: list[int]) -> int:
        """Attach a theory lemma mid-search, backjumping as needed.

        The lemma joins the problem clauses (theory lemmas are valid, so
        they survive database reduction).  A falsified lemma backjumps to
        its highest assignment level and is returned as the conflict to
        analyze; a unit lemma backjumps and asserts its literal; anything
        else attaches watching two non-false literals.
        """
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a literal")
            self.ensure_vars(abs(lit))
            if -lit in seen:
                return NO_CLAUSE  # tautology
            if lit in seen:
                continue
            if self._values[lit] == -1 and self._levels[abs(lit)] == 0:
                continue  # false fact: drop the literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._unsat = True
            return NO_CLAUSE
        if len(out) == 1:
            self._cancel_until(0)
            unit = out[0]
            value = self._values[unit]
            if value == -1:
                self._unsat = True
            elif value == 0:
                self._assign(unit, NO_CLAUSE)
            return NO_CLAUSE
        false_lits = sorted(
            (lit for lit in out if self._values[lit] == -1),
            key=lambda lit: -self._levels[abs(lit)],
        )
        non_false = [lit for lit in out if self._values[lit] != -1]
        if len(non_false) >= 2:
            ref = self._alloc(non_false + false_lits, learned=False)
            self._clauses.append(ref)
            self._attach(ref)
            return NO_CLAUSE
        if len(non_false) == 1:
            unit = non_false[0]
            backjump = self._levels[abs(false_lits[0])]
            if not (self._values[unit] == 1 and self._levels[abs(unit)] <= backjump):
                self._cancel_until(backjump)
            ref = self._alloc([unit] + false_lits, learned=False)
            self._clauses.append(ref)
            self._attach(ref)
            if self._values[unit] == 0:
                self._assign(unit, ref)
            return NO_CLAUSE
        # Every literal is false: this lemma vetoes the current assignment.
        backjump = self._levels[abs(false_lits[0])]
        if backjump == 0:
            self._unsat = True
            return NO_CLAUSE
        self._cancel_until(backjump)
        ref = self._alloc(false_lits, learned=False)
        self._clauses.append(ref)
        self._attach(ref)
        return ref

    # -- activity -----------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        activity = self._activity[var] + self._var_inc
        self._activity[var] = activity
        if activity > _RESCALE_LIMIT:
            scale = _RESCALE_FACTOR
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= scale
            self._var_inc *= scale
            self._order = [
                (-self._activity[v], v)
                for v in range(1, self._num_vars + 1)
                if self._values[v] == 0
            ]
            heapify(self._order)
        else:
            heappush(self._order, (-activity, var))

    def _bump_clause(self, ref: int) -> None:
        activity = self._cla_activity.get(ref, 0.0) + self._cla_inc
        self._cla_activity[ref] = activity
        if activity > _CLA_RESCALE_LIMIT:
            for learnt in self._learnts:
                self._cla_activity[learnt] = (
                    self._cla_activity.get(learnt, 0.0) * _CLA_RESCALE_FACTOR
                )
            self._cla_inc *= _CLA_RESCALE_FACTOR

    def _decide(self) -> int:
        """Most active unassigned variable, or 0 when all are assigned."""
        while self._order:
            _, var = heappop(self._order)
            if self._values[var] == 0:
                return var
        for var in range(1, self._num_vars + 1):  # heap ran dry: safety scan
            if self._values[var] == 0:
                return var
        return 0

    def _random_unassigned(self, rng: Random) -> int:
        """A random unassigned variable via a few probes, or 0 to fall back
        to VSIDS.  Probing keeps the noisy-decision path O(1); when most
        variables are assigned the probes miss and the caller's VSIDS pick
        (which must scan anyway) takes over."""
        num_vars = self._num_vars
        if num_vars == 0:
            return 0
        values = self._values
        for _ in range(8):
            var = rng.randint(1, num_vars)
            if values[var] == 0:
                return var
        return 0

    # -- learned-clause reduction -------------------------------------------

    def _reduce_db(self) -> None:
        """Drop roughly the less active half of the learnt clauses, keeping
        binary clauses and clauses that are reasons on the current trail.

        Retention is by clause activity, like the reference core —
        LBD-ordered deletion (Glucose-style) was measured here and lost
        badly on structured instances (pigeonhole: 3.7x more conflicts),
        so LBD is computed only for ``learn`` events and does not drive
        deletion."""
        activities = self._cla_activity
        arena = self._arena
        self._learnts.sort(key=lambda ref: activities.get(ref, 0.0))
        locked = set(self._reasons)
        limit = len(self._learnts) // 2
        removed = 0
        kept: list[int] = []
        for ref in self._learnts:
            if removed < limit and arena[ref] > 2 and ref not in locked:
                self._delete_clause(ref)
                removed += 1
            else:
                kept.append(ref)
        self._learnts = kept
        self.stats["deleted"] += removed
        if self._garbage_words * 2 > len(self._arena):
            self._collect_garbage()

    def _delete_clause(self, ref: int) -> None:
        """Detach a learned clause and mark its arena block as garbage."""
        self._detach(ref)
        if self.proof is not None:
            self.proof.log_delete(self.clause_lits(ref))
        self._arena[ref + 1] |= _DELETED_BIT
        self._garbage_words += self._arena[ref] + _HEADER_WORDS
        self._cla_activity.pop(ref, None)

    def _collect_garbage(self) -> None:
        """Compact the arena: copy live clause blocks into a fresh arena
        and remap every reference (clause lists, watch pairs, reasons,
        activities).  Runs when over half the arena is deleted blocks;
        safe at any decision level because trail reasons are remapped."""
        old = self._arena
        fresh: list[int] = [0]
        remap: dict[int, int] = {NO_CLAUSE: NO_CLAUSE}
        for refs in (self._clauses, self._learnts):
            for ref in refs:
                new_ref = len(fresh)
                remap[ref] = new_ref
                fresh.extend(old[ref : ref + _HEADER_WORDS + old[ref]])
        self._arena = fresh
        self._garbage_words = 0
        self._clauses = [remap[ref] for ref in self._clauses]
        self._learnts = [remap[ref] for ref in self._learnts]
        self._cla_activity = {
            remap[ref]: activity for ref, activity in self._cla_activity.items()
        }
        self._reasons = [remap[ref] for ref in self._reasons]
        for watch_lists in (self._watches, self._bwatches):
            for watchers in watch_lists:
                for i, entry in enumerate(watchers):
                    watchers[i] = (remap[entry[0]], entry[1])
        self.stats["arena_collections"] += 1

    # -- the main loop ------------------------------------------------------

    def _restart_interval(self, restarts: int) -> int:
        """Conflicts until restart number ``restarts + 1`` fires, under the
        configured series (Luby by default, geometric for portfolio
        diversification)."""
        cfg = self.config
        if cfg.restart == "geometric":
            return int(cfg.restart_base * cfg.restart_factor**restarts)
        return cfg.restart_base * luby(restarts + 1)

    def _budget_stop(self) -> Optional[str]:
        """Why the search must stop now (``"timeout"``/``"cancelled"``),
        or ``None`` to keep going.  Polled at conflict and restart
        boundaries, before final theory checks, and every few hundred
        decisions — cheap enough per call that propagation dominates."""
        if self._deadline is not None and monotonic() >= self._deadline:
            return "timeout"
        if self._interrupt is not None and self._interrupt():
            return "cancelled"
        return None

    def solve(
        self,
        conflict_limit: Optional[int] = None,
        assumptions: Sequence[int] = (),
        deadline: Optional[float] = None,
        interrupt: Optional[Callable[[], bool]] = None,
    ) -> str:
        """Decide the conjunction of all added clauses under ``assumptions``.

        Returns :data:`SAT` (a model is available via :attr:`model`),
        :data:`UNSAT` (with :attr:`failed_assumptions` populated when
        assumptions were involved), or :data:`UNKNOWN` when a budget ran
        out first — ``conflict_limit`` conflicts, the ``deadline`` (a
        :func:`time.monotonic` instant), or the ``interrupt`` callback
        returning true (the portfolio cancellation hook).  Which budget
        fired is recorded in :attr:`stop_reason` (``"conflict-limit"``,
        ``"timeout"`` or ``"cancelled"``).  Always returns at decision
        level 0 — including when unwound by ``KeyboardInterrupt``/SIGTERM,
        so an interrupted solver stays reusable; learned clauses,
        activities and theory lemmas persist for the next call.
        """
        assumed = [int(lit) for lit in assumptions]
        for lit in assumed:
            if lit == 0:
                raise ValueError("0 is not a literal")
            self.ensure_vars(abs(lit))
        self.stop_reason = None
        self._deadline = deadline
        self._interrupt = interrupt
        self._failed_assumptions = None
        if self._unsat:
            self._failed_assumptions = ()
            self._proof_conclude(())
            return UNSAT
        self._model = None
        if self._propagate() != NO_CLAUSE:
            self._unsat = True
            self._failed_assumptions = ()
            self._proof_conclude(())
            return UNSAT
        try:
            return self._search(conflict_limit, assumed)
        except BaseException:
            # KeyboardInterrupt / SIGTERM-raised exceptions can land at any
            # bytecode boundary mid-search.  Unwind to the assumption-free
            # root so the solver (and its owning engine) stays reusable —
            # the next solve() answers the same query correctly.
            self._cancel_until(0)
            raise

    def _search(self, conflict_limit: Optional[int], assumed: list[int]) -> str:
        """CDCL search loop; factored out so :meth:`solve` can guarantee
        the level-0 unwind on abnormal exits."""
        conflicts = 0
        restarts = 0
        restart_limit = self._restart_interval(0)
        conflicts_since_restart = 0
        max_learnts = max(len(self._clauses) // 3, 100)
        pending = NO_CLAUSE
        rng = self._rng
        random_decision_freq = self.config.random_decision_freq
        random_polarity_freq = self.config.random_polarity_freq
        decisions_since_poll = 0
        while True:
            conflict = pending if pending != NO_CLAUSE else self._propagate()
            pending = NO_CLAUSE
            if conflict == NO_CLAUSE and self.theory is not None and self.theory_eager:
                conflict = self._theory_check(final=False)
                if self._unsat:
                    self._failed_assumptions = ()
                    self._cancel_until(0)
                    self._proof_conclude(())
                    return UNSAT
                if conflict == NO_CLAUSE and self._qhead < len(self._trail):
                    continue  # a theory lemma propagated: reach a fixpoint first
            if conflict != NO_CLAUSE:
                conflicts += 1
                conflicts_since_restart += 1
                self.stats["conflicts"] += 1
                if self.events is not None:
                    self.events.emit(
                        "conflict",
                        level=len(self._trail_lim),
                        size=self._arena[conflict],
                    )
                if not self._trail_lim:
                    self._unsat = True
                    self._failed_assumptions = ()
                    self._proof_conclude(())
                    return UNSAT
                learnt, backtrack_level = self._analyze(conflict)
                if self.events is not None:
                    # LBD (literal block distance): distinct decision levels
                    # in the learnt clause, read out before the backjump
                    # invalidates the level array.  Deletion is
                    # activity-based (see :meth:`_reduce_db`), so LBD is
                    # observability-only.
                    lbd = len({self._levels[abs(q)] for q in learnt})
                    self.events.emit(
                        "learn", size=len(learnt), lbd=lbd, backjump=backtrack_level
                    )
                self._cancel_until(backtrack_level)
                self._record(learnt)
                self._var_inc *= self._var_decay_mult
                self._cla_inc *= _CLA_DECAY
                if conflict_limit is not None and conflicts >= conflict_limit:
                    self.stop_reason = "conflict-limit"
                    self._cancel_until(0)
                    return UNKNOWN
                stop = self._budget_stop()
                if stop is not None:
                    self.stop_reason = stop
                    self._cancel_until(0)
                    return UNKNOWN
                continue
            if conflicts_since_restart >= restart_limit:
                restarts += 1
                conflicts_since_restart = 0
                restart_limit = self._restart_interval(restarts)
                self.stats["restarts"] += 1
                if self.events is not None:
                    self.events.emit("restart", conflicts=conflicts)
                self._cancel_until(0)
                stop = self._budget_stop()
                if stop is not None:
                    self.stop_reason = stop
                    return UNKNOWN
                continue
            if len(self._learnts) - len(self._trail) >= max_learnts:
                self._reduce_db()
            if len(self._trail_lim) < len(assumed):
                # Decide pending assumptions first, one pseudo-level each.
                lit = assumed[len(self._trail_lim)]
                value = self._values[lit]
                if value == -1:
                    self._failed_assumptions = self._analyze_final(lit)
                    self._cancel_until(0)
                    self._proof_conclude(self._failed_assumptions)
                    return UNSAT
                self._trail_lim.append(len(self._trail))
                if value == 0:
                    self._assign(lit, NO_CLAUSE)
                continue
            var = 0
            if rng is not None and random_decision_freq > 0.0:
                if rng.random() < random_decision_freq:
                    var = self._random_unassigned(rng)
                    if var:
                        self.stats["random_decisions"] += 1
            if var == 0:
                var = self._decide()
            if var == 0:
                if self.theory is not None:
                    stop = self._budget_stop()
                    if stop is not None:
                        self.stop_reason = stop
                        self._cancel_until(0)
                        return UNKNOWN
                    num_vars_before = self._num_vars
                    conflict = self._theory_check(final=True)
                    if self._unsat:
                        self._failed_assumptions = ()
                        self._cancel_until(0)
                        self._proof_conclude(())
                        return UNSAT
                    if conflict != NO_CLAUSE:
                        pending = conflict
                        continue
                    if self._qhead < len(self._trail):
                        continue  # lemma propagations must settle first
                    if self._num_vars > num_vars_before:
                        continue  # lemmas introduced fresh variables: decide them
                self._model = [False] + [
                    self._values[v] == 1 for v in range(1, self._num_vars + 1)
                ]
                self._cancel_until(0)
                return SAT
            decisions_since_poll += 1
            if decisions_since_poll >= 256:
                # Conflict-free stretches (easy satisfiable instances) would
                # otherwise never see the deadline/cancel flag.
                decisions_since_poll = 0
                stop = self._budget_stop()
                if stop is not None:
                    self.stop_reason = stop
                    self._cancel_until(0)
                    return UNKNOWN
            self.stats["decisions"] += 1
            if self.events is not None:
                self.events.emit("decision", var=var, level=len(self._trail_lim) + 1)
            self._trail_lim.append(len(self._trail))
            phase = self._phase[var]
            if (
                rng is not None
                and random_polarity_freq > 0.0
                and rng.random() < random_polarity_freq
            ):
                phase = rng.getrandbits(1)
            self._assign(var if phase else -var, NO_CLAUSE)


__all__ = [
    "Solver",
    "TheoryHook",
    "TheoryLemma",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "RESTART_BASE",
    "NO_CLAUSE",
    "luby",
]
