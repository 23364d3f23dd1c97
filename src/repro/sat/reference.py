"""The retained object-based CDCL solver, kept as a differential oracle.

This is the pre-flat-arena implementation of :class:`repro.sat.Solver`,
byte-for-byte the search algorithm that shipped through PR 8: clauses as
``_Clause`` objects holding mutable literal lists, watch lists as Python
lists of clause objects, no blocker literals.  The production solver in
:mod:`repro.sat.solver` reimplements the same search on flat integer
arrays; this module exists so tests can cross-check the two cores on the
same inputs — identical verdicts, failed-assumption cores and
checker-accepted proofs — without trusting either implementation alone.

It is **not** exported from :mod:`repro.sat` and nothing in the engine
imports it; only the test suite and ad-hoc measurement scripts should.
The public surface mirrors :class:`repro.sat.Solver` exactly (``solve``,
``add_clause``, ``model``, ``failed_assumptions``, ``trail``, theory and
proof hooks), so the two are drop-in interchangeable.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import monotonic
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .solver import (
    RESTART_BASE,
    SAT,
    UNKNOWN,
    UNSAT,
    TheoryHook,
    TheoryLemma,
    luby,
)

if TYPE_CHECKING:  # event emission / proof logging are optional attachments
    from ..obs.events import EventLog
    from ..proof.log import ProofLog

_VAR_DECAY = 1.0 / 0.95
_CLA_DECAY = 1.0 / 0.999
_RESCALE_LIMIT = 1e100
_RESCALE_FACTOR = 1e-100
_CLA_RESCALE_LIMIT = 1e20
_CLA_RESCALE_FACTOR = 1e-20


class _Clause:
    """A clause: a mutable literal list whose first two entries are watched."""

    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: list[int], learned: bool = False) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "learnt" if self.learned else "clause"
        return f"<{kind} {self.lits}>"


class ReferenceSolver:
    """The object-based CDCL core (see the module docstring).

    Typical use::

        solver = ReferenceSolver()
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

    def __init__(self, num_vars: int = 0, config: Optional[object] = None) -> None:
        # The reference core is the executable spec of the *default*
        # strategy only; diversified configs belong to the production core.
        if config is not None and not getattr(config, "is_default", False):
            raise NotImplementedError(
                "ReferenceSolver implements only the default SolverConfig"
            )
        self._num_vars = 0
        # Indexed by variable; slot 0 is unused padding.
        self._values: list[int] = [0]  # 0 unassigned, 1 true, -1 false
        self._levels: list[int] = [0]
        self._reasons: list[Optional[_Clause]] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._seen = bytearray(1)
        # Indexed by encoded literal: 2*v for +v, 2*v+1 for -v.
        self._watches: list[list[_Clause]] = [[], []]
        self._clauses: list[_Clause] = []
        self._learnts: list[_Clause] = []
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
        #: Mirrors :attr:`repro.sat.Solver.stop_reason`: why the last
        #: :meth:`solve` returned :data:`UNKNOWN` (``"conflict-limit"``,
        #: ``"timeout"`` or ``"cancelled"``), ``None`` otherwise.
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
        self._values.append(0)
        self._levels.append(0)
        self._reasons.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._seen.append(0)
        self._watches.append([])
        self._watches.append([])
        heappush(self._order, (0.0, var))
        return var

    def ensure_vars(self, count: int) -> None:
        """Grow the variable pool to at least ``count`` variables."""
        while self._num_vars < count:
            self.new_var()

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
            value = self._values[abs(lit)]
            value = value if lit > 0 else -value
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
            self._assign(out[0], None)
            if self._propagate() is not None:
                self._unsat = True
                return False
            return True
        clause = _Clause(out)
        self._clauses.append(clause)
        self._attach(clause)
        return True

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add many clauses; returns ``False`` once any addition does."""
        ok = True
        for lits in clauses:
            ok = self.add_clause(lits) and ok
        return ok

    def _attach(self, clause: _Clause) -> None:
        lits = clause.lits
        self._watches[self._windex(lits[0])].append(clause)
        self._watches[self._windex(lits[1])].append(clause)

    def _detach(self, clause: _Clause) -> None:
        lits = clause.lits
        self._watches[self._windex(lits[0])].remove(clause)
        self._watches[self._windex(lits[1])].remove(clause)

    @staticmethod
    def _windex(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

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
        value = self._values[abs(lit)]
        return value if lit > 0 else -value

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
        for clause in self._clauses:
            clauses.append(tuple(clause.lits))
        return self._num_vars, clauses

    def _assign(self, lit: int, reason: Optional[_Clause]) -> None:
        var = abs(lit)
        self._values[var] = 1 if lit > 0 else -1
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
            phase[var] = lit > 0  # phase saving
            reasons[var] = None
            heappush(order, (-activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        if bound < self._trail_low:
            self._trail_low = bound
        self._qhead = bound

    # -- propagation --------------------------------------------------------

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation to fixpoint; returns a conflicting clause or
        ``None``.  Maintains the watched-literal invariant."""
        values = self._values
        watches = self._watches
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.stats["propagations"] += 1
            false_lit = -lit
            watchers = watches[self._windex(false_lit)]
            i = j = 0
            count = len(watchers)
            while i < count:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                # Normalise: the false literal sits at position 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], false_lit
                first = lits[0]
                value = values[first] if first > 0 else -values[-first]
                if value == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    other_value = values[other] if other > 0 else -values[-other]
                    if other_value != -1:
                        lits[1], lits[k] = other, false_lit
                        watches[self._windex(other)].append(clause)
                        break
                else:
                    # No replacement watch: the clause is unit or conflicting.
                    watchers[j] = clause
                    j += 1
                    if value == -1:
                        while i < count:  # keep the remaining watchers
                            watchers[j] = watchers[i]
                            j += 1
                            i += 1
                        del watchers[j:]
                        self._qhead = len(self._trail)
                        return clause
                    self._assign(first, clause)
                    continue
            del watchers[j:]
        return None

    # -- conflict analysis --------------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple[list[int], int]:
        """First-UIP conflict analysis.  Returns the learnt (asserting)
        clause — asserting literal first, a highest-level literal second —
        and the backtrack level."""
        learnt: list[int] = [0]
        seen = self._seen
        levels = self._levels
        trail = self._trail
        current_level = len(self._trail_lim)
        counter = 0
        p = 0
        reason_lits = conflict.lits
        index = len(trail)
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                var = abs(q)
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                if seen[abs(trail[index])]:
                    break
            p = trail[index]
            var = abs(p)
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason = self._reasons[var]
            assert reason is not None, "UIP literal must have a reason"
            if reason.learned:
                self._bump_clause(reason)
            reason_lits = reason.lits
        learnt[0] = -p
        if conflict.learned:
            self._bump_clause(conflict)

        # Self-subsumption minimization: drop a literal whose reason's other
        # literals are all already in the clause (seen) or at level 0.
        kept = [learnt[0]]
        for q in learnt[1:]:
            reason = self._reasons[abs(q)]
            redundant = reason is not None
            if reason is not None:
                for r in reason.lits:
                    var = abs(r)
                    if var != abs(q) and not seen[var] and levels[var] > 0:
                        redundant = False
                        break
            if redundant:
                self.stats["minimized"] += 1
            else:
                kept.append(q)
        for q in learnt[1:]:
            seen[abs(q)] = 0
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
            self._assign(lits[0], None)
            return
        clause = _Clause(lits, learned=True)
        clause.activity = self._cla_inc
        self._learnts.append(clause)
        self._attach(clause)
        self._assign(lits[0], clause)

    def _analyze_final(self, p: int) -> tuple[int, ...]:
        """Assumption ``p`` is false under the current (assumption-only)
        trail: walk the reason graph backward and collect the assumptions
        that imply ``not p``.  Returns the failed core including ``p``."""
        out = [p]
        if not self._trail_lim:
            return tuple(out)
        seen = self._seen
        seen[abs(p)] = 1
        for index in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[index]
            var = abs(lit)
            if not seen[var]:
                continue
            reason = self._reasons[var]
            if reason is None:
                # A decision above level 0 during the assumption phase is
                # always an assumption literal itself.
                out.append(lit)
            else:
                for q in reason.lits:
                    qvar = abs(q)
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

    def _theory_check(self, final: bool) -> Optional[_Clause]:
        """Consult the theory hook and integrate its lemmas.  Returns a
        conflicting clause for the main loop to analyze, or ``None``; may
        set the global unsat flag (level-0 theory conflict)."""
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
                return None
            if conflict is not None:
                # Handle the first conflicting lemma; the hook regenerates
                # anything it still cares about at the next fixpoint.
                self.stats["theory_conflicts"] += 1
                return conflict
        return None

    def _integrate_lemma(self, lits: list[int]) -> Optional[_Clause]:
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
                return None  # tautology
            if lit in seen:
                continue
            if self.value(lit) == -1 and self._levels[abs(lit)] == 0:
                continue  # false fact: drop the literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._unsat = True
            return None
        if len(out) == 1:
            self._cancel_until(0)
            unit = out[0]
            value = self.value(unit)
            if value == -1:
                self._unsat = True
            elif value == 0:
                self._assign(unit, None)
            return None
        false_lits = sorted(
            (lit for lit in out if self.value(lit) == -1),
            key=lambda lit: -self._levels[abs(lit)],
        )
        non_false = [lit for lit in out if self.value(lit) != -1]
        if len(non_false) >= 2:
            clause = _Clause(non_false + false_lits)
            self._clauses.append(clause)
            self._attach(clause)
            return None
        if len(non_false) == 1:
            unit = non_false[0]
            backjump = self._levels[abs(false_lits[0])]
            if not (self.value(unit) == 1 and self._levels[abs(unit)] <= backjump):
                self._cancel_until(backjump)
            clause = _Clause([unit] + false_lits)
            self._clauses.append(clause)
            self._attach(clause)
            if self.value(unit) == 0:
                self._assign(unit, clause)
            return None
        # Every literal is false: this lemma vetoes the current assignment.
        backjump = self._levels[abs(false_lits[0])]
        if backjump == 0:
            self._unsat = True
            return None
        self._cancel_until(backjump)
        clause = _Clause(false_lits)
        self._clauses.append(clause)
        self._attach(clause)
        return clause

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

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > _CLA_RESCALE_LIMIT:
            for learnt in self._learnts:
                learnt.activity *= _CLA_RESCALE_FACTOR
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

    # -- learned-clause reduction -------------------------------------------

    def _reduce_db(self) -> None:
        """Drop roughly the less active half of the learnt clauses, keeping
        binary clauses and clauses that are reasons on the current trail."""
        self._learnts.sort(key=lambda clause: clause.activity)
        locked = {id(reason) for reason in self._reasons if reason is not None}
        limit = len(self._learnts) // 2
        removed = 0
        kept: list[_Clause] = []
        for clause in self._learnts:
            if removed < limit and len(clause.lits) > 2 and id(clause) not in locked:
                self._detach(clause)
                if self.proof is not None:
                    self.proof.log_delete(tuple(clause.lits))
                removed += 1
            else:
                kept.append(clause)
        self._learnts = kept
        self.stats["deleted"] += removed

    # -- the main loop ------------------------------------------------------

    def _budget_stop(self) -> Optional[str]:
        """Why the search must stop now, or ``None``; polled at conflict
        and restart boundaries (mirrors the production core)."""
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
        out first — ``conflict_limit`` conflicts, the ``deadline``
        (:func:`time.monotonic`), or the ``interrupt`` callback; which one
        is recorded in :attr:`stop_reason`.  Always returns at decision
        level 0; learned clauses, activities and theory lemmas persist for
        the next call.
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
        if self._propagate() is not None:
            self._unsat = True
            self._failed_assumptions = ()
            self._proof_conclude(())
            return UNSAT
        conflicts = 0
        restarts = 0
        restart_limit = RESTART_BASE * luby(1)
        conflicts_since_restart = 0
        max_learnts = max(len(self._clauses) // 3, 100)
        pending: Optional[_Clause] = None
        while True:
            conflict = pending if pending is not None else self._propagate()
            pending = None
            if conflict is None and self.theory is not None and self.theory_eager:
                conflict = self._theory_check(final=False)
                if self._unsat:
                    self._failed_assumptions = ()
                    self._cancel_until(0)
                    self._proof_conclude(())
                    return UNSAT
                if conflict is None and self._qhead < len(self._trail):
                    continue  # a theory lemma propagated: reach a fixpoint first
            if conflict is not None:
                conflicts += 1
                conflicts_since_restart += 1
                self.stats["conflicts"] += 1
                if self.events is not None:
                    self.events.emit(
                        "conflict",
                        level=len(self._trail_lim),
                        size=len(conflict.lits),
                    )
                if not self._trail_lim:
                    self._unsat = True
                    self._failed_assumptions = ()
                    self._proof_conclude(())
                    return UNSAT
                learnt, backtrack_level = self._analyze(conflict)
                if self.events is not None:
                    # LBD (literal block distance): distinct decision
                    # levels in the learnt clause, read out before the
                    # backjump invalidates the level array.
                    lbd = len({self._levels[abs(q)] for q in learnt})
                    self.events.emit(
                        "learn", size=len(learnt), lbd=lbd, backjump=backtrack_level
                    )
                self._cancel_until(backtrack_level)
                self._record(learnt)
                self._var_inc *= _VAR_DECAY
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
                restart_limit = RESTART_BASE * luby(restarts + 1)
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
                value = self.value(lit)
                if value == -1:
                    self._failed_assumptions = self._analyze_final(lit)
                    self._cancel_until(0)
                    self._proof_conclude(self._failed_assumptions)
                    return UNSAT
                self._trail_lim.append(len(self._trail))
                if value == 0:
                    self._assign(lit, None)
                continue
            var = self._decide()
            if var == 0:
                if self.theory is not None:
                    num_vars_before = self._num_vars
                    conflict = self._theory_check(final=True)
                    if self._unsat:
                        self._failed_assumptions = ()
                        self._cancel_until(0)
                        self._proof_conclude(())
                        return UNSAT
                    if conflict is not None:
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
            self.stats["decisions"] += 1
            if self.events is not None:
                self.events.emit("decision", var=var, level=len(self._trail_lim) + 1)
            self._trail_lim.append(len(self._trail))
            self._assign(var if self._phase[var] else -var, None)


__all__ = ["ReferenceSolver"]
