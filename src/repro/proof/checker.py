"""An independent forward RUP/DRAT proof checker.

The checker re-derives nothing from the solver: it shares no code with
the CDCL propagation loop (:mod:`repro.sat.solver` uses two-watched
literals over a flat clause arena; this module keeps immutable clause
tuples and a set of true literals).  Its job is to *audit* the solver,
so the implementations must be able to disagree.

Checking replays the proof in order:

* ``input`` and ``lemma`` steps extend the formula as axioms (lemmas are
  recorded with provenance; their theory validity is the trusted base —
  the same convention DRAT toolchains use for the CNF itself).
* ``rup`` steps must pass **reverse unit propagation**: asserting the
  negation of every literal of the clause over the active formula must
  lead to a conflict by unit propagation.  This covers every learned
  clause and the concluding clause of the answer.  A step is checked in
  one of two ways:

  - **Hinted** (every learned clause the solver logs): the step names,
    by proof id, the clauses its derivation used (see
    :mod:`repro.proof.log`).  The checker assumes the negated clause on
    top of the top-level units and walks the hints in order: each must
    be an active earlier clause with exactly one literal not false — its
    literal is then assumed — until one has every literal false, the
    conflict.  There is no search.  Hints are untrusted: an id out of
    range or of a deleted clause, a hint that is not unit, or hints that
    end without a conflict reject the step; the checker never falls
    back to search for a step whose hints fail.
  - **Unhinted** (the concluding steps, hand-built proofs, and a learned
    clause whose antecedents predate a log attached mid-life): the
    checker searches with counting-based unit propagation — per-clause
    false-literal counters over occurrence lists, with a trail whose
    temporary suffix is rolled back after the test.

* ``delete`` steps deactivate a clause, so later RUP steps cannot lean
  on clauses the solver had already dropped.  Deleting a clause never
  retracts permanent (top-level) units it helped derive — the standard
  forward-checking relaxation, also used by ``drat-trim``.

The same counting propagation keeps the top-level units: every added
clause that is unit under them extends them to fixpoint.  These units
are why the solver hints no level-0 literal.

After the replay the claimed :attr:`~repro.proof.log.Proof.conclusion`
must itself follow: the empty conclusion requires the formula to have
propagated to a contradiction, a non-empty conclusion must be RUP (it is
normally also the final ``rup`` step, so this is a cheap re-check).

Whenever a clause is added while the formula already propagates to a
contradiction, every later check passes trivially — sound, because the
contradiction itself was reached by verified steps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import neg
from typing import Optional, Sequence

from .log import DELETE, INPUT, LEMMA, RUP, Proof


@dataclass
class ProofCheckResult:
    """The verdict of :func:`check_proof`.

    ``ok`` is the certification verdict.  On rejection ``error`` says
    why and ``step_index`` points at the offending step (``None`` when
    the conclusion itself failed).  ``stats`` reports the work done:
    ``rup_checked`` (every RUP test, hinted or not), ``hinted`` (steps
    verified by their hints), ``propagations`` (assignments of the
    counting propagation), ``clauses``, ``lemmas``, ``deletions``.
    """

    ok: bool
    error: Optional[str] = None
    step_index: Optional[int] = None
    stats: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


class _Checker:
    """An add/delete clause set with top-level units, checking RUP claims
    by a hinted walk or by counting-based unit propagation."""

    def __init__(self) -> None:
        #: Clause id → deduped literal tuple; ``None`` once deleted.  The
        #: id is the clause's proof id.
        self._clauses: list[Optional[tuple[int, ...]]] = []
        #: Literal → ids of active-or-deleted clauses containing it.
        self._occ: defaultdict[int, list[int]] = defaultdict(list)
        #: Clause id → number of false literals under the trail.
        self._false: list[int] = []
        #: The true literals: the trail's, plus a hinted walk's assumptions
        #: while it runs.
        self._true: set[int] = set()
        #: Assigned literals in assignment order (permanent prefix + the
        #: temporary suffix of the unhinted RUP check in flight).
        self._trail: list[int] = []
        #: Sorted-literal key → ids, for deletion matching; covers the
        #: clauses below ``_keyed``, indexed when a deletion needs them.
        self._by_key: dict[tuple[int, ...], list[int]] = {}
        self._keyed = 0
        #: The formula propagates to a conflict at the top level.
        self.contradiction = False
        self.stats = {
            "clauses": 0,
            "lemmas": 0,
            "deletions": 0,
            "rup_checked": 0,
            "hinted": 0,
            "propagations": 0,
        }

    # -- counting propagation -----------------------------------------------

    def _propagate(self, pending: list[int]) -> bool:
        """Assign the pending literals and unit-propagate to fixpoint.
        Returns ``True`` on conflict.  Assignments stay on the trail for
        the caller to keep (permanent) or roll back (RUP check)."""
        true = self._true
        clauses = self._clauses
        false = self._false
        index = 0
        while index < len(pending):
            lit = pending[index]
            index += 1
            if lit in true:
                continue
            if -lit in true:
                return True
            true.add(lit)
            self._trail.append(lit)
            self.stats["propagations"] += 1
            occ = self._occ.get(-lit, ())
            for pos, cid in enumerate(occ):
                clause = clauses[cid]
                if clause is None:
                    continue
                false[cid] += 1
                if false[cid] < len(clause) - 1:
                    continue
                unassigned = None
                satisfied = False
                for other in clause:
                    if other in true:
                        satisfied = True
                        break
                    if -other not in true:
                        unassigned = other
                if satisfied:
                    continue
                if unassigned is None:
                    # Conflict.  ``lit`` stays on the trail, so finish its
                    # counter sweep first — :meth:`_undo_to` decrements the
                    # whole occurrence list and the counts must match.
                    for rest in occ[pos + 1 :]:
                        if clauses[rest] is not None:
                            false[rest] += 1
                    return True
                pending.append(unassigned)
        return False

    def _undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            lit = self._trail.pop()
            self._true.discard(lit)
            for cid in self._occ.get(-lit, ()):
                if self._clauses[cid] is not None:
                    self._false[cid] -= 1

    # -- the RUP test -------------------------------------------------------

    def rup(
        self,
        clause: tuple[int, ...],
        tautology: bool,
        hints: Optional[Sequence[int]] = None,
    ) -> Optional[str]:
        """``None`` when the active formula gives the deduped ``clause``
        by reverse unit propagation (or is already contradictory), else
        why not.  With ``hints`` the derivation is the hinted walk and
        nothing else."""
        if self.contradiction or tautology:
            return None
        self.stats["rup_checked"] += 1
        if hints is not None:
            why = self._walk(clause, hints)
            if why is not None:
                return f"is not verified by its hints: {why}"
            self.stats["hinted"] += 1
            return None
        mark = len(self._trail)
        conflict = self._propagate([-lit for lit in clause])
        self._undo_to(mark)
        return None if conflict else "is not RUP"

    def _walk(self, clause: tuple[int, ...], hints: Sequence[int]) -> Optional[str]:
        """Assume the negated ``clause``, then each hint's one literal not
        false, until a hint is falsified.  ``None`` on that conflict,
        else what was wrong with the hints.  The assumptions never touch
        the trail or the counters, and are retracted on return."""
        true = self._true
        assumed: list[int] = []
        try:
            for lit in clause:
                if lit in true:
                    return None  # a top-level unit: its negation conflicts
                if -lit not in true:
                    true.add(-lit)
                    assumed.append(-lit)
            clauses = self._clauses
            known = len(clauses)
            for cid in hints:
                if not 0 <= cid < known:
                    return f"hint {cid} names no earlier clause"
                hint = clauses[cid]
                if hint is None:
                    return f"hint {cid} names a deleted clause"
                unit = 0
                for lit in hint:
                    if -lit not in true:
                        if unit:
                            return f"hint {cid} is not unit"
                        unit = lit
                if not unit:
                    return None  # every literal false: the conflict
                if unit not in true:
                    true.add(unit)
                    assumed.append(unit)
            return "the hints end without a conflict"
        finally:
            true.difference_update(assumed)

    # -- formula maintenance ------------------------------------------------

    def add(self, clause: tuple[int, ...], tautology: bool, lemma: bool = False) -> None:
        """Attach a deduped clause and propagate any permanent
        consequence."""
        cid = len(self._clauses)
        self._clauses.append(clause)
        self.stats["lemmas" if lemma else "clauses"] += 1
        true = self._true
        occurrences = self._occ
        false_count = 0
        free = 0
        unassigned = 0
        satisfied = False
        for lit in clause:
            occurrences[lit].append(cid)
            if lit in true:
                satisfied = True
            elif -lit in true:
                false_count += 1
            else:
                free += 1
                unassigned = lit
        self._false.append(false_count)
        if self.contradiction or tautology or satisfied or free > 1:
            return
        if not free or self._propagate([unassigned]):
            self.contradiction = True

    def delete(self, lits: Sequence[int]) -> bool:
        """Deactivate one clause matching ``lits`` (as a literal set).
        Returns ``False`` when no active match exists."""
        deduped, _ = _dedupe(lits)
        if len(deduped) <= 1:
            # Unit/empty deletions are ignored (they would retract
            # permanent propagation); the solver never emits them.
            self.stats["deletions"] += 1
            return True
        clauses = self._clauses
        by_key = self._by_key
        for cid in range(self._keyed, len(clauses)):
            # Unkeyed clauses are all active: deleting one keys it first.
            by_key.setdefault(tuple(sorted(clauses[cid])), []).append(cid)
        self._keyed = len(clauses)
        ids = by_key.get(tuple(sorted(deduped)))
        if not ids:
            return False
        clauses[ids.pop()] = None
        self.stats["deletions"] += 1
        return True


def _dedupe(lits: Sequence[int]) -> tuple[tuple[int, ...], bool]:
    """Deduplicate preserving order; flag tautologies (p ∨ ¬p)."""
    clause = tuple(lits)
    seen = set(clause)
    if 0 in seen:
        raise ValueError("0 is not a literal")
    if len(seen) == len(clause):
        return clause, not seen.isdisjoint(map(neg, clause))
    out: list[int] = []
    seen.clear()
    for lit in clause:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out), not seen.isdisjoint(map(neg, out))


def check_proof(proof: Proof) -> ProofCheckResult:
    """Replay ``proof`` and certify it (see the module docstring)."""
    checker = _Checker()
    add, rup = checker.add, checker.rup
    for index, step in enumerate(proof.steps):
        kind = step.kind
        if kind == INPUT:
            add(*_dedupe(step.lits))
        elif kind == RUP:
            clause, tautology = _dedupe(step.lits)
            why = rup(clause, tautology, step.hints)
            if why is not None:
                return ProofCheckResult(
                    False,
                    error=f"step {index}: clause {list(step.lits)} {why}",
                    step_index=index,
                    stats=checker.stats,
                )
            add(clause, tautology)
        elif kind == LEMMA:
            add(*_dedupe(step.lits), lemma=True)
        elif kind == DELETE:
            if not checker.delete(step.lits):
                return ProofCheckResult(
                    False,
                    error=f"step {index}: deletion of unknown clause {list(step.lits)}",
                    step_index=index,
                    stats=checker.stats,
                )
        else:
            return ProofCheckResult(
                False,
                error=f"step {index}: unknown step kind {kind!r}",
                step_index=index,
                stats=checker.stats,
            )
    if rup(*_dedupe(proof.conclusion)) is not None:
        claim = "the empty clause" if not proof.conclusion else f"clause {list(proof.conclusion)}"
        return ProofCheckResult(
            False,
            error=f"conclusion {claim} does not follow from the proof",
            stats=checker.stats,
        )
    return ProofCheckResult(True, stats=checker.stats)


__all__ = ["ProofCheckResult", "check_proof"]
