"""An independent forward RUP/DRAT proof checker.

The checker re-derives nothing from the solver: it shares no code with
the CDCL propagation loop (:mod:`repro.sat.solver` uses two-watched
literals over a flat clause arena; this module keeps immutable clause
tuples and sets of true literals).  Its job is to *audit* the solver,
so the implementations must be able to disagree.

Checking replays the proof in order:

* ``input`` and ``lemma`` steps extend the formula as axioms (lemmas are
  recorded with provenance; their theory validity is the trusted base —
  the same convention DRAT toolchains use for the CNF itself).
* ``rup`` steps must pass **reverse unit propagation**: asserting the
  negation of every literal of the clause over the active formula must
  lead to a conflict by unit propagation.  This covers every learned
  clause, every unit the solver derives for its hints, and the
  concluding clause of the answer.  A step is checked in one of two
  ways:

  - **Hinted** (every step the solver logs): the step names, by proof
    id, the clauses its derivation used (see :mod:`repro.proof.log`).
    The checker assumes the negated clause and walks the hints in order,
    with nothing else assumed — no top-level units: each hint must be an
    active earlier clause with exactly one literal not false — its
    literal is then assumed — until one has every literal false, the
    conflict.  There is no search, and a level-0 literal counts only
    once a hinted unit clause has named it.  Hints are untrusted: an id
    out of range or of a deleted clause, a hint that is not unit, or
    hints that end without a conflict reject the step; the checker never
    falls back to search for a step whose hints fail.
  - **Unhinted** (hand-built proofs, proofs stripped of their hints, and
    a step whose derivation is older than a log attached mid-life): the
    checker searches with counting-based unit propagation — per-clause
    false-literal counters over occurrence lists, with a trail whose
    temporary suffix is rolled back after the test.

* ``delete`` steps deactivate a clause, so later RUP steps cannot lean
  on clauses the solver had already dropped.

While every step is hinted, adding a clause only stores it.  The
occurrence lists, the counters and the top-level units are built when
the first unhinted step (or a conclusion that no step established)
needs a search: the additions and deletions so far are replayed in
order, so a search sees the same formula as if it had been kept from
the start.  From then on the same counting propagation keeps the
top-level units: every added clause that is unit under them extends
them to fixpoint.  Deleting a clause never retracts permanent units it
helped derive — the standard forward-checking relaxation, also used by
``drat-trim``.  Whenever a clause is added while the formula already
propagates to a contradiction, every later unhinted check passes
trivially — sound, because the contradiction itself was reached by
verified steps.

After the replay the claimed :attr:`~repro.proof.log.Proof.conclusion`
must itself follow: it does at once when it contains the last clause
added, which is the solver's concluding step; otherwise it must be RUP
by search (the empty conclusion then requires the formula to propagate
to a contradiction).
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
    """A store of clauses, checking RUP claims by a hinted walk or, built
    on demand, by counting-based unit propagation."""

    def __init__(self) -> None:
        #: Clause id → literal tuple; ``None`` once deleted.  The id is
        #: the clause's proof id.  Stored as given while every step is
        #: hinted, deduplicated once the counting propagation is built.
        self._clauses: list[Optional[tuple[int, ...]]] = []
        #: Deletions before the counting propagation exists, as
        #: ``(clauses added before it, id, literals)``, for its replay.
        self._deleted: list[tuple[int, int, tuple[int, ...]]] = []
        #: Literal → ids of active-or-deleted clauses containing it;
        #: ``None`` until a search needs it.
        self._occ: Optional[defaultdict[int, list[int]]] = None
        #: Clause id → number of false literals under the trail.
        self._false: list[int] = []
        #: The true literals of the trail.
        self._true: set[int] = set()
        #: Assigned literals in assignment order (permanent prefix + the
        #: temporary suffix of the unhinted RUP check in flight).
        self._trail: list[int] = []
        #: Sorted-literal key → ids, for deletion matching; covers the
        #: clauses below ``_keyed``, indexed when a deletion needs them.
        self._by_key: dict[tuple[int, ...], list[int]] = {}
        self._keyed = 0
        #: The formula propagates to a conflict at the top level (known
        #: only once the counting propagation is built).
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

    def _start_search(self) -> None:
        """Build the occurrence lists, counters and top-level units by
        replaying every addition and deletion so far in order."""
        clauses = self._clauses
        deleted = self._deleted
        for _, cid, lits in deleted:
            clauses[cid] = lits
        self._occ = defaultdict(list)
        pending = 0
        for cid in range(len(clauses)):
            while pending < len(deleted) and deleted[pending][0] <= cid:
                clauses[deleted[pending][1]] = None
                pending += 1
            self._index(cid)
        for _, cid, _ in deleted[pending:]:
            clauses[cid] = None
        deleted.clear()

    def _index(self, cid: int) -> None:
        """Deduplicate clause ``cid``, enter it in the occurrence lists
        and counters, and propagate any permanent consequence."""
        lits = self._clauses[cid]
        assert lits is not None
        clause, tautology = _dedupe(lits)
        self._clauses[cid] = clause
        occurrences = self._occ
        assert occurrences is not None
        true = self._true
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

    def _propagate(self, pending: list[int]) -> bool:
        """Assign the pending literals and unit-propagate to fixpoint.
        Returns ``True`` on conflict.  Assignments stay on the trail for
        the caller to keep (permanent) or roll back (RUP check)."""
        true = self._true
        clauses = self._clauses
        false = self._false
        occurrences = self._occ
        assert occurrences is not None
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
            occ = occurrences.get(-lit, ())
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
        occurrences = self._occ
        assert occurrences is not None
        while len(self._trail) > mark:
            lit = self._trail.pop()
            self._true.discard(lit)
            for cid in occurrences.get(-lit, ()):
                if self._clauses[cid] is not None:
                    self._false[cid] -= 1

    # -- the RUP test -------------------------------------------------------

    def rup(
        self, clause: tuple[int, ...], hints: Optional[Sequence[int]] = None
    ) -> Optional[str]:
        """``None`` when the active formula gives ``clause`` by reverse
        unit propagation (or the clause is a tautology), else why not.
        With ``hints`` the derivation is the hinted walk and nothing
        else; without, a search, which passes every clause once the
        formula is contradictory."""
        if 0 in clause:
            raise ValueError("0 is not a literal")
        negated = set(map(neg, clause))
        if not negated.isdisjoint(clause):
            return None  # a tautology
        if hints is not None:
            self.stats["rup_checked"] += 1
            why = self._walk(negated, hints)
            if why is not None:
                return f"is not verified by its hints: {why}"
            self.stats["hinted"] += 1
            return None
        if self._occ is None:
            self._start_search()
        if self.contradiction:
            return None
        self.stats["rup_checked"] += 1
        mark = len(self._trail)
        conflict = self._propagate([-lit for lit in clause])
        self._undo_to(mark)
        return None if conflict else "is not RUP"

    def _walk(self, true: set[int], hints: Sequence[int]) -> Optional[str]:
        """Starting from the literals ``true`` (the negated clause),
        assume each hint's one literal not false, until a hint is
        falsified.  ``None`` on that conflict, else what was wrong with
        the hints."""
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
                    if unit and unit != lit:
                        return f"hint {cid} is not unit"
                    unit = lit
            if not unit:
                return None  # every literal false: the conflict
            true.add(unit)
        return "the hints end without a conflict"

    def follows(self, clause: tuple[int, ...]) -> Optional[str]:
        """``None`` when ``clause`` follows from the formula: at once when
        it contains the last clause added, else by :meth:`rup`."""
        last = self._clauses[-1] if self._clauses else None
        if last is not None and set(last).issubset(clause):
            return None
        return self.rup(clause)

    # -- formula maintenance ------------------------------------------------

    def add(self, clause: tuple[int, ...], lemma: bool = False) -> None:
        """Store a clause; once a search has built the counting
        propagation, also index it and propagate any permanent
        consequence."""
        if 0 in clause:
            raise ValueError("0 is not a literal")
        self._clauses.append(clause)
        self.stats["lemmas" if lemma else "clauses"] += 1
        if self._occ is not None:
            self._index(len(self._clauses) - 1)

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
            by_key.setdefault(tuple(sorted(set(clauses[cid] or ()))), []).append(cid)
        self._keyed = len(clauses)
        ids = by_key.get(tuple(sorted(deduped)))
        if not ids:
            return False
        cid = ids.pop()
        gone = clauses[cid]
        if self._occ is None and gone is not None:
            self._deleted.append((len(clauses), cid, gone))
        clauses[cid] = None
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
            add(step.lits)
        elif kind == RUP:
            why = rup(step.lits, step.hints)
            if why is not None:
                return ProofCheckResult(
                    False,
                    error=f"step {index}: clause {list(step.lits)} {why}",
                    step_index=index,
                    stats=checker.stats,
                )
            add(step.lits)
        elif kind == LEMMA:
            add(step.lits, lemma=True)
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
    if checker.follows(proof.conclusion) is not None:
        claim = "the empty clause" if not proof.conclusion else f"clause {list(proof.conclusion)}"
        return ProofCheckResult(
            False,
            error=f"conclusion {claim} does not follow from the proof",
            stats=checker.stats,
        )
    return ProofCheckResult(True, stats=checker.stats)


__all__ = ["ProofCheckResult", "check_proof"]
