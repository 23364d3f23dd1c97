"""Self-checks of the CDCL core, and unit tests of its watch layout.

The core's answers are checked on their own terms, never against a second
solver:

* every model satisfies every clause (and the assumptions);
* every ``unsat`` proof passes :func:`~repro.proof.check_proof` with
  every RUP step verified by its hints and no counting propagation
  (``hinted == rup_checked``, ``propagations == 0``); those steps are the
  learned clauses, the unit steps the solver derives for level-0
  literals, and the conclusion;
* every failed-assumption core is a subset of the assumptions and is
  unsat when solved again under those assumptions alone;
* instances of at most 14 variables match brute force.

The layout tests pin the three watch kinds.  Binary and ternary clauses
are watched on every literal by read-only entries that carry the clause's
other literals; clauses of four or more literals keep two migrating
watches on arena positions 0 and 1.  :func:`audit_watches` checks that
every live clause sits in exactly the lists its size dictates, and runs
after each kind of change a search makes to them: clause batches, theory
lemmas, learned-clause reduction, arena compaction and an unwound solve.
"""

from collections import Counter
from itertools import combinations
from random import Random

import pytest

from repro.proof import ProofLog, check_proof
from repro.proof.log import RUP
from repro.sat import SAT, UNKNOWN, UNSAT, Solver, TheoryHook, TheoryLemma
from repro.sat.solver import _DELETED_BIT

from test_sat import brute_force


def random_cnf(seed, width=(2, 3), num_vars=(8, 40), ratio=(3.0, 4.6)):
    rng = Random(seed)
    count = rng.randint(*num_vars)
    num_clauses = int(count * rng.uniform(*ratio))
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(width[0], min(width[1], count))
        variables = rng.sample(range(1, count + 1), size)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return count, clauses


def random_assumptions(seed, num_vars, count=6):
    rng = Random(seed)
    candidates = rng.sample(range(1, num_vars + 1), min(count, num_vars))
    return [v if rng.random() < 0.5 else -v for v in candidates]


def model_satisfies(model, clauses) -> bool:
    return all(any((lit > 0) == model[abs(lit)] for lit in clause) for clause in clauses)


def certify(solver, answer, clauses, assumptions=()):
    """A model satisfies every clause and assumption; an ``unsat`` proof
    checks, every RUP step verified by its own hints; a failed core is a
    subset of the assumptions."""
    if answer == SAT:
        assert model_satisfies(solver.model, clauses)
        assert model_satisfies(solver.model, [[lit] for lit in assumptions])
        return
    assert answer == UNSAT
    core = solver.failed_assumptions
    assert set(core) <= set(assumptions)
    if solver.proof is not None:
        proof = solver.proof.snapshot(tuple(-lit for lit in core))
        verdict = check_proof(proof)
        assert verdict.ok, verdict.error
        rups = [step for step in proof.steps if step.kind == RUP]
        assert verdict.stats["hinted"] == verdict.stats["rup_checked"] == proof.counts()[RUP]
        assert verdict.stats["propagations"] == 0
        # The RUP steps are the learned clauses, the derived unit steps
        # and, last, the conclusion.
        assert rups[-1].lits == proof.conclusion
        derived = len(rups) - 1 - solver.stats["learned"]
        assert 0 <= derived <= sum(len(step.lits) == 1 for step in rups[:-1])


def certified_solve(num_vars, clauses, assumptions=()):
    """Solve with proof logging, certify the answer and audit the lists."""
    solver = Solver(num_vars)
    solver.proof = ProofLog()
    solver.add_clauses(clauses)
    answer = solver.solve(assumptions=list(assumptions))
    certify(solver, answer, clauses, assumptions)
    audit_watches(solver)
    return answer, solver


def literals(solver):
    for var in range(1, solver.num_vars + 1):
        yield var
        yield -var


def audit_watches(solver):
    """Assert that each live clause sits in exactly the watch lists its
    size dictates, and that no list holds anything else:

    * binary: one ``_bwatches`` entry on each literal, carrying the other;
    * ternary: one ``_twatches`` entry on each literal, carrying the other
      two in arena order.  Entries are made from the arena order when the
      clause attaches, so any later permutation of a ternary clause's
      literals breaks the match;
    * longer: one ``_watches`` entry on each of arena positions 0 and 1,
      whose blocker is another literal of the clause.
    """
    arena = solver._arena
    live = solver._clauses + solver._learnts
    assert len(set(live)) == len(live)
    binary, ternary, longer = Counter(), Counter(), Counter()
    long_lits = {}
    for ref in live:
        assert not arena[ref + 1] & _DELETED_BIT
        lits = solver.clause_lits(ref)
        assert len(set(map(abs, lits))) == len(lits) >= 2
        if len(lits) == 2:
            a, b = lits
            binary.update([(a, (ref, b)), (b, (ref, a))])
        elif len(lits) == 3:
            a, b, c = lits
            ternary.update([(a, (ref, b, c)), (b, (ref, a, c)), (c, (ref, a, b))])
        else:
            longer.update([(lits[0], ref), (lits[1], ref)])
            long_lits[ref] = lits
    assert binary == Counter(
        (lit, entry) for lit in literals(solver) for entry in solver._bwatches[lit]
    )
    assert ternary == Counter(
        (lit, entry) for lit in literals(solver) for entry in solver._twatches[lit]
    )
    assert longer == Counter(
        (lit, entry[0]) for lit in literals(solver) for entry in solver._watches[lit]
    )
    for lit in literals(solver):
        for ref, blocker in solver._watches[lit]:
            assert blocker != lit and blocker in long_lits[ref]
    # Slots of the literal-indexed tables that stand for no literal.
    capacity = len(solver._values)
    for table in (solver._bwatches, solver._twatches, solver._watches):
        assert len(table) == capacity
        assert not table[0]
        assert not any(table[solver.num_vars + 1 : capacity - solver.num_vars])


def hard_3sat():
    """Random 3-SAT at the threshold, unsat after about 4,000 conflicts."""
    return random_cnf(11, width=(3, 3), num_vars=(120, 120), ratio=(4.26, 4.26))


def ternary_learnts(solver):
    return [ref for ref in solver._learnts if solver._arena[ref] == 3]


# ---------------------------------------------------------------------------
# Seeded CNF sweeps, each answer certified.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_seeded_sweep_verdicts_models_proofs(seed):
    num_vars, clauses = random_cnf(seed)
    certified_solve(num_vars, clauses)


@pytest.mark.parametrize("seed", range(25))
def test_failed_assumption_cores_match(seed):
    """A failed core is a subset of the assumptions, and the clauses are
    unsat again under the core alone."""
    num_vars, clauses = random_cnf(seed + 1000, width=(3, 3))
    assumptions = random_assumptions(seed + 2000, num_vars)
    answer, solver = certified_solve(num_vars, clauses, assumptions)
    if answer == UNSAT:
        core = solver.failed_assumptions
        again, _ = certified_solve(num_vars, clauses, core)
        assert again == UNSAT


@pytest.mark.parametrize("seed", range(40))
def test_small_instances_match_brute_force(seed):
    num_vars, clauses = random_cnf(
        seed + 3000, width=(2, 5), num_vars=(4, 14), ratio=(2.0, 8.0)
    )
    assumptions = random_assumptions(seed + 4000, num_vars, count=3)
    answer, _ = certified_solve(num_vars, clauses)
    assert answer == (SAT if brute_force(num_vars, clauses) else UNSAT)
    answer, solver = certified_solve(num_vars, clauses, assumptions)
    units = [[lit] for lit in assumptions]
    assert answer == (SAT if brute_force(num_vars, clauses + units) else UNSAT)
    if answer == UNSAT:
        core_units = [[lit] for lit in solver.failed_assumptions]
        assert not brute_force(num_vars, clauses + core_units)


#: Clause sizes of :func:`mixed_cnf`, drawn uniformly from this tuple.
MIXED_SIZES = (2, 3, 3, 3, 3, 3, 4, 4, 5, 5)


def mixed_cnf(seed):
    """Clauses of two to five literals, half of them ternary and one in
    ten binary, near the density where answers turn from sat to unsat."""
    rng = Random(seed)
    num_vars = rng.randint(60, 100)
    clauses = []
    for _ in range(int(num_vars * rng.uniform(4.5, 6.0))):
        variables = rng.sample(range(1, num_vars + 1), rng.choice(MIXED_SIZES))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return num_vars, clauses


@pytest.mark.parametrize("seed", range(30))
def test_mixed_width_sweep_is_certified(seed):
    """All three watch kinds meet in one search, and learned clauses of
    every size join them."""
    certified_solve(*mixed_cnf(seed + 5000))


def test_mixed_width_sweep_reaches_both_answers():
    answers = Counter(certified_solve(*mixed_cnf(seed + 5000))[0] for seed in range(30))
    assert answers[SAT] >= 5 and answers[UNSAT] >= 5


# ---------------------------------------------------------------------------
# The watch-list audit after every kind of change to the lists.
# ---------------------------------------------------------------------------


class AtMostTwo(TheoryHook):
    """A toy theory: at most two of ``variables`` are true.  Its lemmas
    are the three-literal clauses ``(-a -b -c)``; at each call the hook
    hands out at most one lemma of each kind the solver must handle — one
    falsified by the trail, one unit, one with two or more literals not
    false — and records which kinds arrived mid-search.  It audits the watch lists
    at every call, after the previous call's lemmas were integrated."""

    def __init__(self, variables):
        self.variables = variables
        self.sent = set()
        self.kinds = Counter()

    def on_check(self, solver, final):
        audit_watches(solver)
        return self._lemmas(solver)

    def _lemmas(self, solver):
        # A generator, so each lemma's kind is read from the trail as the
        # solver takes it, after integrating the one before.
        handed = set()
        for triple in combinations(self.variables, 3):
            if triple in self.sent:
                continue
            values = [solver.value(var) for var in triple]
            true, free = values.count(1), values.count(0)
            if true == 3:
                kind = "falsified"
            elif true == 2:
                if not free:
                    continue  # already satisfied, and nothing else to do
                kind = "unit"
            else:
                kind = "free"
            if kind in handed or (kind == "free" and not solver._trail_lim):
                continue
            handed.add(kind)
            self.sent.add(triple)
            if solver._trail_lim:
                self.kinds[kind] += 1
            yield TheoryLemma([-var for var in triple], source="at-most-two")


def solve_under_at_most_two(seed):
    """A random CNF plus positive clauses over the theory's variables, so
    the search keeps trying to make three of them true.  The answer is
    certified and matches brute force over the clauses and the theory's
    axioms; returns the lemma kinds that arrived mid-search."""
    num_vars, clauses = random_cnf(
        seed + 6000, width=(2, 4), num_vars=(12, 14), ratio=(1.0, 2.5)
    )
    rng = Random(seed)
    clauses += [rng.sample(range(1, 9), 2) for _ in range(3)]
    clauses += [rng.sample(range(1, 9), 3) for _ in range(3)]
    theory = AtMostTwo(range(1, 9))
    solver = Solver(num_vars)
    solver.proof = ProofLog()
    solver.add_clauses(clauses)
    solver.theory = theory
    answer = solver.solve()
    audit_watches(solver)
    axioms = [[-a, -b, -c] for a, b, c in combinations(theory.variables, 3)]
    certify(solver, answer, clauses + axioms)
    assert answer == (SAT if brute_force(num_vars, clauses + axioms) else UNSAT)
    return theory.kinds


@pytest.mark.parametrize("seed", range(12))
def test_audit_after_ternary_theory_lemmas(seed):
    solve_under_at_most_two(seed)


def test_ternary_lemmas_arrive_falsified_unit_and_free():
    kinds = Counter()
    for seed in range(12):
        kinds.update(solve_under_at_most_two(seed))
    assert min(kinds[kind] for kind in ("falsified", "unit", "free")) >= 5


def test_audit_after_add_clauses_batches():
    solver = Solver()
    assert solver.add_clauses([[1, 2, 2, 3], [4, -4, 5], [6, 7, 8, 8, 9], [10]])
    audit_watches(solver)
    # The duplicate collapsed (ternary), the tautology went, the unit holds.
    assert sorted(map(len, map(solver.clause_lits, solver._clauses))) == [3, 4]
    # Literals false at level 0 drop: a long clause becomes ternary, a
    # ternary one binary, and a duplicated pair a unit.
    batch = [[-10, 11, 12, 13], [-10, 14, 15], [16, 16], [-10, -10, 17, 18, 19], [2, 3, -16]]
    assert solver.add_clauses(batch)
    audit_watches(solver)
    sizes = sorted(map(len, map(solver.clause_lits, solver._clauses)))
    assert sizes == [2, 2, 3, 3, 3, 4]
    assert solver.value(16) == 1
    rng = Random(7)
    for _ in range(12):
        batch = []
        for _ in range(15):
            lits = [rng.choice((1, -1)) * rng.randint(1, 30) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.3:
                lits.append(lits[0])
            batch.append(lits)
        if not solver.add_clauses(batch):
            break
        audit_watches(solver)
    assert solver.solve() in (SAT, UNSAT)
    audit_watches(solver)


def test_audit_after_reduction_and_compaction_of_ternary_learnts():
    num_vars, clauses = hard_3sat()
    solver = Solver(num_vars)
    solver.proof = ProofLog()
    solver.add_clauses(clauses)
    deleted = moved = 0
    while (answer := solver.solve(conflict_limit=100)) == UNKNOWN:
        before = set(ternary_learnts(solver))
        solver._reduce_db()
        audit_watches(solver)
        survivors = [solver.clause_lits(ref) for ref in ternary_learnts(solver)]
        deleted += len(before - set(ternary_learnts(solver)))
        solver._collect_garbage()
        audit_watches(solver)
        assert [solver.clause_lits(ref) for ref in ternary_learnts(solver)] == survivors
        moved += len(set(ternary_learnts(solver)) - before)
    assert deleted > 0 and moved > 0
    assert solver.stats["arena_collections"] > 0
    certify(solver, answer, clauses)


def test_audit_after_an_interrupt_unwinds_the_solve():
    class Stop(Exception):
        pass

    polls = Counter()

    def interrupt():
        polls["n"] += 1
        if polls["n"] == 500:
            raise Stop
        return False

    num_vars, clauses = hard_3sat()
    solver = Solver(num_vars)
    solver.proof = ProofLog()
    solver.add_clauses(clauses)
    with pytest.raises(Stop):
        solver.solve(interrupt=interrupt)
    assert solver._trail_lim == [] and ternary_learnts(solver)
    audit_watches(solver)
    answer = solver.solve()
    audit_watches(solver)
    certify(solver, answer, clauses)


# ---------------------------------------------------------------------------
# Flat-layout unit tests.
# ---------------------------------------------------------------------------


class TestFlatLayout:
    def test_arena_growth_preserves_clauses(self):
        solver = Solver(0)
        _, clauses = random_cnf(7)
        arena_sizes = []
        for clause in clauses:
            solver.add_clause(clause)
            arena_sizes.append(len(solver._arena))
        assert arena_sizes[-1] > arena_sizes[0]
        assert arena_sizes == sorted(arena_sizes)  # arena only ever grows
        # Spot-check: the first clause's body is stored intact at one of
        # the refs watching its first literal.
        arena = solver._arena
        bodies = [
            sorted(arena[ref + 2 : ref + 2 + arena[ref]])
            for ref in solver.watcher_refs(clauses[0][0])
        ]
        assert sorted(set(clauses[0])) in bodies

    def test_literal_tables_grow_on_demand(self):
        solver = Solver(3)
        assert solver.add_clauses([[1, 2, 3], [-1, 2, -3, 4], [1, -2]])
        assert solver.add_clause([1, 500])
        assert solver.num_vars >= 500
        audit_watches(solver)  # every kind of entry survived the rebuild
        assert solver.solve() == SAT
        model = solver.model
        assert model[1] or model[500]

    def test_watch_swap_remove_long_clauses(self):
        solver = Solver(10)
        solver.add_clause([1, 2, 3, 4])
        solver.add_clause([1, 5, 6, 7])
        solver.add_clause([1, 8, 9, 10])
        r1, r2, r3 = solver.watcher_refs(1)
        solver._detach(r1)
        # Swap-remove: the last entry moved into the vacated slot.
        assert solver.watcher_refs(1) == [r3, r2]
        assert r1 not in solver.watcher_refs(2)
        solver._detach(r3)
        assert solver.watcher_refs(1) == [r2]

    def test_watch_swap_remove_ternary_clauses(self):
        solver = Solver(7)
        solver.add_clause([1, 2, 3])
        solver.add_clause([1, 4, 5])
        solver.add_clause([1, 6, 7])
        t1, t2, t3 = solver.watcher_refs(1)
        solver._detach(t1)
        assert solver.watcher_refs(1) == [t3, t2]
        assert t1 not in solver.watcher_refs(2) + solver.watcher_refs(3)
        # The other clauses keep one entry per literal, each carrying the
        # clause's other two literals in arena order.
        assert solver._twatches[4] == [(t2, 1, 5)]
        assert solver._twatches[7] == [(t3, 1, 6)]
        solver._detach(t3)
        assert solver.watcher_refs(1) == [t2]

    def test_watch_swap_remove_binary_clauses(self):
        solver = Solver(4)
        solver.add_clause([1, 2])
        solver.add_clause([1, 3])
        solver.add_clause([1, 4])
        b1, b2, b3 = solver.watcher_refs(1)
        solver._detach(b1)
        assert solver.watcher_refs(1) == [b3, b2]
        assert b1 not in solver.watcher_refs(2)

    def test_blocker_literals_skip_satisfied_clauses(self):
        rng = Random(0)
        num_vars = 60
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 4)]
            for _ in range(560)
        ]
        solver = Solver(num_vars)
        solver.add_clauses(clauses)
        solver.solve()
        assert solver.stats["blocker_skips"] > 0

    def test_ternary_entries_skip_on_a_true_literal(self):
        """``sat.blocker_skips`` counts a ternary entry skipped because
        one of its other two literals is true: here both entries visited,
        once through each of the two literals, before any clause is
        learned."""
        solver = Solver(3)
        solver.add_clause([1, 2, 3])
        solver.add_clause([2])  # true at level 0, after the clause attached
        assert solver.solve() == SAT
        # Deciding -1 visits the entry (ref, 2, 3): 2 is true.  Deciding
        # -3 visits (ref, 1, 2): 1 is false, 2 is true.
        assert solver.stats["blocker_skips"] == 2
        assert solver.stats["learned"] == solver.stats["conflicts"] == 0
