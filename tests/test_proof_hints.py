"""Hinted proofs: every RUP step names its antecedents, and the checker
verifies it by walking them alone.

The solver's proofs under test come from real searches: PHP(5) through
:class:`~repro.sat.Solver` with a :class:`~repro.proof.ProofLog` (its
analysis minimizes, and reduction deletes), and an EUF and an LRA
refutation through the engine, whose hints name ``lemma`` steps.  The
hints are complete: each level-0 literal a derivation reads is named by
a unit clause (an input or learned unit, or a unit step the solver
derives the first time a hint needs it), and the concluding steps are
hinted too, so a solver's proof checks with no counting propagation.
Every mutation of a hint must reject the mutated step, never fall back
to search; a step without hints must still be checked by search.
"""

import dataclasses
import pickle

import pytest

from repro import run_script, solve_script
from repro.proof import Proof, ProofLog, ProofStep, check_proof
from repro.proof.log import DELETE, INPUT, LEMMA, RUP
from repro.sat import UNKNOWN, UNSAT, Solver, TheoryHook, TheoryLemma

from test_sat import pigeonhole
from test_solver_equivalence import random_assumptions, random_cnf


def euf_diamond(length):
    """a0 = ... = an through two-way diamonds, yet f(a0) != f(an)."""
    lines = ["(set-logic QF_UF)", "(declare-sort U 0)", "(declare-fun f (U) U)"]
    lines += [f"(declare-const {p}{i} U)" for i in range(length) for p in "abc"]
    lines.append(f"(declare-const a{length} U)")
    for i in range(length):
        lines.append(
            f"(assert (or (and (= a{i} b{i}) (= b{i} a{i + 1})) "
            f"(and (= a{i} c{i}) (= c{i} a{i + 1}))))"
        )
    lines.append(f"(assert (not (= (f a0) (f a{length}))))")
    return "\n".join(lines) + "\n(check-sat)\n"


def lra_diamond(length):
    """Each link raises x by at least 1 through y or z, yet
    x_n - x_0 < n."""
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-const {p}{i} Real)" for i in range(length) for p in "xyz"]
    lines.append(f"(declare-const x{length} Real)")
    for i in range(length):
        lines.append(
            f"(assert (or (and (>= y{i} (+ x{i} 1.0)) (>= x{i + 1} y{i})) "
            f"(and (>= z{i} (+ x{i} 1.0)) (>= x{i + 1} z{i}))))"
        )
    lines.append(f"(assert (< (- x{length} x0) {length}.0))")
    return "\n".join(lines) + "\n(check-sat)\n"


def solver_proof(clauses):
    solver = Solver()
    solver.proof = ProofLog()
    for clause in clauses:
        solver.add_clause(clause)
    assert solver.solve() == UNSAT
    return solver, solver.proof.snapshot(())


def engine_proof(source):
    (check,) = solve_script(source, produce_proofs=True)
    assert check.answer == "unsat"
    return check


@pytest.fixture(scope="module")
def php5():
    solver, proof = solver_proof(pigeonhole(5))
    assert solver.stats["minimized"] > 0
    return proof


@pytest.fixture(scope="module")
def euf():
    check = engine_proof(euf_diamond(5))
    assert check.metrics["sat.minimized"] > 0
    return check.proof


@pytest.fixture(scope="module")
def lra():
    return engine_proof(lra_diamond(4)).proof


PROOFS = ["php5", "euf", "lra"]


def clause_kinds(proof):
    """Step kind by proof id: ids number the clause-adding steps."""
    return [step.kind for step in proof.steps if step.kind != DELETE]


def hinted_indices(proof):
    return [
        index
        for index, step in enumerate(proof.steps)
        if step.kind == RUP and step.hints is not None
    ]


def widest_hinted(proof):
    """The index of the step with the most hints (the first such)."""
    return max(hinted_indices(proof), key=lambda index: len(proof.steps[index].hints))


def with_hints(proof, index, hints):
    steps = list(proof.steps)
    steps[index] = dataclasses.replace(steps[index], hints=tuple(hints))
    return Proof(tuple(steps), proof.conclusion)


def strip_hints(proof):
    return Proof(
        tuple(dataclasses.replace(step, hints=None) for step in proof.steps),
        proof.conclusion,
    )


def deleted_ids(proof):
    """Step index of each ``delete`` → the proof id it deactivates (the
    most recent active clause with the same literal set, as the checker
    matches it)."""
    active = {}
    out = {}
    ident = 0
    for index, step in enumerate(proof.steps):
        key = tuple(sorted(set(step.lits)))
        if step.kind == DELETE:
            out[index] = active[key].pop()
        else:
            active.setdefault(key, []).append(ident)
            ident += 1
    return out


def assert_complete(proof, verdict=None):
    """Every RUP step carries hints and is verified by them alone: no
    counting propagation runs."""
    verdict = verdict or check_proof(proof)
    assert verdict.ok, verdict.error
    assert all(step.hints is not None for step in proof.steps if step.kind == RUP)
    assert verdict.stats["hinted"] == verdict.stats["rup_checked"] == proof.counts()[RUP]
    assert verdict.stats["propagations"] == 0


def clause_lits(proof):
    """Literals by proof id."""
    return [step.lits for step in proof.steps if step.kind != DELETE]


def derived_unit_indices(proof):
    """The unit steps a raw solver derives for level-0 literals: a
    ``rup`` step of one literal hinted by unit clauses and, last, a clause
    holding its literal (its reason).  A learned unit resolves at least
    one reason of two or more literals, so it never matches."""
    lits = clause_lits(proof)
    out = []
    for index, step in enumerate(proof.steps):
        if step.kind == RUP and len(step.lits) == 1 and step.hints:
            *units, reason = step.hints
            if step.lits[0] in lits[reason] and all(len(lits[unit]) == 1 for unit in units):
                out.append(index)
    return out


def assert_rejected_at(proof, index, reason):
    verdict = check_proof(proof)
    assert not verdict.ok
    assert verdict.step_index == index, verdict.error
    assert "hints" in verdict.error and reason in verdict.error, verdict.error


# ---------------------------------------------------------------------------
# The hinted walk on hand-built proofs.
# ---------------------------------------------------------------------------


class TestHintedWalk:
    #: (1 2), (-1 2), (1 -2), (-1 -2): under ¬2, clause 0 gives 1 and
    #: clause 1 is then falsified.
    BASE = [ProofStep(INPUT, clause) for clause in ((1, 2), (-1, 2), (1, -2), (-1, -2))]

    def check(self, hints, conclusion=(2,)):
        return check_proof(Proof((*self.BASE, ProofStep(RUP, (2,), hints=hints)), conclusion))

    def test_unit_then_conflict_verifies(self):
        verdict = self.check((0, 1))
        assert verdict.ok
        # The conclusion is the clause the step added, so it is not
        # re-checked: the one RUP test was the hinted one, and a hinted
        # proof needs no counting propagation.
        assert verdict.stats["rup_checked"] == verdict.stats["hinted"] == 1
        assert verdict.stats["propagations"] == 0

    def test_any_valid_order_verifies(self):
        # Under ¬2, (-1 2) is unit too: it gives ¬1, and (1 2) is falsified.
        assert self.check((1, 0)).ok

    def test_a_satisfied_hint_with_one_non_false_literal_is_a_no_op(self):
        # After (1 2) gives 1, (-1 -2) has -1 false and -2 true: nothing
        # to assume, and no error.
        verdict = self.check((0, 3, 1))
        assert verdict.ok and verdict.stats["hinted"] == 1

    def test_a_hint_that_is_not_unit_rejects(self):
        # Under ¬2 alone, (-1 -2) has -1 free and -2 true.
        verdict = self.check((3, 0, 1))
        assert not verdict.ok and verdict.step_index == 4
        assert "hint 3 is not unit" in verdict.error
        proof = Proof(
            (
                *self.BASE,
                ProofStep(INPUT, (1, 3, 4)),
                ProofStep(RUP, (2,), hints=(4, 0, 1)),
            ),
            (1, -1),
        )
        verdict = check_proof(proof)
        assert not verdict.ok and verdict.step_index == 5
        assert "hint 4 is not unit" in verdict.error

    def test_hints_without_a_conflict_reject(self):
        verdict = self.check((0,))
        assert not verdict.ok and verdict.step_index == 4
        assert "without a conflict" in verdict.error

    @pytest.mark.parametrize("bad", [-1, 4, 5, 99])
    def test_ids_outside_the_earlier_clauses_reject(self, bad):
        # 4 is the step's own id, 5 the next clause's.
        verdict = self.check((bad, 0, 1))
        assert not verdict.ok and verdict.step_index == 4
        assert f"hint {bad} names no earlier clause" in verdict.error

    def test_a_deleted_antecedent_rejects(self):
        proof = Proof(
            (
                *self.BASE,
                ProofStep(DELETE, (2, -1)),
                ProofStep(RUP, (2,), hints=(0, 1)),
            ),
            (1, -1),
        )
        verdict = check_proof(proof)
        assert not verdict.ok and verdict.step_index == 5
        assert "hint 1 names a deleted clause" in verdict.error

    def test_a_bad_hint_never_falls_back_to_search(self):
        # (2) is RUP from the inputs, so a search would accept it.
        assert check_proof(Proof((*self.BASE, ProofStep(RUP, (2,))), (2,))).ok
        assert not self.check((1,)).ok

    def test_a_hinted_step_never_reads_the_searchs_top_level_units(self):
        # The unhinted step builds the counting propagation, whose
        # top-level units hold 1 and 2; the hinted step must still name
        # the unit (1) itself.
        steps = (
            ProofStep(INPUT, (1,)),
            ProofStep(INPUT, (-1, 2)),
            ProofStep(RUP, (2,)),
            ProofStep(RUP, (2, 5), hints=(1,)),
        )
        verdict = check_proof(Proof(steps, (1, -1)))
        assert not verdict.ok and verdict.step_index == 3
        assert "without a conflict" in verdict.error
        proof = with_hints(Proof(steps, (1, -1)), 3, (0, 1))
        assert check_proof(proof).ok

    def test_the_search_replays_deletions_in_order(self):
        # (-1 2) fixed 2 at the top level while it was active; deleting it
        # before the first search must not retract that unit, exactly as
        # when the counting propagation ran from the first step.
        proof = Proof(
            (
                *(ProofStep(INPUT, clause) for clause in ((1,), (-1, 2), (-2, 3))),
                ProofStep(RUP, (1, 4), hints=(0,)),
                ProofStep(DELETE, (2, -1)),
                ProofStep(RUP, (3,)),
            ),
            (3,),
        )
        verdict = check_proof(proof)
        assert verdict.ok, verdict.error
        assert verdict.stats["rup_checked"] == 2 and verdict.stats["hinted"] == 1

    def test_a_top_level_literal_of_the_clause_verifies_at_once(self):
        proof = Proof(
            (ProofStep(INPUT, (3,)), ProofStep(RUP, (3, 4), hints=(0,))),
            (3, 4),
        )
        verdict = check_proof(proof)
        assert verdict.ok and verdict.stats["hinted"] == 1
        # The walk holds no top-level units: the unit must be named.
        verdict = check_proof(with_hints(proof, 1, ()))
        assert not verdict.ok and verdict.step_index == 1
        assert "without a conflict" in verdict.error


# ---------------------------------------------------------------------------
# The solver's hints: complete, and verified without search.
# ---------------------------------------------------------------------------


class TestSolverHints:
    def test_every_learned_clause_is_verified_by_its_hints(self):
        solver, proof = solver_proof(pigeonhole(5))
        verdict = check_proof(proof)
        assert verdict.ok, verdict.error
        assert_complete(proof, verdict)
        # Learned clauses, derived unit steps and the conclusion are all
        # among the hinted steps.
        derived = len(derived_unit_indices(proof))
        assert derived > 0
        assert verdict.stats["hinted"] == solver.stats["learned"] + derived + 1

    @pytest.mark.parametrize("name", ["euf", "lra"])
    def test_engine_hints_name_theory_lemmas(self, name, request):
        proof = request.getfixturevalue(name)
        kinds = clause_kinds(proof)
        hinted = hinted_indices(proof)
        assert hinted
        assert any(
            kinds[ident] == LEMMA for index in hinted for ident in proof.steps[index].hints
        )
        verdict = check_proof(proof)
        assert verdict.ok, verdict.error
        assert verdict.stats["hinted"] == len(hinted)

    @pytest.mark.parametrize("name", PROOFS)
    def test_stripped_hints_fall_back_to_search(self, name, request):
        proof = request.getfixturevalue(name)
        hinted = check_proof(proof)
        searched = check_proof(strip_hints(proof))
        assert hinted.ok and searched.ok, searched.error
        assert searched.stats["hinted"] == 0
        # The search reaches the top-level contradiction as it adds the
        # last learned unit, so its short-circuit passes the concluding
        # empty clause without a test; the hinted path walks that step.
        assert proof.steps[-1].kind == RUP and proof.steps[-1].lits == ()
        assert searched.stats["rup_checked"] == hinted.stats["rup_checked"] - 1
        assert searched.stats["propagations"] > hinted.stats["propagations"] == 0

    def test_ids_survive_reduction_and_arena_compaction(self):
        solver = Solver()
        solver.proof = ProofLog()
        for clause in pigeonhole(6):
            solver.add_clause(clause)
        rounds = 0
        while solver.solve(conflict_limit=150) == UNKNOWN:
            rounds += 1
            solver._reduce_db()
            solver._collect_garbage()
        assert rounds > 1
        assert solver.stats["arena_collections"] > 0
        proof = solver.proof.snapshot(())
        assert proof.counts()[DELETE] > 0
        verdict = check_proof(proof)
        assert verdict.ok, verdict.error
        assert_complete(proof, verdict)
        derived = len(derived_unit_indices(proof))
        assert verdict.stats["hinted"] == solver.stats["learned"] + derived + 1

    def test_antecedents_older_than_the_log_leave_the_clause_unhinted(self):
        solver = Solver()
        for clause in pigeonhole(4)[:-3]:
            solver.add_clause(clause)
        solver.proof = ProofLog()  # too late to cover the clauses above
        for clause in pigeonhole(4)[-3:]:
            solver.add_clause(clause)
        assert solver.solve() == UNSAT
        learned = [step for step in solver.proof.steps if step.kind == RUP][:-1]
        assert any(step.hints is None for step in learned)

    def test_reduction_and_compaction_after_detaching_the_log(self):
        solver = Solver()
        solver.proof = ProofLog()
        for clause in pigeonhole(5):
            solver.add_clause(clause)
        assert solver.solve(conflict_limit=40) == UNKNOWN
        solver.proof = None
        solver._reduce_db()
        solver._collect_garbage()
        assert solver.solve() == UNSAT


# ---------------------------------------------------------------------------
# Mutations: a wrong hint rejects its own step.
# ---------------------------------------------------------------------------


class TestHintMutations:
    @pytest.mark.parametrize("name", PROOFS)
    def test_dropping_a_hint_rejects_the_step(self, name, request):
        proof = request.getfixturevalue(name)
        for index in (widest_hinted(proof), hinted_indices(proof)[-1]):
            hints = proof.steps[index].hints
            for drop in {0, len(hints) // 2}:
                mutated = with_hints(proof, index, hints[:drop] + hints[drop + 1 :])
                assert_rejected_at(mutated, index, "")

    @pytest.mark.parametrize("name", PROOFS)
    def test_swapping_the_conflict_to_the_front_rejects_the_step(self, name, request):
        proof = request.getfixturevalue(name)
        index = widest_hinted(proof)
        hints = list(proof.steps[index].hints)
        assert len(hints) >= 3
        hints[0], hints[-1] = hints[-1], hints[0]
        assert_rejected_at(with_hints(proof, index, hints), index, "is not unit")

    @pytest.mark.parametrize("name", PROOFS)
    def test_ids_out_of_range_or_of_later_steps_reject(self, name, request):
        proof = request.getfixturevalue(name)
        index = widest_hinted(proof)
        hints = proof.steps[index].hints
        own = len(clause_kinds(Proof(proof.steps[:index], ())))
        total = len(clause_kinds(proof))
        for bad in (-1, own, own + 1, total + 10):
            mutated = with_hints(proof, index, (bad,) + hints[1:])
            assert_rejected_at(mutated, index, f"hint {bad} names no earlier clause")

    def test_a_hint_naming_a_deleted_clause_rejects(self, php5):
        deletions = deleted_ids(php5)
        first_delete = min(deletions)
        index = next(i for i in hinted_indices(php5) if i > first_delete)
        hints = php5.steps[index].hints
        gone = deletions[first_delete]
        assert_rejected_at(
            with_hints(php5, index, (gone,) + hints[1:]),
            index,
            f"hint {gone} names a deleted clause",
        )

    def test_deleting_an_antecedent_before_its_use_rejects(self, php5):
        deletions = deleted_ids(php5)
        moved = 0
        for delete_index, gone in sorted(deletions.items()):
            users = [
                i
                for i in hinted_indices(php5)
                if i < delete_index and gone in php5.steps[i].hints
            ]
            if not users:
                continue
            first_use = users[0]
            steps = list(php5.steps)
            step = steps.pop(delete_index)
            steps.insert(first_use, step)
            mutated = Proof(tuple(steps), php5.conclusion)
            assert_rejected_at(mutated, first_use + 1, f"hint {gone} names a deleted clause")
            moved += 1
            if moved == 5:
                break
        assert moved == 5

    @pytest.mark.parametrize("name", PROOFS)
    def test_the_unmutated_proof_is_accepted(self, name, request):
        proof = request.getfixturevalue(name)
        verdict = check_proof(proof)
        assert verdict.ok, verdict.error
        assert verdict.stats["hinted"] == len(hinted_indices(proof))


# ---------------------------------------------------------------------------
# Complete hints: level-0 literals named by units, conclusions hinted.
# ---------------------------------------------------------------------------


def bv_mul_miter(width):
    sort = f"(_ BitVec {width})"
    return (
        f"(set-logic QF_BV)(declare-const a {sort})(declare-const b {sort})"
        f"(declare-const c {sort})"
        "(assert (not (= (bvmul a (bvadd b c)) (bvadd (bvmul c a) (bvmul b a)))))"
        "(check-sat)"
    )


def bv_ult_cycle(length, width):
    names = [f"c{i}" for i in range(length)]
    lines = ["(set-logic QF_BV)"]
    lines += [f"(declare-const {name} (_ BitVec {width}))" for name in names]
    lines += [
        f"(assert (bvult {names[i]} {names[(i + 1) % length]}))" for i in range(length)
    ]
    return "\n".join(lines) + "\n(check-sat)\n"


#: Several ``unsat`` answers over one log: pigeonhole frames that learn,
#: an arithmetic frame, popped frames, and a base frame refuted at last.
SESSION = (
    "(set-option :produce-proofs true)\n"
    + "".join(f"(declare-const p{i}{j} Bool)" for i in range(4) for j in range(3))
    + "(declare-const x Int)(declare-const y Int)\n"
    + "(push 1)"
    + "".join(f"(assert (or p{i}0 p{i}1 p{i}2))" for i in range(4))
    + "".join(
        f"(assert (or (not p{i}{j}) (not p{k}{j})))"
        for j in range(3)
        for i in range(4)
        for k in range(i + 1, 4)
    )
    + "(check-sat)(pop 1)\n"
    + "(assert (or p00 p01))(push 1)(assert (not p00))(assert (not p01))(check-sat)(pop 1)\n"
    + "(assert (<= x y))(push 1)(assert (> x (+ y 2)))(check-sat)(pop 1)\n"
    + "(check-sat)(assert (not p00))(assert (not p01))(check-sat)(check-sat)\n"
)


class HoleTheory(TheoryHook):
    """At most one of ``pigeons`` per hole, as lemmas that also carry
    the negation of ``fact``, a variable the clauses fix true: every
    lemma drops that literal as it attaches."""

    def __init__(self, pigeons, holes, fact):
        self.pigeons, self.holes, self.fact = pigeons, holes, fact

    def on_check(self, solver, final):
        for hole in range(self.holes):
            true = [
                var
                for var in (2 + pigeon * self.holes + hole for pigeon in range(self.pigeons))
                if solver.value(var) == 1
            ]
            if len(true) >= 2:
                return [TheoryLemma([-true[0], -true[1], -self.fact], source="holes")]
        return []


class TestCompleteHints:
    @pytest.mark.parametrize("name", PROOFS)
    def test_fixtures_are_complete(self, name, request):
        assert_complete(request.getfixturevalue(name))

    @pytest.mark.parametrize(
        "source", [bv_mul_miter(2), bv_ult_cycle(5, 3)], ids=["bvmul-miter", "bvult-cycle"]
    )
    def test_bit_vector_refutations_are_complete(self, source):
        check = engine_proof(source)
        assert check.metrics["sat.learned"] > 0
        assert_complete(check.proof)

    def test_a_push_pop_session_is_complete(self):
        result = run_script(SESSION)
        assert result.answers == ["unsat"] * 3 + ["sat", "unsat", "unsat"]
        proofs = [check.proof for check in result.check_results if check.answer == "unsat"]
        for proof in proofs:
            assert_complete(proof)
        # The base refutation's empty clause concludes twice, hinted both
        # times.
        assert proofs[-1].steps[-1].lits == proofs[-2].steps[-1].lits == ()

    def test_failed_assumption_cores_are_complete(self):
        cores = 0
        for seed in range(25):
            num_vars, clauses = random_cnf(seed + 1000, width=(3, 3))
            solver = Solver(num_vars)
            solver.proof = ProofLog()
            solver.add_clauses(clauses)
            if solver.solve(assumptions=random_assumptions(seed + 2000, num_vars)) != UNSAT:
                continue
            core = solver.failed_assumptions
            cores += bool(core)
            assert_complete(solver.proof.snapshot(tuple(-lit for lit in core)))
        assert cores >= 5

    def test_no_variable_gets_two_unit_steps(self, request):
        result = run_script(SESSION)
        ends = {len(check.proof) - 1 for check in result.check_results if check.proof}
        proofs = [(proof, {len(proof) - 1}) for proof in map(request.getfixturevalue, PROOFS)]
        proofs.append((result.check_results[-1].proof, ends))
        for proof, conclusions in proofs:
            units = [
                abs(step.lits[0])
                for index, step in enumerate(proof.steps)
                if step.kind == RUP and len(step.lits) == 1 and index not in conclusions
            ]
            assert units and len(units) == len(set(units))

    def test_an_input_that_drops_a_false_literal_is_hinted(self):
        # Every clause carries -1, false once the first clause fixes 1:
        # each attaches without it, and serves as a reason and conflict.
        solver = Solver()
        solver.proof = ProofLog()
        solver.add_clause([1])
        for clause in pigeonhole(3):
            solver.add_clause([lit + 1 if lit > 0 else lit - 1 for lit in clause] + [-1])
        assert solver.solve() == UNSAT
        proof = solver.proof.snapshot(())
        assert_complete(proof)
        hinted = [step for step in proof.steps if step.kind == RUP]
        assert all(0 in step.hints for step in hinted)

    def test_a_theory_lemma_that_drops_a_false_literal_is_hinted(self):
        solver = Solver()
        solver.proof = ProofLog()
        solver.add_clause([1])
        for pigeon in range(4):
            solver.add_clause([2 + pigeon * 3 + hole for hole in range(3)])
        solver.theory = HoleTheory(4, 3, 1)
        assert solver.solve() == UNSAT
        proof = solver.proof.snapshot(())
        assert proof.counts()[LEMMA] > 0 and solver.stats["learned"] > 0
        assert_complete(proof)
        kinds = clause_kinds(proof)
        lemma_users = [
            step
            for step in proof.steps
            if step.kind == RUP and any(kinds[ident] == LEMMA for ident in step.hints)
        ]
        assert lemma_users and all(0 in step.hints for step in lemma_users)


class TestUnitHintMutations:
    def test_dropping_a_unit_hint_rejects_its_step(self, php5):
        lits = clause_lits(php5)
        derived = derived_unit_indices(php5)

        def unit_position(index):
            hints = php5.steps[index].hints
            return next((i for i, ident in enumerate(hints) if len(lits[ident]) == 1), None)

        learned = next(
            index
            for index, step in enumerate(php5.steps)
            if step.kind == RUP and len(step.lits) > 1 and unit_position(index) is not None
        )
        unit = next(index for index in derived if len(php5.steps[index].hints) > 1)
        conclusion = len(php5.steps) - 1
        assert php5.steps[conclusion].lits == ()
        for index in (learned, unit, conclusion):
            hints = php5.steps[index].hints
            position = unit_position(index)
            assert position is not None
            mutated = with_hints(php5, index, hints[:position] + hints[position + 1 :])
            assert_rejected_at(mutated, index, "")

    def test_a_hint_naming_a_later_derived_unit_rejects(self, php5):
        unit = derived_unit_indices(php5)[-1]
        ident = len(clause_kinds(Proof(php5.steps[:unit], ())))
        index = hinted_indices(php5)[0]
        hints = php5.steps[index].hints
        assert_rejected_at(
            with_hints(php5, index, (ident,) + hints[1:]),
            index,
            f"hint {ident} names no earlier clause",
        )


def test_log_steps_equal_constructed_steps():
    log = ProofLog()
    log.log_input([1, 2], source="assert")
    log.log_lemma((-1,), source="euf")
    log.log_rup([2], hints=[0, 1])
    log.log_delete((1, 2))
    expected = [
        ProofStep(INPUT, (1, 2), "assert"),
        ProofStep(LEMMA, (-1,), "euf"),
        ProofStep(RUP, (2,), None, (0, 1)),
        ProofStep(DELETE, (1, 2)),
    ]
    assert log.steps == expected
    for step, built in zip(log.steps, expected):
        assert hash(step) == hash(built)
        assert pickle.loads(pickle.dumps(step)) == step
        replaced = dataclasses.replace(step, hints=[7])
        assert replaced.hints == (7,) and replaced.lits == step.lits
    # The constructor still normalizes what it is given.
    step = ProofStep(INPUT, [True, -2], hints=[1])
    assert step.lits == (1, -2) and type(step.lits[0]) is int and step.hints == (1,)
