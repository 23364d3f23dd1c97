"""Hinted proofs: each learned clause names its antecedents, and the
checker verifies it by walking them.

The solver's proofs under test come from real searches: PHP(5) through
:class:`~repro.sat.Solver` with a :class:`~repro.proof.ProofLog` (its
analysis minimizes, and reduction deletes), and an EUF and an LRA
refutation through the engine, whose hints name ``lemma`` steps.  Every
mutation of a hint must reject the mutated step, never fall back to
search; a step without hints must still be checked by search.
"""

import dataclasses

import pytest

from repro import solve_script
from repro.proof import Proof, ProofLog, ProofStep, check_proof
from repro.proof.log import DELETE, INPUT, LEMMA, RUP
from repro.sat import UNKNOWN, UNSAT, Solver

from test_sat import pigeonhole


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
        # Adding (2) propagates to a contradiction, so the conclusion is
        # not re-checked: the one RUP test was the hinted one.
        assert verdict.stats["rup_checked"] == verdict.stats["hinted"] == 1
        assert verdict.stats["propagations"] == 2

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

    def test_a_top_level_literal_of_the_clause_verifies_at_once(self):
        proof = Proof(
            (ProofStep(INPUT, (3,)), ProofStep(RUP, (3, 4), hints=())),
            (3, 4),
        )
        verdict = check_proof(proof)
        assert verdict.ok and verdict.stats["hinted"] == 1


# ---------------------------------------------------------------------------
# The solver's hints: complete, and verified without search.
# ---------------------------------------------------------------------------


class TestSolverHints:
    def test_every_learned_clause_is_verified_by_its_hints(self):
        solver, proof = solver_proof(pigeonhole(5))
        verdict = check_proof(proof)
        assert verdict.ok, verdict.error
        assert verdict.stats["hinted"] == solver.stats["learned"] > 0
        # Only the concluding step is left to search.
        assert len(hinted_indices(proof)) == proof.counts()[RUP] - 1

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
        assert searched.stats["rup_checked"] == hinted.stats["rup_checked"]
        assert searched.stats["propagations"] > hinted.stats["propagations"]

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
        assert verdict.stats["hinted"] == solver.stats["learned"]

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
