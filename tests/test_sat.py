"""Tests for the CDCL solver: correctness against brute force, the classic
unsatisfiable families, and the solver's operational behaviour."""

import itertools
import random
from collections import Counter

import pytest

from repro.proof import ProofLog
from repro.proof.log import INPUT
from repro.sat import (
    SAT,
    Solver,
    SolverConfig,
    UNKNOWN,
    UNSAT,
    from_dimacs,
    luby,
    to_dimacs,
)


def brute_force(num_vars, clauses):
    for assignment in itertools.product([False, True], repeat=num_vars):
        if all(any((lit > 0) == assignment[abs(lit) - 1] for lit in c) for c in clauses):
            return True
    return False


def check_model(solver, clauses):
    model = solver.model
    assert model is not None
    for clause in clauses:
        assert any((lit > 0) == model[abs(lit)] for lit in clause), clause


def random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, min(width, num_vars))
        variables = rng.sample(range(1, num_vars + 1), size)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses


def pigeonhole(holes):
    """PHP(holes+1, holes): holes+1 pigeons into `holes` holes — unsat."""
    pigeons = holes + 1

    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return clauses


class TestLuby:
    def test_sequence_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            luby(0)


class TestBasics:
    def test_empty_formula_is_sat(self):
        solver = Solver()
        assert solver.solve() == SAT
        assert solver.model == [False]

    def test_unit_propagation_chain(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve() == SAT
        assert solver.model[1] and solver.model[2] and solver.model[3]
        assert solver.stats["decisions"] == 0

    def test_empty_clause_is_unsat(self):
        solver = Solver()
        assert solver.add_clause([]) is False
        assert solver.solve() == UNSAT

    def test_conflicting_units(self):
        solver = Solver()
        solver.add_clause([1])
        assert solver.add_clause([-1]) is False
        assert solver.solve() == UNSAT

    def test_tautologies_are_dropped(self):
        solver = Solver()
        assert solver.add_clause([1, -1])
        assert solver.num_clauses == 0
        assert solver.solve() == SAT

    def test_duplicate_literals_collapse(self):
        solver = Solver()
        solver.add_clause([1, 1, 2, 2])
        assert solver.solve() == SAT

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            Solver().add_clause([0])

    def test_clauses_rejected_mid_search(self):
        solver = Solver()
        solver._trail_lim.append(0)  # simulate an open decision level
        with pytest.raises(ValueError):
            solver.add_clause([1])

    def test_ensure_vars_grows_pool(self):
        solver = Solver(num_vars=3)
        assert solver.num_vars == 3
        solver.add_clause([5])
        assert solver.num_vars == 5


class TestCrossCheck:
    @pytest.mark.parametrize("seed", range(150))
    def test_random_formulas_agree_with_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 9)
        clauses = random_cnf(rng, num_vars, rng.randint(1, 35))
        solver = Solver(num_vars)
        solver.add_clauses(clauses)
        answer = solver.solve()
        assert answer == (SAT if brute_force(num_vars, clauses) else UNSAT)
        if answer == SAT:
            check_model(solver, clauses)

    @pytest.mark.parametrize("n", [20, 40])
    def test_phase_transition_3sat_models_validate(self, n):
        rng = random.Random(n)
        clauses = [c for c in random_cnf(rng, n, round(4.26 * n)) if len(c) == 3]
        solver = Solver(n)
        solver.add_clauses(clauses)
        if solver.solve() == SAT:
            check_model(solver, clauses)


class TestHardFamilies:
    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_is_unsat(self, holes):
        solver = Solver()
        solver.add_clauses(pigeonhole(holes))
        assert solver.solve() == UNSAT
        if holes >= 4:
            assert solver.stats["conflicts"] > 0
            assert solver.stats["learned"] > 0

    def test_restarts_fire_on_hard_instances(self):
        solver = Solver()
        solver.add_clauses(pigeonhole(6))
        assert solver.solve() == UNSAT
        assert solver.stats["restarts"] >= 1

    def test_xor_parity_contradiction(self):
        # x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 has odd cycle parity: unsat.
        def xor_eq(a, b, parity):
            if parity:
                return [[a, b], [-a, -b]]
            return [[-a, b], [a, -b]]

        solver = Solver()
        for a, b in [(1, 2), (2, 3), (1, 3)]:
            solver.add_clauses(xor_eq(a, b, True))
        assert solver.solve() == UNSAT


class TestOperational:
    def test_conflict_limit_yields_unknown(self):
        solver = Solver()
        solver.add_clauses(pigeonhole(6))
        assert solver.solve(conflict_limit=5) == UNKNOWN
        # The search can be resumed and completed.
        assert solver.solve() == UNSAT

    def test_repeated_solve_is_stable(self):
        solver = Solver()
        solver.add_clauses([[1, 2], [-1, 2]])
        assert solver.solve() == SAT
        first = list(solver.model)
        assert solver.solve() == SAT
        assert solver.model == first

    def test_add_clause_after_sat_refines_answer(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve() == SAT
        model = solver.model
        # Block the found model; the other polarity must be found.
        solver.add_clause([v if not model[v] else -v for v in (1, 2)])
        assert solver.solve() == SAT
        assert solver.model != model

    def test_unsat_is_sticky(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() == UNSAT
        assert solver.add_clause([2]) is False
        assert solver.solve() == UNSAT

    def test_learned_clause_reduction_triggers(self):
        # A formula hard enough to learn more than the initial budget.
        solver = Solver()
        solver.add_clauses(pigeonhole(7))
        assert solver.solve() == UNSAT
        assert solver.stats["deleted"] > 0

    def test_model_is_none_before_solving_and_after_unsat(self):
        solver = Solver()
        assert solver.model is None
        solver.add_clause([1])
        solver.add_clause([-1])
        solver.solve()
        assert solver.model is None


def mixed_cnf(rng, num_vars, num_clauses):
    """Random clauses of 1 to 6 literals, duplicates and tautologies
    included, so level-0 simplification has work to do."""
    clauses = []
    for _ in range(num_clauses):
        size = rng.choice([1, 2, 2, 3, 3, 3, 4, 6])
        clauses.append(
            [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(size)]
        )
    return clauses


def clause_multiset(solver):
    return Counter(tuple(sorted(clause)) for clause in solver.export_cnf()[1])


class TestBatchIngestion:
    @pytest.mark.parametrize("seed", range(60))
    def test_batch_matches_one_at_a_time(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 30)
        clauses = mixed_cnf(rng, num_vars, rng.randint(5, 4 * num_vars))
        batched, single = Solver(), Solver()
        batched_ok = batched.add_clauses(clauses)
        single_ok = True
        for clause in clauses:
            single_ok = single.add_clause(clause) and single_ok
        assert batched_ok == single_ok
        if batched_ok:
            assert set(batched.trail) == set(single.trail)
            assert clause_multiset(batched) == clause_multiset(single)
        assert batched.solve() == single.solve()

    def test_early_unit_simplifies_later_clauses(self):
        solver = Solver()
        assert solver.add_clauses([[1], [-1, 2, 3], [-1, 4], [1, 5, 6]])
        # (-1 2 3) lost its false literal; (-1 4) became the unit 4;
        # (1 5 6) was satisfied.
        assert set(solver.trail) == {1, 4}
        assert solver.num_clauses == 1
        (ref,) = solver.watcher_refs(2)
        assert solver.clause_lits(ref) == (2, 3)

    def test_conflict_inside_batch(self):
        solver = Solver()
        # The units are queued; the conflict surfaces when the batch
        # propagates 1 → 2 → 3 against (-3 -1).
        assert solver.add_clauses([[-1, 2], [-2, 3], [-3, -1], [1]]) is False
        assert solver.solve() == UNSAT
        assert solver.add_clause([4]) is False
        direct = Solver()
        assert direct.add_clauses([[1], [2], [-1, -2]]) is False
        assert direct.solve() == UNSAT

    @pytest.mark.parametrize(
        "clause", [[0], [1, 0], [0, 1, 2], [1, 2, 3, 0], [2, 2, 0, -3, 4, 5]]
    )
    def test_zero_literal_rejected_in_batch(self, clause):
        with pytest.raises(ValueError):
            Solver().add_clauses([[1, 2], clause])

    def test_proof_logs_every_input_in_order(self):
        batch = [[1, 2], [1, -1], [3], [3, 4], [2, 2, -5], [-3, 6, 7, 8], []]
        solver = Solver()
        solver.proof = ProofLog()
        assert solver.add_clauses(batch) is False
        steps = solver.proof.steps
        assert all(step.kind == INPUT for step in steps)
        assert [list(step.lits) for step in steps] == batch

    @pytest.mark.parametrize(
        "config",
        [SolverConfig(phase_init="true"), SolverConfig(phase_init="random", seed=7)],
        ids=["true", "random"],
    )
    def test_bulk_growth_matches_per_variable_growth(self, config):
        bulk, stepwise = Solver(config=config), Solver(config=config)
        bulk.ensure_vars(100_000)
        for _ in range(100_000):
            stepwise.new_var()
        assert bulk.num_vars == stepwise.num_vars == 100_000
        assert bulk._phase == stepwise._phase
        assert bulk._order == stepwise._order
        if config.phase_init == "random":
            assert 0 < sum(bulk._phase) < 100_001


class TestDimacsIntegration:
    def test_pigeonhole_round_trips_through_dimacs(self):
        clauses = pigeonhole(4)
        num_vars = max(abs(lit) for c in clauses for lit in c)
        num_vars2, parsed = from_dimacs(to_dimacs(num_vars, clauses))
        solver = Solver(num_vars2)
        solver.add_clauses(parsed)
        assert solver.solve() == UNSAT
