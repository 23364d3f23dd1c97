"""Tests for incremental solving: the SAT layer's assumptions/hook API and
the engine's persistent-solver ``check-sat``.

Covers the PR-4 acceptance criteria directly:

* assumption-based solving with failed-assumption cores (cores are
  subsets of the assumptions and are themselves unsatisfiable),
* clause addition between ``solve`` calls with watched-literal
  reattachment,
* theory-hook lemma injection at partial and full assignments,
* learned-clause retention across consecutive ``check-sat`` calls,
* zero Tseitin re-encoding of unchanged assertions (via stats),
* push/pop soundness cross-checked against a fresh solver per query on
  randomized scripts.
"""

import random

import pytest

from repro import Engine, solve_script
from repro.sat import SAT, UNSAT, Solver, TheoryHook
from repro.smtlib import BOOL, Apply, Assert, CheckSat, Pop, Push, Script, Symbol
from test_engine import assert_model_satisfies, brute_force_answer
from test_nnf import random_bool_term


# ---------------------------------------------------------------------------
# SAT layer: assumptions and failed cores.
# ---------------------------------------------------------------------------


class TestAssumptions:
    def test_assumptions_restrict_but_do_not_commit(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) == SAT
        assert solver.model[2] is True
        assert solver.solve(assumptions=[-2]) == SAT
        assert solver.model[1] is True
        assert solver.solve(assumptions=[-1, -2]) == UNSAT
        # Assumption failure is not permanent.
        assert solver.solve() == SAT

    def test_failed_assumptions_are_a_core(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve(assumptions=[-3, 1, 5]) == UNSAT
        core = solver.failed_assumptions
        assert core is not None
        assert set(core) <= {-3, 1, 5}
        assert 5 not in core  # irrelevant assumption must not be blamed
        # The core alone is unsatisfiable with the clauses.
        replay = Solver()
        replay.add_clause([-1, 2])
        replay.add_clause([-2, 3])
        assert replay.solve(assumptions=list(core)) == UNSAT

    def test_contradictory_assumptions(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[3, -3]) == UNSAT
        assert set(solver.failed_assumptions) == {3, -3}

    def test_globally_unsat_reports_empty_core(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve(assumptions=[2]) == UNSAT
        assert solver.failed_assumptions == ()

    def test_failed_assumptions_cleared_on_sat(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]) == UNSAT
        assert solver.failed_assumptions is not None
        assert solver.solve(assumptions=[1]) == SAT
        assert solver.failed_assumptions is None

    @pytest.mark.parametrize("seed", range(30))
    def test_random_cores_replay_unsat(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 8)
        clauses = []
        for _ in range(rng.randint(6, 20)):
            size = rng.randint(1, 3)
            variables = rng.sample(range(1, num_vars + 1), size)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        assumptions = []
        for var in rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars)):
            assumptions.append(var if rng.random() < 0.5 else -var)

        solver = Solver()
        solver.add_clauses(clauses)
        answer = solver.solve(assumptions=assumptions)
        if answer == SAT:
            model = solver.model
            for lit in assumptions:
                assert model[abs(lit)] == (lit > 0)
            return
        core = solver.failed_assumptions
        assert core is not None and set(core) <= set(assumptions)
        replay = Solver()
        replay.add_clauses(clauses)
        assert replay.solve(assumptions=list(core)) == UNSAT

    def test_clause_addition_between_solves(self):
        solver = Solver()
        solver.add_clause([1, 2, 3])
        assert solver.solve() == SAT
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() == SAT
        assert solver.model[3] is True
        solver.add_clause([-3])
        assert solver.solve() == UNSAT


# ---------------------------------------------------------------------------
# SAT layer: theory hook.
# ---------------------------------------------------------------------------


class _BlockEqual(TheoryHook):
    """Vetoes any full assignment where variables 1 and 2 agree —
    i.e. enforces ``1 xor 2`` purely through final-check lemmas."""

    def __init__(self):
        self.finals = 0

    def on_check(self, solver, final):
        if not final:
            return ()
        self.finals += 1
        if solver.value(1) == solver.value(2):
            lit1 = 1 if solver.value(1) == 1 else -1
            lit2 = 2 if solver.value(2) == 1 else -2
            return ([-lit1, -lit2],)
        return ()


class _BlockEverything(TheoryHook):
    def on_check(self, solver, final):
        if not final:
            return ()
        clause = []
        for var in range(1, solver.num_vars + 1):
            clause.append(-var if solver.value(var) == 1 else var)
        return (clause,)


class _ForbidTrue(TheoryHook):
    """Eagerly vetoes variable 1 being true (a unit theory lemma)."""

    def on_check(self, solver, final):
        if solver.value(1) == 1:
            return ([-1],)
        return ()


class TestTheoryHook:
    def test_final_check_lemmas_steer_the_model(self):
        solver = Solver(2)
        solver.add_clause([1, 2])
        hook = _BlockEqual()
        solver.theory = hook
        assert solver.solve() == SAT
        assert solver.model[1] != solver.model[2]
        assert hook.finals >= 1
        assert solver.stats["theory_lemmas"] >= 0

    def test_blocking_every_assignment_is_unsat(self):
        solver = Solver(3)
        solver.theory = _BlockEverything()
        assert solver.solve() == UNSAT
        assert solver.stats["theory_lemmas"] >= 1

    def test_eager_unit_lemma(self):
        solver = Solver(2)
        solver.add_clause([1, 2])
        solver.theory = _ForbidTrue()
        solver.theory_eager = True
        assert solver.solve() == SAT
        assert solver.model[1] is False
        assert solver.model[2] is True

    def test_theory_lemmas_survive_between_solves(self):
        solver = Solver(3)
        solver.theory = _BlockEverything()
        assert solver.solve() == UNSAT
        # The 2^3 blocking lemmas are problem clauses now; without the
        # hook the formula stays unsat.
        solver.theory = None
        assert solver.solve() == UNSAT


# ---------------------------------------------------------------------------
# Engine: persistent solver across check-sat.
# ---------------------------------------------------------------------------


def pigeonhole_script_commands(holes):
    """PHP(holes+1, holes) as boolean assertions (hard, unsat)."""
    pigeons = holes + 1
    var = lambda i, j: Symbol(f"x{i}_{j}", BOOL)
    commands = []
    for i in range(pigeons):
        commands.append(Assert(Apply("or", tuple(var(i, j) for j in range(holes)), BOOL)))
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                commands.append(
                    Assert(
                        Apply(
                            "or",
                            (
                                Apply("not", (var(a, j),), BOOL),
                                Apply("not", (var(b, j),), BOOL),
                            ),
                            BOOL,
                        )
                    )
                )
    return commands


class TestIncrementalEngine:
    def test_second_check_reencodes_nothing(self):
        engine = Engine()
        p, q = Symbol("p", BOOL), Symbol("q", BOOL)
        script = Script(
            (
                Assert(Apply("or", (p, q), BOOL)),
                Assert(Apply("=>", (p, q), BOOL)),
                CheckSat(),
                CheckSat(),
            )
        )
        first, second = engine.run(script).check_results
        assert first.answer == second.answer == "sat"
        assert first.metrics["engine.encoded_assertions"] == 2
        assert first.metrics["engine.tseitin_new_vars"] > 0
        assert second.metrics["engine.encoded_assertions"] == 0
        assert second.metrics["engine.tseitin_new_vars"] == 0
        assert second.metrics["engine.tseitin_new_clauses"] == 0

    def test_push_pop_keeps_base_encoding(self):
        p, q = Symbol("p", BOOL), Symbol("q", BOOL)
        script = Script(
            (
                Assert(Apply("or", (p, q), BOOL)),
                CheckSat(),
                Push(1),
                Assert(Apply("not", (p,), BOOL)),
                CheckSat(),
                Pop(1),
                CheckSat(),
            )
        )
        results = Engine().run(script).check_results
        assert [r.answer for r in results] == ["sat", "sat", "sat"]
        # The push frame encoded exactly its one new assertion...
        assert results[1].metrics["engine.encoded_assertions"] == 1
        # ... and the final check re-encoded nothing at all.
        assert results[2].metrics["engine.encoded_assertions"] == 0
        assert results[2].metrics["engine.tseitin_new_vars"] == 0

    def test_learned_clauses_survive_pop(self):
        commands = [Push(1)]
        commands.extend(pigeonhole_script_commands(3))
        commands.append(CheckSat())
        commands.append(Pop(1))
        commands.append(Assert(Symbol("p", BOOL)))
        commands.append(CheckSat())
        results = Engine().run(Script(tuple(commands))).check_results
        assert [r.answer for r in results] == ["unsat", "sat"]
        assert results[0].metrics["sat.conflicts"] > 0
        # The clauses learned refuting the pigeonhole block are retained
        # in the shared database after the pop.
        learned_db = [r.metrics["engine.learned_db"] for r in results]
        assert learned_db[1] >= learned_db[0] > 0

    def test_repeated_checks_get_cheaper(self):
        commands = pigeonhole_script_commands(4)
        commands.append(CheckSat())
        commands.append(CheckSat())
        results = Engine().run(Script(tuple(commands))).check_results
        assert [r.answer for r in results] == ["unsat", "unsat"]
        # The second check replays the learned refutation: strictly fewer
        # conflicts than the first full search.
        assert results[1].metrics["sat.conflicts"] < results[0].metrics["sat.conflicts"]

    def test_trivial_false_short_circuits_without_solver(self):
        from repro.smtlib import FALSE

        engine = Engine()
        results = engine.run(Script((Assert(FALSE), CheckSat()))).check_results
        assert results[0].answer == "unsat"
        assert results[0].metrics["engine.trivial"] == 1

    def test_status_annotation_is_consumed_per_check(self):
        results = solve_script(
            """
            (set-info :status sat)
            (declare-const p Bool)
            (assert p)
            (check-sat)
            (push 1)
            (assert (not p))
            (check-sat)
            (pop 1)
            (set-info :status sat)
            (check-sat)
            """
        )
        assert [r.expected for r in results] == ["sat", None, "sat"]
        assert not any(r.contradicts_expected for r in results)

    def test_contradicts_expected_flag(self):
        results = solve_script(
            """
            (set-info :status unsat)
            (declare-const p Bool)
            (assert p)
            (check-sat)
            """
        )
        assert results[0].answer == "sat"
        assert results[0].contradicts_expected

    def test_dimacs_export_roundtrips(self):
        from repro.sat import from_dimacs

        engine = Engine()
        engine.run(
            Script(
                (
                    Assert(Apply("or", (Symbol("p", BOOL), Symbol("q", BOOL)), BOOL)),
                    CheckSat(),
                )
            )
        )
        num_vars, clauses = from_dimacs(engine.dimacs())
        assert num_vars >= 2
        replay = Solver(num_vars)
        replay.add_clauses(clauses)
        # The exported CNF must preserve satisfiability of the final state.
        assert replay.solve() == SAT


# ---------------------------------------------------------------------------
# Randomized push/pop soundness: persistent engine vs fresh solver.
# ---------------------------------------------------------------------------


def random_incremental_script(rng, atoms):
    """A random command sequence with pushes, pops, asserts and checks;
    returns (script, flattened) where ``flattened`` holds, per check-sat,
    the equivalent from-scratch script of the assertions active there."""
    commands = []
    stack = [[]]
    flattened = []
    for _ in range(rng.randint(6, 18)):
        roll = rng.random()
        if roll < 0.45:
            term = random_bool_term(rng, rng.randint(1, 3), atoms)
            stack[-1].append(term)
            commands.append(Assert(term))
        elif roll < 0.60 and len(stack) > 1:
            levels = rng.randint(1, len(stack) - 1)
            del stack[-levels:]
            commands.append(Pop(levels))
        elif roll < 0.75:
            stack.append([])
            commands.append(Push(1))
        else:
            commands.append(CheckSat())
            active = tuple(term for frame in stack for term in frame)
            flattened.append(
                Script(tuple(Assert(term) for term in active) + (CheckSat(),))
            )
    commands.append(CheckSat())
    active = tuple(term for frame in stack for term in frame)
    flattened.append(Script(tuple(Assert(term) for term in active) + (CheckSat(),)))
    return Script(tuple(commands)), flattened


class TestRandomizedPushPopSoundness:
    @pytest.mark.parametrize("seed", range(40))
    def test_persistent_engine_matches_fresh_solver(self, seed):
        rng = random.Random(seed)
        atoms = [Symbol(f"p{i}", BOOL) for i in range(rng.randint(2, 5))]
        script, flattened = random_incremental_script(rng, atoms)
        incremental = Engine().run(script).check_results
        assert len(incremental) == len(flattened)
        for check, reference_script in zip(incremental, flattened):
            reference = solve_script(reference_script)[0]
            assert check.answer == reference.answer
            if check.answer == "sat":
                assert_model_satisfies(check)
            expected = brute_force_answer(check)
            if expected is not None:
                assert check.answer == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_euf_push_pop_matches_fresh_solver(self, seed):
        from repro.smtlib import uninterpreted_sort

        rng = random.Random(7_000 + seed)
        U = uninterpreted_sort("U")
        symbols = [Symbol(f"u{i}", U) for i in range(3)]

        def random_euf_atom():
            def chain(term, length):
                for _ in range(length):
                    term = Apply("f", (term,), U)
                return term

            lhs = chain(rng.choice(symbols), rng.randint(0, 2))
            rhs = chain(rng.choice(symbols), rng.randint(0, 2))
            atom = Apply("=", (lhs, rhs), BOOL)
            return Apply("not", (atom,), BOOL) if rng.random() < 0.4 else atom

        from repro.smtlib import DeclareFun

        commands = []
        stack = [[]]
        flattened = []
        declaration = DeclareFun("f", (U,), U)
        commands.append(declaration)
        for _ in range(rng.randint(6, 14)):
            roll = rng.random()
            if roll < 0.5:
                term = random_euf_atom()
                stack[-1].append(term)
                commands.append(Assert(term))
            elif roll < 0.62 and len(stack) > 1:
                del stack[-1:]
                commands.append(Pop(1))
            elif roll < 0.75:
                stack.append([])
                commands.append(Push(1))
            else:
                commands.append(CheckSat())
                active = tuple(t for frame in stack for t in frame)
                flattened.append(
                    Script(
                        (declaration,)
                        + tuple(Assert(t) for t in active)
                        + (CheckSat(),)
                    )
                )
        commands.append(CheckSat())
        active = tuple(t for frame in stack for t in frame)
        flattened.append(
            Script((declaration,) + tuple(Assert(t) for t in active) + (CheckSat(),))
        )
        incremental = Engine().run(Script(tuple(commands))).check_results
        for check, reference_script in zip(incremental, flattened):
            reference = solve_script(reference_script)[0]
            assert check.answer == reference.answer
            assert check.answer in ("sat", "unsat")
            if check.answer == "sat":
                assert_model_satisfies(check)
