"""Tests for the Tseitin encoder and DIMACS I/O."""

import itertools
import random
import sys

import pytest

from repro import run_script
from repro.sat import SAT, Solver, UNSAT, from_dimacs, to_dimacs
from repro.smtlib import (
    BOOL,
    INT,
    Apply,
    FALSE,
    Symbol,
    TRUE,
    TseitinEncoder,
    bool_const,
    evaluate,
    int_const,
    is_connective,
    tseitin,
)

A, B, C, D = (Symbol(name, BOOL) for name in "abcd")
X = Symbol("x", INT)


def random_bool_term(rng, depth, atoms):
    """A random boolean skeleton over ``atoms`` using every connective."""
    if depth == 0 or rng.random() < 0.2:
        choice = rng.random()
        if choice < 0.1:
            return bool_const(rng.random() < 0.5)
        return rng.choice(atoms)
    op = rng.choice(["not", "and", "or", "xor", "=>", "=", "distinct", "ite"])
    sub = lambda: random_bool_term(rng, depth - 1, atoms)
    if op == "not":
        return Apply("not", (sub(),), BOOL)
    if op == "ite":
        return Apply("ite", (sub(), sub(), sub()), BOOL)
    if op in ("=", "distinct"):
        return Apply(op, (sub(), sub()), BOOL)
    width = rng.randint(2, 3)
    return Apply(op, tuple(sub() for _ in range(width)), BOOL)


def brute_force_satisfiable(term, atoms):
    for values in itertools.product([False, True], repeat=len(atoms)):
        env = {s.name: bool_const(v) for s, v in zip(atoms, values)}
        if evaluate(term, env) is TRUE:
            return True
    return False


def solve_formula(formula):
    solver = Solver(formula.num_vars)
    for clause in formula.clauses:
        solver.add_clause(clause)
    return solver, solver.solve()


class TestConnectiveClassification:
    def test_boolean_connectives(self):
        assert is_connective(Apply("and", (A, B), BOOL))
        assert is_connective(Apply("not", (A,), BOOL))
        assert is_connective(Apply("=", (A, B), BOOL))
        assert is_connective(Apply("ite", (A, B, C), BOOL))

    def test_theory_equality_is_an_atom(self):
        assert not is_connective(Apply("=", (X, int_const(0)), BOOL))
        assert not is_connective(Apply("<", (X, int_const(0)), BOOL))

    def test_non_boolean_ite_is_not_a_connective(self):
        assert not is_connective(Apply("ite", (A, X, int_const(0)), INT))

    def test_symbols_and_constants_are_atoms(self):
        assert not is_connective(A)
        assert not is_connective(TRUE)


def atoms_of(term):
    """The theory atoms one :meth:`TseitinEncoder.clausify` walk reports."""
    return TseitinEncoder().clausify(term)[1]


class TestSkeletonAtoms:
    def test_collects_distinct_atoms_in_order(self):
        lt = Apply("<", (X, int_const(0)), BOOL)
        term = Apply("and", (A, Apply("or", (lt, A, B), BOOL), lt), BOOL)
        assert atoms_of(term) == [A, lt, B]

    def test_does_not_descend_into_atoms(self):
        eq = Apply("=", (X, X), BOOL)
        assert atoms_of(Apply("not", (eq,), BOOL)) == [eq]

    def test_boolean_constants_are_not_atoms(self):
        # Mirrors TseitinEncoder.atom_vars, which never assigns them a var.
        term = Apply("and", (A, TRUE, Apply("or", (FALSE, B), BOOL)), BOOL)
        assert atoms_of(term) == [A, B]
        assert set(tseitin(term).atom_vars) == {A, B}

    def test_atoms_below_memo_hits_are_reported_per_walk(self):
        # The second walk finds the `or` gate in the run-long memo, yet its
        # atoms are still this assertion's atoms.
        encoder = TseitinEncoder()
        inner = Apply("or", (A, Apply("and", (B, C), BOOL)), BOOL)
        encoder.encode(inner)
        vars_before = encoder.formula.num_vars
        _, atoms = encoder.clausify(Apply("xor", (inner, D), BOOL))
        assert atoms == [A, B, C, D]
        assert encoder.formula.num_vars == vars_before + 2  # d and the xor gate

    def test_lowering_hook_sees_each_atom_once_per_walk(self):
        encoder = TseitinEncoder()
        lowered = Apply("<", (X, int_const(0)), BOOL)
        inner = Apply("=", (X, int_const(2)), BOOL)
        calls = []

        def lower(atom):
            calls.append(atom)
            if atom is not lowered:
                return None
            encoder.bind(atom, -encoder.new_var())
            return (inner,)

        term = Apply("and", (A, Apply("or", (lowered, A), BOOL), lowered), BOOL)
        clauses, atoms = encoder.clausify(term, lower)
        assert calls == [A, lowered]
        # A lowered atom reports what its hook answered, in its place.
        assert atoms == [A, inner]
        assert lowered not in encoder.formula.atom_vars
        assert clauses == [(1,), (-2, 1), (-2,)]


class TestEquisatisfiability:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_skeletons_agree_with_brute_force(self, seed):
        rng = random.Random(seed)
        atoms = [A, B, C, D]
        term = random_bool_term(rng, 4, atoms)
        formula = tseitin(term)
        solver, answer = solve_formula(formula)
        expected = brute_force_satisfiable(term, atoms)
        assert answer == (SAT if expected else UNSAT), term
        if answer == SAT:
            # The CNF model, restricted to the atoms, satisfies the term.
            env = {}
            for atom, var in formula.atom_vars.items():
                env[atom.name] = bool_const(solver.model[var])
            for atom in atoms:
                env.setdefault(atom.name, bool_const(False))
            assert evaluate(term, env) is TRUE

    def test_true_is_satisfiable(self):
        _, answer = solve_formula(tseitin(TRUE))
        assert answer == SAT

    def test_false_is_unsatisfiable(self):
        _, answer = solve_formula(tseitin(FALSE))
        assert answer == UNSAT

    def test_conjoined_assertions(self):
        encoder = TseitinEncoder()
        encoder.assert_term(Apply("or", (A, B), BOOL))
        encoder.assert_term(Apply("not", (A,), BOOL))
        encoder.assert_term(Apply("not", (B,), BOOL))
        _, answer = solve_formula(encoder.formula)
        assert answer == UNSAT


class TestSharing:
    def test_shared_subterm_gets_one_aux_variable(self):
        shared = Apply("and", (A, B), BOOL)
        inner = Apply("or", (shared, Apply("not", (shared,), BOOL)), BOOL)
        # As a subterm's literal the `or` gets a gate too.
        encoder = TseitinEncoder()
        encoder.encode(inner)
        # Atoms a, b plus exactly two gates: the shared `and`, the `or`.
        assert encoder.formula.num_atoms == 2
        assert encoder.formula.num_aux == 2

    def test_not_introduces_no_variable(self):
        formula = tseitin(Apply("not", (A,), BOOL))
        assert formula.num_vars == 1
        assert formula.clauses == [(-1,)]

    def test_deep_shared_dag_encodes_linearly(self):
        term = Apply("and", (A, B), BOOL)
        for _ in range(100):
            term = Apply("and", (term, term), BOOL)
        formula = tseitin(term)
        assert formula.num_vars <= 2 + 101  # atoms + one aux per level

    def test_encoding_is_linear_in_connectives(self):
        wide = Apply("or", tuple(Symbol(f"v{i}", BOOL) for i in range(50)), BOOL)
        # As a subterm's literal the wide `or` gets a full gate.
        encoder = TseitinEncoder()
        encoder.encode(wide)
        assert encoder.formula.num_vars == 51
        assert len(encoder.formula.clauses) == 50 + 1  # binary clauses + long clause

    def test_subterm_under_both_polarities_gets_one_gate(self):
        # `(and p q)` occurs positively in one assertion and negated in
        # another; it is one node, so one gate of three clauses.
        result = run_script(
            "(declare-const p Bool)(declare-const q Bool)"
            "(declare-const r Bool)(declare-const s Bool)"
            "(assert (or (and p q) r))"
            "(assert (or (not (and p q)) s))"
            "(check-sat)"
        )
        [check] = result.check_results
        assert check.answer == "sat"
        assert check.metrics["engine.tseitin_new_clauses"] == 3
        assert check.metrics["engine.tseitin_new_vars"] == 5


class TestBind:
    def test_bound_literal_is_the_encoding(self):
        encoder = TseitinEncoder()
        var = encoder.new_var()
        encoder.bind(A, -var)
        assert encoder.encode(A) == -var
        assert encoder.clausify(Apply("or", (A, B), BOOL)) == ([(-var, 2)], [A, B])
        assert encoder.formula.clauses == []

    def test_binding_an_encoded_term_ties_the_literals(self):
        encoder = TseitinEncoder()
        old = encoder.encode(A)
        new = encoder.new_var()
        encoder.bind(A, new)
        assert encoder.encode(A) == old
        assert encoder.formula.clauses == [(-old, new), (old, -new)]


class TestRootClauses:
    def test_root_or_is_one_clause(self):
        wide = Apply("or", tuple(Symbol(f"v{i}", BOOL) for i in range(50)), BOOL)
        formula = tseitin(wide)
        assert formula.num_vars == 50
        assert formula.num_aux == 0
        assert formula.clauses == [tuple(range(1, 51))]

    def test_root_or_over_shared_subterm(self):
        shared = Apply("and", (A, B), BOOL)
        formula = tseitin(Apply("or", (shared, Apply("not", (shared,), BOOL)), BOOL))
        # Only the `and` below the root gets a gate; the root `or` is the
        # clause (s ∨ ¬s) over its literal.
        assert formula.num_aux == 1
        assert formula.clauses[-1] == (3, -3)

    def test_root_and_splits_into_distinct_conjuncts(self):
        term = Apply(
            "and",
            (A, Apply("or", (B, C), BOOL), A, Apply("and", (B, A), BOOL)),
            BOOL,
        )
        formula = tseitin(term)
        assert formula.num_aux == 0
        assert formula.clauses == [(1,), (2, 3), (2,)]

    def test_root_boolean_equality_is_two_clauses(self):
        formula = tseitin(Apply("=", (A, B), BOOL))
        assert formula.num_aux == 0
        assert formula.clauses == [(-1, 2), (1, -2)]

    def test_other_roots_are_units(self):
        eq = Apply("=", (X, int_const(0)), BOOL)
        xor = Apply("xor", (A, B), BOOL)
        formula = tseitin(Apply("and", (eq, xor), BOOL))
        assert formula.atom_vars[eq] == 1
        assert formula.num_aux == 1
        assert formula.clauses[-2:] == [(1,), (4,)]

    def test_deep_shared_and_flattens_to_its_leaves(self):
        term = Apply("and", (A, B), BOOL)
        for _ in range(100):
            term = Apply("and", (term, term), BOOL)
        # Bound to a name first: a failing assert must not render the
        # term, whose tree form is exponential in the DAG depth.
        clauses = tseitin(term).clauses
        assert clauses == [(1,), (2,)]

    def test_root_clauses_leave_gates_to_the_formula(self):
        encoder = TseitinEncoder()
        inner = Apply("and", (A, B), BOOL)
        roots, _ = encoder.clausify(Apply("or", (inner, C), BOOL))
        assert roots == [(3, 4)]
        # The returned clauses are the caller's to guard; only the gate
        # of the nested `and` went to the formula.
        assert encoder.formula.clauses == [(-3, 1), (-3, 2), (3, -1, -2)]

    # The root walk tracks polarity, so the shapes a negation normal form
    # would clausify cost no auxiliary variable either.

    def _roots(self, term):
        formula = tseitin(term)
        assert formula.num_aux == 0
        return formula.clauses

    def test_negated_or_is_units(self):
        assert self._roots(Apply("not", (Apply("or", (A, B), BOOL),), BOOL)) == [(-1,), (-2,)]

    def test_negated_and_is_one_clause(self):
        assert self._roots(Apply("not", (Apply("and", (A, B), BOOL),), BOOL)) == [(-1, -2)]

    def test_implication_is_one_clause(self):
        assert self._roots(Apply("=>", (A, B), BOOL)) == [(-1, 2)]

    def test_negated_implication_is_units(self):
        assert self._roots(Apply("not", (Apply("=>", (A, B), BOOL),), BOOL)) == [(1,), (-2,)]

    def test_negated_distinct_is_two_clauses(self):
        term = Apply("not", (Apply("distinct", (A, B), BOOL),), BOOL)
        assert self._roots(term) == [(-1, 2), (1, -2)]

    def test_chained_boolean_equality_is_two_clauses_per_pair(self):
        term = Apply("=", (A, B, C), BOOL)
        assert self._roots(term) == [(-1, 2), (1, -2), (-2, 3), (2, -3)]

    def test_negated_chained_equality_is_one_clause_over_the_pairs(self):
        formula = tseitin(Apply("not", (Apply("=", (A, B, C), BOOL),), BOOL))
        # One gate per adjacent pair, as the pairs' xors cost under NNF.
        assert formula.num_aux == 2
        assert formula.clauses[-1] == (-3, -5)
        assert len(formula.clauses) == 4 + 4 + 1


class TestEncoderErrors:
    def test_rejects_non_boolean_terms(self):
        with pytest.raises(ValueError):
            TseitinEncoder().encode(X)
        with pytest.raises(ValueError):
            TseitinEncoder().clausify(X)


class TestDeepSkeletons:
    def test_deep_alternating_skeleton_encodes_without_recursion(self):
        # 100,000 levels of and/or/not: neither the root walk nor the pass
        # below it may recurse per level.
        depth = 100_000
        ops = ("and", "or", "not")
        term = A
        for level in range(depth):
            op = ops[level % 3]
            if op == "not":
                term = Apply("not", (term,), BOOL)
            else:
                term = Apply(op, (term, B if level % 2 else C), BOOL)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            encoder = TseitinEncoder()
            clauses, atoms = encoder.clausify(term)
        finally:
            sys.setrecursionlimit(limit)
        assert atoms == [A, C, B]
        # The root walk clausifies the top four levels (`and`, `not`, a
        # negated `or` that splits, a negated `and` that is one clause);
        # below them every `and`/`or` is one gate and `not` costs nothing.
        assert len(clauses) == 3
        gates = sum(1 for level in range(depth - 4) if ops[level % 3] != "not")
        assert encoder.formula.num_aux == gates


class TestDimacs:
    def test_round_trip(self):
        clauses = [(1, -2, 3), (-1,), (2, 3)]
        text = to_dimacs(3, clauses, comments=("a comment",))
        assert text.startswith("c a comment\np cnf 3 3\n")
        assert from_dimacs(text) == (3, clauses)

    def test_round_trip_of_encoded_formula(self):
        formula = tseitin(Apply("=>", (A, Apply("xor", (B, C), BOOL)), BOOL))
        text = to_dimacs(formula.num_vars, formula.clauses)
        num_vars, clauses = from_dimacs(text)
        assert num_vars == formula.num_vars
        assert clauses == [tuple(c) for c in formula.clauses]
        # And the round-tripped formula still solves identically.
        solver = Solver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() == SAT

    def test_accepts_multiline_clauses_and_comments(self):
        text = "c hi\np cnf 3 2\n1 2\n3 0 -1\n-2 0\n"
        assert from_dimacs(text) == (3, [(1, 2, 3), (-1, -2)])

    def test_accepts_satlib_percent_terminator(self):
        text = "p cnf 2 1\n1 -2 0\n%\n0\n"
        assert from_dimacs(text) == (2, [(1, -2)])

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            from_dimacs("1 2 0\n")

    def test_rejects_duplicate_header(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_dimacs("p cnf 1 0\np cnf 1 0\n")

    def test_rejects_unterminated_clause(self):
        with pytest.raises(ValueError, match="unterminated"):
            from_dimacs("p cnf 2 1\n1 2\n")

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError, match="exceeds"):
            from_dimacs("p cnf 2 1\n1 3 0\n")

    def test_rejects_clause_count_mismatch(self):
        with pytest.raises(ValueError, match="declares"):
            from_dimacs("p cnf 2 2\n1 0\n")

    def test_export_rejects_bad_literals(self):
        with pytest.raises(ValueError):
            to_dimacs(2, [(0,)])
        with pytest.raises(ValueError):
            to_dimacs(2, [(3,)])
