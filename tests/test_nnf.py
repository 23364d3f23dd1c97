"""Polarity: the encoder agrees with negation normal form.

No pass rewrites a skeleton to negation normal form before it is
encoded: the encoder's root walk tracks polarity, and below the root
``not`` is a sign flip on one gate.  Each identity a negation normal form
rests on is checked here as an equivalence of encodings: a term and its
negation normal form have the same truth table, asserted at the root and
as the unit of a subterm's literal.
"""

import itertools
import random

import pytest

from repro import solve_script
from repro.sat import SAT, Solver
from repro.smtlib import (
    BOOL,
    INT,
    Apply,
    FALSE,
    Let,
    Quantifier,
    Symbol,
    TRUE,
    TseitinEncoder,
    bool_const,
    evaluate,
    int_const,
    negate,
)
from test_cnf import random_bool_term

A, B, C, D = (Symbol(name, BOOL) for name in "abcd")
X = Symbol("x", INT)


def _not(t):
    return Apply("not", (t,), BOOL)


def _and(*ts):
    return Apply("and", ts, BOOL)


def _or(*ts):
    return Apply("or", ts, BOOL)


def _xor(*ts):
    return Apply("xor", ts, BOOL)


def _implies(*ts):
    return Apply("=>", ts, BOOL)


def _iff(*ts):
    return Apply("=", ts, BOOL)


def _ite(c, t, e):
    return Apply("ite", (c, t, e), BOOL)


def _assignments(atoms):
    return itertools.product([False, True], repeat=len(atoms))


def evaluated_table(term, atoms):
    """Whether ``term`` holds, for each assignment to ``atoms``."""
    table = []
    for values in _assignments(atoms):
        env = {atom.name: bool_const(value) for atom, value in zip(atoms, values)}
        table.append(evaluate(term, env) is TRUE)
    return table


def encoded_table(term, atoms, at_root=True):
    """Whether the encoding of ``term`` is satisfiable, for each assignment
    to ``atoms`` assumed on their variables: at the root, or as the unit
    clause of the literal :meth:`TseitinEncoder.encode` gives it."""
    encoder = TseitinEncoder()
    if at_root:
        encoder.assert_term(term)
    else:
        encoder.formula.clauses.append((encoder.encode(term),))
    formula = encoder.formula
    solver = Solver(formula.num_vars)
    solver.add_clauses(formula.clauses)
    table = []
    for values in _assignments(atoms):
        assumptions = []
        for atom, value in zip(atoms, values):
            var = formula.atom_vars.get(atom)
            if var is not None:
                assumptions.append(var if value else -var)
        table.append(solver.solve(assumptions=assumptions) == SAT)
    return table


def assert_encodes_like(term, nnf):
    """``term`` and its negation normal form ``nnf`` agree, and so does the
    encoding of ``term``, at the root and below it."""
    atoms = [A, B, C]
    expected = evaluated_table(nnf, atoms)
    assert evaluated_table(term, atoms) == expected
    assert encoded_table(term, atoms) == expected
    assert encoded_table(term, atoms, at_root=False) == expected


class TestShape:
    def test_pushes_not_through_and(self):
        assert_encodes_like(_not(_and(A, B)), _or(_not(A), _not(B)))

    def test_pushes_not_through_or(self):
        assert_encodes_like(_not(_or(A, B, C)), _and(_not(A), _not(B), _not(C)))

    def test_double_negation_cancels(self):
        assert_encodes_like(_not(_not(A)), A)
        encoder = TseitinEncoder()
        assert encoder.encode(_not(_not(A))) == encoder.encode(A)
        assert encoder.formula.num_aux == 0

    def test_implies_expands_to_or(self):
        assert_encodes_like(_implies(A, B), _or(_not(A), B))

    def test_negated_implies_is_conjunction(self):
        assert_encodes_like(_not(_implies(A, B, C)), _and(A, B, _not(C)))

    def test_negated_xor_flips_last_argument(self):
        assert_encodes_like(_not(_xor(A, B)), _xor(A, _not(B)))

    def test_negated_iff_is_xor(self):
        assert_encodes_like(_not(_iff(A, B)), _xor(A, B))

    def test_chained_iff_expands(self):
        assert_encodes_like(_iff(A, B, C), _and(_iff(A, B), _iff(B, C)))

    def test_negated_chained_iff(self):
        assert_encodes_like(_not(_iff(A, B, C)), _or(_xor(A, B), _xor(B, C)))

    def test_bool_distinct_is_xor(self):
        assert_encodes_like(Apply("distinct", (A, B), BOOL), _xor(A, B))

    def test_wide_bool_distinct_is_false(self):
        assert_encodes_like(Apply("distinct", (A, B, C), BOOL), FALSE)
        assert_encodes_like(_not(Apply("distinct", (A, B, C), BOOL)), TRUE)

    def test_negated_ite_negates_branches(self):
        assert_encodes_like(_not(_ite(A, B, C)), _ite(A, _not(B), _not(C)))

    def test_constants_flip(self):
        assert_encodes_like(_not(TRUE), FALSE)
        assert_encodes_like(_not(FALSE), TRUE)

    def test_theory_atoms_are_opaque(self):
        atom = Apply("<", (X, int_const(0)), BOOL)
        assert TseitinEncoder().clausify(atom) == ([(1,)], [atom])
        assert TseitinEncoder().clausify(_not(atom)) == ([(-1,)], [atom])
        # The negation is not pushed inside the atom's arguments.
        assert TseitinEncoder().clausify(_not(_and(atom, A))) == ([(-1, -2)], [atom, A])

    def test_quantifiers_dualise(self):
        # A quantifier is an atom: its dual under negation is the sign flip
        # of the binder term's literal, and the walk never enters the body.
        body = _and(A, B)
        for kind in ("forall", "exists"):
            quantifier = Quantifier(kind, (("a", BOOL),), body)
            encoder = TseitinEncoder()
            assert encoder.clausify(_not(quantifier)) == ([(-1,)], [quantifier])
            assert encoder.encode(_not(quantifier)) == -encoder.encode(quantifier)
            assert A not in encoder.formula.atom_vars
            assert encoder.formula.num_aux == 0

    def test_let_pushes_into_body_only(self):
        # Preparation expands a let before encoding, so a negation over it
        # lands on the body; the binding value is substituted, not negated.
        value = _and(A, B)
        source = (
            "(declare-const a Bool) (declare-const b Bool)"
            " (assert (not (let ((s (and a b))) s))) (check-sat)"
        )
        [prepared] = solve_script(source)[0].assertions
        assert prepared == _not(value)
        assert TseitinEncoder().clausify(prepared) == ([(-1, -2)], [A, B])
        # A let handed to the encoder itself is an atom: the negation stays
        # on its literal and the walk never enters the bindings or body.
        let = Let((("s", value),), Symbol("s", BOOL))
        encoder = TseitinEncoder()
        assert encoder.clausify(_not(let)) == ([(-1,)], [let])
        assert A not in encoder.formula.atom_vars

    def test_rejects_non_boolean_terms(self):
        with pytest.raises(ValueError):
            TseitinEncoder().clausify(X)
        with pytest.raises(ValueError):
            TseitinEncoder().encode(X)


class TestSemantics:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_terms_preserve_truth_tables(self, seed):
        # The truth table of the encoding over the atoms, asserted and
        # negated; equal tables also make the encodings equisatisfiable.
        rng = random.Random(seed)
        atoms = [A, B, C, D]
        term = random_bool_term(rng, 4, atoms)
        for asserted in (term, _not(term)):
            expected = evaluated_table(asserted, atoms)
            assert encoded_table(asserted, atoms) == expected, asserted
            assert encoded_table(asserted, atoms, at_root=False) == expected, asserted

    @pytest.mark.parametrize("seed", range(20))
    def test_idempotent(self, seed):
        # Encoding a term again is a memo hit: the same root clauses and
        # atoms, and no new variable or gate clause.
        rng = random.Random(1000 + seed)
        term = random_bool_term(rng, 4, [A, B, C])
        encoder = TseitinEncoder()
        first = encoder.clausify(term)
        num_vars, num_clauses = encoder.formula.num_vars, len(encoder.formula.clauses)
        assert encoder.clausify(term) == first
        assert encoder.formula.num_vars == num_vars
        assert len(encoder.formula.clauses) == num_clauses


class TestSharing:
    def test_shared_doubling_dag_stays_linear(self):
        # Without a per-walk visited set this is exponential.
        term = _and(A, B)
        for _ in range(200):
            term = _and(term, term)
        encoder = TseitinEncoder()
        clauses, atoms = encoder.clausify(_not(term))
        assert atoms == [A, B]
        assert encoder.formula.num_vars == 2 + 200  # one gate per level below the root
        assert len(clauses) == 1

    def test_shared_node_gets_one_gate_under_both_polarities(self):
        shared = _and(A, B)
        term = _or(_not(shared), _and(shared, C))
        encoder = TseitinEncoder()
        encoder.encode(term)
        # The shared `and`, the `and` with c and the `or`: the negated
        # occurrence is the shared gate's literal with its sign flipped.
        assert encoder.formula.num_aux == 3
        assert encoder.literals[_not(shared)] == -encoder.literals[shared]


class TestNegateHelper:
    def test_negate_flips_constants(self):
        assert negate(TRUE) is FALSE
        assert negate(FALSE) is TRUE

    def test_negate_unwraps_not(self):
        assert negate(_not(A)) is A
        assert negate(A) == _not(A)
