"""Tests for the theory layer: the EUF congruence closure plugin.

Three layers of assurance:

* **Unit tests** drive :class:`EufTheory` directly: union/find/congruence
  propagation, disequalities, distinguished constants, predicates,
  explanation quality and push/pop rollback.
* **Explanation reproducibility** — every conflict's explanation, asserted
  alone into a *fresh* theory instance, must reproduce a conflict (the
  explanation really is an inconsistent subset, not just a trace).
* **Engine cross-checks** — QF_UF scripts through the full DPLL(T) stack,
  compared against two independent brute-force oracles: finite-model
  enumeration (complete for EUF by the small-model property) and
  atom-polarity enumeration with per-assignment consistency checks.
"""

import itertools
import random

import pytest

from repro import Engine, solve_script
from repro.smtlib import (
    BOOL,
    INT,
    TRUE,
    Apply,
    Assert,
    CheckSat,
    Script,
    Symbol,
    bitvec_sort,
    evaluate,
    int_const,
    uninterpreted_sort,
)
from repro.theory import EufTheory, SortValueAllocator, TheoryConflict

U = uninterpreted_sort("U")


def sym(name: str, sort=U) -> Symbol:
    return Symbol(name, sort)


def eq(a, b) -> Apply:
    return Apply("=", (a, b), BOOL)


def f(t) -> Apply:
    return Apply("f", (t,), U)


def g(a, b) -> Apply:
    return Apply("g", (a, b), U)


def p(t) -> Apply:
    return Apply("p", (t,), BOOL)


def fresh_theory() -> EufTheory:
    return EufTheory()


def assert_literals(theory: EufTheory, literals) -> TheoryConflict | None:
    conflict = None
    for atom, positive in literals:
        theory.push()
        conflict = theory.assert_literal(atom, positive)
        if conflict is not None:
            break
    return conflict


# ---------------------------------------------------------------------------
# Union / congruence basics.
# ---------------------------------------------------------------------------


class TestCongruenceClosure:
    def test_transitivity(self):
        t = fresh_theory()
        x, y, z = sym("x"), sym("y"), sym("z")
        assert assert_literals(t, [(eq(x, y), True), (eq(y, z), True)]) is None
        assert t.same_class(x, z)

    def test_congruence_propagates_through_functions(self):
        t = fresh_theory()
        x, y = sym("x"), sym("y")
        assert assert_literals(t, [(eq(x, y), True)]) is None
        t.push()
        assert t.assert_literal(eq(f(x), f(x)), True) is None  # registers f x
        t.push()
        assert t.assert_literal(eq(f(y), f(y)), True) is None  # registers f y
        assert t.same_class(f(x), f(y))

    def test_congruence_is_order_independent(self):
        # Register the applications first, merge the arguments afterwards.
        t = fresh_theory()
        x, y = sym("x"), sym("y")
        conflict = assert_literals(
            t, [(eq(f(x), f(y)), False), (eq(x, y), True)]
        )
        assert conflict is not None

    def test_nested_congruence(self):
        t = fresh_theory()
        x, y = sym("x"), sym("y")
        conflict = assert_literals(
            t,
            [
                (eq(x, y), True),
                (eq(f(f(x)), f(f(y))), False),
            ],
        )
        assert conflict is not None

    def test_binary_function_congruence(self):
        t = fresh_theory()
        a, b, c, d = sym("a"), sym("b"), sym("c"), sym("d")
        conflict = assert_literals(
            t,
            [
                (eq(a, c), True),
                (eq(b, d), True),
                (eq(g(a, b), g(c, d)), False),
            ],
        )
        assert conflict is not None

    def test_orbit_collapse(self):
        # f^3(x) = x and f^5(x) = x force f(x) = x.
        t = fresh_theory()
        x = sym("x")
        f3 = f(f(f(x)))
        f5 = f(f(f3))
        assert assert_literals(t, [(eq(f3, x), True), (eq(f5, x), True)]) is None
        assert t.same_class(f(x), x)

    def test_disequality_without_conflict(self):
        t = fresh_theory()
        x, y = sym("x"), sym("y")
        assert assert_literals(t, [(eq(x, y), False)]) is None
        assert not t.same_class(x, y)
        assert t.check() is None

    def test_distinguished_constants_conflict(self):
        t = fresh_theory()
        x = sym("x", INT)
        conflict = assert_literals(
            t, [(eq(x, int_const(1)), True), (eq(x, int_const(2)), True)]
        )
        assert conflict is not None

    def test_predicate_congruence(self):
        t = fresh_theory()
        x, y = sym("x"), sym("y")
        conflict = assert_literals(
            t, [(eq(x, y), True), (p(x), True), (p(y), False)]
        )
        assert conflict is not None

    def test_predicate_both_polarities_conflict(self):
        t = fresh_theory()
        x = sym("x")
        conflict = assert_literals(t, [(p(x), True), (p(x), False)])
        assert conflict is not None


# ---------------------------------------------------------------------------
# Explanations.
# ---------------------------------------------------------------------------


class TestExplanations:
    def reproduce(self, conflict: TheoryConflict) -> None:
        """The explanation must be inconsistent on its own."""
        replay = fresh_theory()
        assert assert_literals(replay, conflict.literals) is not None

    def test_explanation_is_subset_of_asserted(self):
        t = fresh_theory()
        x, y, z, w = sym("x"), sym("y"), sym("z"), sym("w")
        asserted = [
            (eq(x, y), True),
            (eq(w, w), True),  # irrelevant
            (eq(y, z), True),
            (eq(x, z), False),
        ]
        conflict = assert_literals(t, asserted)
        assert conflict is not None
        assert set(conflict.literals) <= set(asserted)
        # The irrelevant literal must not be blamed.
        assert (eq(w, w), True) not in conflict.literals
        self.reproduce(conflict)

    def test_congruence_explanations_recurse(self):
        t = fresh_theory()
        x, y = sym("x"), sym("y")
        asserted = [
            (eq(x, y), True),
            (eq(f(f(x)), f(f(y))), False),
        ]
        conflict = assert_literals(t, asserted)
        assert conflict is not None
        assert set(conflict.literals) == set(asserted)
        self.reproduce(conflict)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_conflicts_reproduce_from_explanations(self, seed):
        rng = random.Random(seed)
        symbols = [sym(f"s{i}") for i in range(4)]
        t = fresh_theory()
        asserted = []
        conflict = None
        for _ in range(30):
            kind = rng.random()
            if kind < 0.5:
                atom = eq(rng.choice(symbols), rng.choice(symbols))
            elif kind < 0.8:
                atom = eq(f(rng.choice(symbols)), rng.choice(symbols))
            else:
                atom = p(rng.choice(symbols))
            literal = (atom, rng.random() < 0.7)
            t.push()
            asserted.append(literal)
            conflict = t.assert_literal(*literal)
            if conflict is not None:
                break
        if conflict is None:
            assert t.check() is None
            return
        assert set(conflict.literals) <= set(asserted)
        self.reproduce(conflict)


# ---------------------------------------------------------------------------
# Push / pop rollback.
# ---------------------------------------------------------------------------


class TestPushPop:
    def test_pop_undoes_merges(self):
        t = fresh_theory()
        x, y, z = sym("x"), sym("y"), sym("z")
        t.push()
        t.assert_literal(eq(x, y), True)
        t.push()
        t.assert_literal(eq(y, z), True)
        assert t.same_class(x, z)
        t.pop()
        assert t.same_class(x, y)
        assert not t.same_class(x, z)
        t.pop()
        assert not t.same_class(x, y)

    def test_pop_clears_conflict(self):
        t = fresh_theory()
        x, y = sym("x"), sym("y")
        t.push()
        t.assert_literal(eq(x, y), False)
        t.push()
        assert t.assert_literal(eq(x, y), True) is not None
        assert t.check() is not None
        t.pop()
        assert t.check() is None
        # The surviving disequality still works after the rollback.
        t.push()
        assert t.assert_literal(eq(y, x), True) is not None

    def test_pop_undoes_congruence_merges(self):
        t = fresh_theory()
        x, y = sym("x"), sym("y")
        t.push()
        t.assert_literal(eq(f(x), f(x)), True)
        t.push()
        t.assert_literal(eq(f(y), f(y)), True)
        t.push()
        t.assert_literal(eq(x, y), True)
        assert t.same_class(f(x), f(y))
        t.pop()
        assert not t.same_class(f(x), f(y))
        # Re-asserting re-derives the congruence.
        t.push()
        t.assert_literal(eq(x, y), True)
        assert t.same_class(f(x), f(y))

    @pytest.mark.parametrize("seed", range(15))
    def test_random_pop_equivalence(self, seed):
        """Assert random literals with checkpoints, pop a random suffix,
        and compare class structure against a fresh replay of the kept
        prefix."""
        rng = random.Random(1000 + seed)
        symbols = [sym(f"r{i}") for i in range(4)]
        literals = []
        for _ in range(12):
            lhs = rng.choice(symbols)
            rhs = f(rng.choice(symbols)) if rng.random() < 0.4 else rng.choice(symbols)
            literals.append((eq(lhs, rhs), rng.random() < 0.8))
        t = fresh_theory()
        applied = 0
        for literal in literals:
            t.push()
            applied += 1
            if t.assert_literal(*literal) is not None:
                break
        keep = rng.randint(0, applied)
        t.pop(applied - keep)
        replay = fresh_theory()
        for literal in literals[:keep]:
            replay.push()
            if replay.assert_literal(*literal) is not None:
                break
        probes = symbols + [f(s) for s in symbols]
        for a, b in itertools.combinations(probes, 2):
            assert t.same_class(a, b) == replay.same_class(a, b), (a, b)
        assert (t.check() is None) == (replay.check() is None)


# ---------------------------------------------------------------------------
# Models and the sort-value allocator.
# ---------------------------------------------------------------------------


class TestModels:
    def test_model_separates_classes(self):
        t = fresh_theory()
        x, y, z = sym("x"), sym("y"), sym("z")
        assert_literals(t, [(eq(x, y), True), (eq(x, z), False)])
        model = t.model(SortValueAllocator())
        assert model is not None
        assert model.values["x"] is model.values["y"]
        assert model.values["x"] is not model.values["z"]

    def test_model_interprets_functions_congruently(self):
        t = fresh_theory()
        x, y = sym("x"), sym("y")
        assert_literals(
            t, [(eq(x, y), True), (eq(f(x), f(x)), True), (eq(f(y), f(y)), True)]
        )
        model = t.model(SortValueAllocator())
        assert model is not None
        interp = model.functions["f"]
        value = model.values["x"]
        assert interp((value,)) is interp((model.values["y"],))

    def test_model_uses_distinguished_constants(self):
        t = fresh_theory()
        a = sym("a", INT)
        assert_literals(t, [(eq(a, int_const(7)), True)])
        model = t.model(SortValueAllocator())
        assert model is not None
        assert model.values["a"].value == 7

    def test_no_model_in_conflict(self):
        t = fresh_theory()
        x = sym("x")
        assert assert_literals(t, [(eq(x, x), False)]) is not None
        assert t.model(SortValueAllocator()) is None


class TestSortValueAllocator:
    def test_int_values_avoid_reserved(self):
        allocator = SortValueAllocator()
        allocator.reserve(int_const(0))
        allocator.reserve(int_const(1))
        assert allocator.fresh(INT).value == 2
        assert allocator.fresh(INT).value == 3

    def test_uninterpreted_values_are_distinct_abstract_constants(self):
        allocator = SortValueAllocator()
        first, second = allocator.fresh(U), allocator.fresh(U)
        assert first is not second
        assert first.qualifier.startswith("@")
        from repro.smtlib import evaluate

        assert evaluate(eq(first, second)).value is False

    def test_bitvec_exhaustion_returns_none(self):
        allocator = SortValueAllocator()
        bv1 = bitvec_sort(1)
        assert allocator.fresh(bv1) is not None
        assert allocator.fresh(bv1) is not None
        assert allocator.fresh(bv1) is None

    def test_bool_is_not_allocated(self):
        assert SortValueAllocator().fresh(BOOL) is None


# ---------------------------------------------------------------------------
# Engine-level QF_UF: brute-force cross-checks.
# ---------------------------------------------------------------------------


def finite_model_answer(assertions, num_symbols, depth):
    """Complete brute force for one-symbol/one-function/one-predicate
    instances: enumerate every interpretation over universes up to the
    small-model bound (the number of distinct subterms)."""
    terms = set()
    for term in assertions:
        terms.update(node for node in term.walk() if node.sort == U)
    bound = max(1, len(terms))
    for size in range(1, bound + 1):
        universe = range(size)
        for fun_table in itertools.product(universe, repeat=size):
            for pred_table in itertools.product((False, True), repeat=size):
                for values in itertools.product(universe, repeat=num_symbols):
                    env = {f"s{i}": values[i] for i in range(num_symbols)}

                    def ev(term):
                        if isinstance(term, Symbol):
                            return env[term.name]
                        assert isinstance(term, Apply)
                        if term.op == "f":
                            return fun_table[ev(term.args[0])]
                        if term.op == "p":
                            return pred_table[ev(term.args[0])]
                        if term.op == "=":
                            return ev(term.args[0]) == ev(term.args[1])
                        if term.op == "not":
                            return not ev(term.args[0])
                        if term.op == "and":
                            return all(ev(a) for a in term.args)
                        if term.op == "or":
                            return any(ev(a) for a in term.args)
                        raise AssertionError(term.op)

                    if all(ev(a) for a in assertions):
                        return "sat"
    return "unsat"


def random_euf_assertions(rng, num_symbols=1, depth=3, count=4):
    symbols = [sym(f"s{i}") for i in range(num_symbols)]

    def chain(term, length):
        for _ in range(length):
            term = f(term)
        return term

    assertions = []
    for _ in range(count):
        lhs = chain(rng.choice(symbols), rng.randint(0, depth))
        rhs = chain(rng.choice(symbols), rng.randint(0, depth))
        atom = p(lhs) if rng.random() < 0.25 else eq(lhs, rhs)
        if rng.random() < 0.35:
            atom = Apply("not", (atom,), BOOL)
        assertions.append(atom)
    return assertions


def script_for(assertions, num_symbols):
    lines = ["(set-logic QF_UF)", "(declare-sort U 0)"]
    for index in range(num_symbols):
        lines.append(f"(declare-const s{index} U)")
    lines.append("(declare-fun f (U) U)")
    lines.append("(declare-fun p (U) Bool)")
    for term in assertions:
        lines.append(f"(assert {term})")
    lines.append("(check-sat)")
    return "\n".join(lines)


class TestEngineEuf:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_chains_match_finite_model_enumeration(self, seed):
        rng = random.Random(seed)
        assertions = random_euf_assertions(rng)
        source = script_for(assertions, 1)
        result = solve_script(source)[0]
        expected = finite_model_answer(assertions, 1, 3)
        assert result.answer == expected, source
        if result.answer == "sat":
            from test_engine import assert_model_satisfies

            assert_model_satisfies(result, source)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_two_symbol_instances_match_polarity_enumeration(self, seed):
        """Broader instances: enumerate atom polarities, keep those the
        boolean structure admits, and check EUF-consistency of each with
        an independent fresh closure."""
        rng = random.Random(10_000 + seed)
        assertions = random_euf_assertions(rng, num_symbols=2, depth=2, count=5)
        result = solve_script(script_for(assertions, 2))[0]

        atoms = []
        for term in assertions:
            for node in term.walk():
                if (
                    isinstance(node, Apply)
                    and node.op in ("=", "p")
                    and node not in atoms
                ):
                    atoms.append(node)
        expected = "unsat"
        for polarity in itertools.product((False, True), repeat=len(atoms)):
            env = dict(zip(atoms, polarity))

            def ev(term):
                if term in env:
                    return env[term]
                assert isinstance(term, Apply) and term.op == "not"
                return not ev(term.args[0])

            if not all(ev(a) for a in assertions):
                continue
            closure = fresh_theory()
            if assert_literals(closure, list(env.items())) is None:
                expected = "sat"
                break
        assert result.answer == expected, script_for(assertions, 2)

    def test_euf_corpus_scripts_answer_definitely(self):
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        sat_result = solve_script((corpus / "euf_sat.smt2").read_text())
        assert [r.answer for r in sat_result] == ["sat", "unsat", "sat"]
        unsat_result = solve_script((corpus / "euf_unsat.smt2").read_text())
        assert [r.answer for r in unsat_result] == ["unsat"]

    def test_mixed_euf_and_boolean_structure(self):
        source = """
            (set-logic QF_UF)
            (declare-sort U 0)
            (declare-const x U)
            (declare-const y U)
            (declare-const b Bool)
            (declare-fun f (U) U)
            (assert (or b (= (f x) (f y))))
            (assert (not b))
            (assert (not (= x y)))
            (check-sat)
            """
        result = solve_script(source)[0]
        assert result.answer == "sat"
        from test_engine import assert_model_satisfies

        assert_model_satisfies(result, source)

    def test_unowned_atom_still_unknown(self):
        # Non-linear arithmetic belongs to no plugin: the atom stays
        # abstract and the answer degrades to unknown (never sat).
        result = solve_script(
            """
            (declare-const x Int)
            (assert (< (mod x 3) 0))
            (check-sat)
            """
        )[0]
        assert result.answer == "unknown"
        assert result.reason == "abstracted-atoms"

    def test_nary_equalities_expand_to_euf(self):
        result = solve_script(
            """
            (set-logic QF_UF)
            (declare-sort U 0)
            (declare-const x U)
            (declare-const y U)
            (declare-const z U)
            (assert (= x y z))
            (assert (distinct x z))
            (check-sat)
            """
        )[0]
        assert result.answer == "unsat"

    def test_nary_distinct_requires_enough_values(self):
        result = solve_script(
            """
            (set-logic QF_UF)
            (declare-sort U 0)
            (declare-const x U)
            (declare-const y U)
            (declare-const z U)
            (declare-fun f (U) U)
            (assert (distinct x y z))
            (assert (= (f x) (f y)))
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"

    def test_bitvec_equality_through_constants(self):
        # Distinguished constants make bit-vector equalities decidable
        # without a bit-vector theory.
        result = solve_script(
            """
            (set-logic QF_BV)
            (declare-const a (_ BitVec 8))
            (assert (= a #x01))
            (assert (= a #x02))
            (check-sat)
            """
        )[0]
        assert result.answer == "unsat"

    def test_api_script_applies_undeclared_function(self):
        """Ownership comes from the signature table: a script built in
        code may apply ``f`` without declaring it, and EUF decides it."""
        x, y = sym("x"), sym("y")
        script = Script(
            (
                Assert(eq(f(x), y)),
                Assert(Apply("not", (eq(x, y),), BOOL)),
                CheckSat(),
            )
        )
        result = Engine().run(script).check_results[0]
        assert result.answer == "sat"
        for term in (*script.assertions(), *result.assertions):
            assert evaluate(term, result.model, result.fun_interps) is TRUE
