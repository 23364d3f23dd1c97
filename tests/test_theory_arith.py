"""Linear arithmetic: linarith normal forms, δ-rationals, the simplex
plugin's direct API, composite dispatch, and engine-level QF_LRA/QF_LIA
solving."""

from fractions import Fraction

import pytest

from repro import solve_script
from repro.obs import MetricsRegistry
from repro.smtlib.evaluate import evaluate
from repro.smtlib.linarith import difference_form, linear_form
from repro.smtlib.parser import parse_term
from repro.smtlib.sorts import BOOL, INT, REAL
from repro.smtlib.terms import TRUE, Apply, Constant, Symbol, int_const
from repro.theory import (
    ArithTheory,
    DeltaRational,
    EufTheory,
    SortValueAllocator,
    TheoryComposite,
)

X = Symbol("x", INT)
Y = Symbol("y", INT)
U = Symbol("u", REAL)
V = Symbol("v", REAL)


def atom(text, **sorts):
    bound = {"x": INT, "y": INT, "z": INT, "u": REAL, "v": REAL}
    bound.update(sorts)
    return parse_term(text, bound=bound)


# ---------------------------------------------------------------------------
# linear_form / difference_form.
# ---------------------------------------------------------------------------


class TestLinearForm:
    def test_constant(self):
        assert linear_form(int_const(7)) == ({}, Fraction(7))

    def test_symbol(self):
        assert linear_form(X) == ({X: Fraction(1)}, Fraction(0))

    def test_sum_and_scaling(self):
        coeffs, constant = linear_form(atom("(+ x (* 3 y) (- x) 5)"))
        assert coeffs == {Y: Fraction(3)}
        assert constant == Fraction(5)

    def test_subtraction_chain(self):
        coeffs, constant = linear_form(atom("(- x y 2)"))
        assert coeffs == {X: Fraction(1), Y: Fraction(-1)}
        assert constant == Fraction(-2)

    def test_division_by_constant(self):
        coeffs, constant = linear_form(atom("(/ (+ u 1.0) 4.0)"))
        assert coeffs == {U: Fraction(1, 4)}
        assert constant == Fraction(1, 4)

    def test_to_real_is_transparent(self):
        coeffs, constant = linear_form(atom("(+ (to_real x) 0.5)"))
        assert coeffs == {X: Fraction(1)}
        assert constant == Fraction(1, 2)

    def test_product_of_two_ground_sides(self):
        coeffs, constant = linear_form(atom("(* (+ 1 2) (- 5 1))"))
        assert coeffs == {}
        assert constant == Fraction(12)

    def test_multiplying_ground_linear_combo(self):
        # (* (- 4 2) x): the ground factor is itself an application.
        coeffs, constant = linear_form(atom("(* (- 4 2) x)"))
        assert coeffs == {X: Fraction(2)}
        assert constant == Fraction(0)

    @pytest.mark.parametrize(
        "text",
        [
            "(* x y)",
            "(div x 2)",
            "(mod x 2)",
            "(abs x)",
            "(/ u v)",
            "(/ u 0.0)",
            "(* x x)",
            "(to_int u)",
            "(ite true x y)",
        ],
    )
    def test_nonlinear_rejected(self, text):
        assert linear_form(atom(text)) is None

    def test_difference_cancels_shared_terms(self):
        lhs = atom("(+ x y 1)")
        rhs = atom("(+ y x)")
        assert difference_form(lhs, rhs) == ({}, Fraction(1))

    def test_zero_coefficients_pruned(self):
        coeffs, _ = linear_form(atom("(+ x (- x))"))
        assert coeffs == {}

    def test_linear_form_agrees_with_evaluate(self):
        term = atom("(- (+ (* 2 x) (* 3 y) 4) (* 5 y))")
        coeffs, constant = linear_form(term)
        bindings = {"x": int_const(7), "y": int_const(-3)}
        expected = evaluate(term, bindings).value
        computed = constant + sum(
            coeff * bindings[symbol.name].value for symbol, coeff in coeffs.items()
        )
        assert computed == expected


# ---------------------------------------------------------------------------
# Delta-rationals.
# ---------------------------------------------------------------------------


class TestDeltaRational:
    def test_lexicographic_order(self):
        assert DeltaRational(1) < DeltaRational(1, 1)
        assert DeltaRational(1, -1) < DeltaRational(1)
        assert DeltaRational(1, 5) < DeltaRational(2, -5)
        assert DeltaRational(3, 2) == DeltaRational(3, 2)
        assert DeltaRational(3) >= DeltaRational(3)

    def test_ring_operations(self):
        a = DeltaRational(Fraction(1, 2), 1)
        b = DeltaRational(Fraction(3, 2), -2)
        assert a + b == DeltaRational(2, -1)
        assert a - b == DeltaRational(-1, 3)
        assert a.scaled(Fraction(4)) == DeltaRational(2, 4)

    def test_integrality_and_floor(self):
        assert DeltaRational(3).is_integral
        assert not DeltaRational(3, 1).is_integral
        assert not DeltaRational(Fraction(1, 2)).is_integral
        assert DeltaRational(3, 1).floor() == 3
        assert DeltaRational(3, -1).floor() == 2
        assert DeltaRational(Fraction(7, 2), 1).floor() == 3
        assert DeltaRational(Fraction(-7, 2)).floor() == -4


# ---------------------------------------------------------------------------
# The theory's direct API.
# ---------------------------------------------------------------------------


def lits(conflict):
    return set(conflict.literals)


class TestArithTheoryDirect:
    def test_owns_linear_comparisons_only(self):
        theory = ArithTheory()
        assert theory.owns_atom(atom("(< x y)"))
        assert theory.owns_atom(atom("(<= (* 2 x) (+ y 3))"))
        # Mixed Int/Real forms (via to_real) stay linear and owned.
        assert theory.owns_atom(atom("(>= (+ (to_real x) u) 1.0)"))
        assert not theory.owns_atom(atom("(< (div x 2) y)"))
        assert not theory.owns_atom(atom("(= x y)"))  # split by preparation
        assert not theory.owns_atom(atom("(< x y 3)"))  # chains are expanded first
        assert not theory.owns_atom(TRUE)

    def test_bound_clash_is_minimal(self):
        theory = ArithTheory()
        low = atom("(>= x 5)")
        high = atom("(<= x 3)")
        middle = atom("(<= x 100)")
        assert theory.assert_literal(middle, True) is None
        assert theory.assert_literal(low, True) is None
        conflict = theory.assert_literal(high, True)
        assert conflict is not None
        assert lits(conflict) == {(high, True), (low, True)}

    def test_negated_literal_flips_bound(self):
        theory = ArithTheory()
        le = atom("(<= x 3)")
        ge = atom("(>= x 4)")
        assert theory.assert_literal(ge, True) is None
        # not (x <= 3) is x >= 4 for integers: consistent with x >= 4.
        assert theory.assert_literal(le, False) is None
        assert theory.check() is None

    def test_simplex_row_conflict(self):
        theory = ArithTheory()
        a = atom("(<= (+ x y) 3)")
        b = atom("(>= x 2)")
        c = atom("(>= y 2)")
        for literal in (a, b, c):
            assert theory.assert_literal(literal, True) is None
        conflict = theory.check()
        assert conflict is not None
        assert lits(conflict) == {(a, True), (b, True), (c, True)}

    def test_push_pop_restores_bounds_and_conflict(self):
        theory = ArithTheory()
        assert theory.assert_literal(atom("(<= x 10)"), True) is None
        theory.push()
        conflict = None
        assert theory.assert_literal(atom("(>= x 4)"), True) is None
        conflict = theory.assert_literal(atom("(<= x 3)"), True)
        assert conflict is not None
        assert theory.check() is conflict
        theory.pop()
        assert theory.check() is None
        # The surviving upper bound still propagates.
        clash = theory.assert_literal(atom("(>= x 11)"), True)
        assert clash is not None

    def test_slack_shared_between_scaled_atoms(self):
        theory = ArithTheory()
        theory.assert_literal(atom("(<= (+ x (* 2 y)) 4)"), True)
        variables_before, rows_before = theory.tableau_size()
        # Twice the same expression, scaled and flipped: no new slack.
        theory.assert_literal(atom("(>= (+ (* 2 x) (* 4 y)) 2)"), True)
        variables_after, rows_after = theory.tableau_size()
        assert variables_after == variables_before
        assert rows_after == rows_before
        assert theory.check() is None

    def test_strict_rational_cycle_unsat(self):
        theory = ArithTheory()
        a = atom("(< u v)")
        b = atom("(< v u)")
        assert theory.assert_literal(a, True) is None
        conflict = theory.assert_literal(b, True) or theory.check()
        assert conflict is not None
        assert lits(conflict) <= {(a, True), (b, True)}

    def test_integer_tightening_refutes_without_search(self):
        theory = ArithTheory()
        a = atom("(< (* 2 x) 6)")
        b = atom("(> (* 2 x) 4)")
        assert theory.assert_literal(a, True) is None
        conflict = theory.assert_literal(b, True) or theory.check()
        assert conflict is not None
        assert theory.stats["branches"] == 0

    def test_parity_refuted_by_tightening(self):
        theory = ArithTheory()
        # 2x - 2y <= 1 and 2x - 2y >= 1 (i.e. = 1): no integer solution.
        # Canonical integer scaling (x - y vs 1/2) tightens the two
        # bounds to 0 and 1, clashing without any search.
        a = atom("(<= (- (* 2 x) (* 2 y)) 1)")
        b = atom("(>= (- (* 2 x) (* 2 y)) 1)")
        assert theory.assert_literal(a, True) is None
        conflict = theory.assert_literal(b, True) or theory.check()
        assert conflict is not None
        assert lits(conflict) <= {(a, True), (b, True)}
        assert theory.stats["branches"] == 0

    BB_ATOMS = (
        "(<= (+ (* 3 x) (* 5 y)) 4)",
        "(>= (+ (* 3 x) (* 5 y)) 4)",
        "(>= x 0)",
        "(>= y 0)",
    )

    def test_branch_and_bound_refutes_interacting_constraints(self):
        # 3x + 5y = 4 with x, y >= 0 is rationally feasible (x = 4/3)
        # but integer-infeasible; no single expression tightens shut, so
        # the refutation needs actual branching.
        theory = ArithTheory()
        for text in self.BB_ATOMS:
            assert theory.assert_literal(atom(text), True) is None
        conflict = theory.check()
        assert conflict is not None
        assert theory.stats["branches"] > 0
        asserted = {(atom(text), True) for text in self.BB_ATOMS}
        assert lits(conflict) <= asserted

    def test_model_realizes_strict_bounds(self):
        theory = ArithTheory()
        theory.assert_literal(atom("(< u v)"), True)
        theory.assert_literal(atom("(< v 1.0)"), True)
        theory.assert_literal(atom("(> u 0.0)"), True)
        assert theory.check() is None
        model = theory.model(SortValueAllocator())
        assert model is not None
        u_value = model.values["u"].value
        v_value = model.values["v"].value
        assert Fraction(0) < u_value < v_value < Fraction(1)

    def test_model_values_are_integral_for_int_vars(self):
        theory = ArithTheory()
        theory.assert_literal(atom("(>= (+ (* 2 x) (* 3 y)) 7)"), True)
        theory.assert_literal(atom("(<= (+ (* 2 x) (* 3 y)) 7)"), True)
        theory.assert_literal(atom("(>= x 1)"), True)
        assert theory.check() is None
        model = theory.model(SortValueAllocator())
        assert model is not None
        x_value = model.values["x"].value
        y_value = model.values["y"].value
        assert isinstance(x_value, int) and isinstance(y_value, int)
        assert 2 * x_value + 3 * y_value == 7

    def test_trivially_false_ground_atom_conflicts(self):
        theory = ArithTheory()
        ground = atom("(< (+ x 1) x)")
        assert theory.owns_atom(ground)
        conflict = theory.assert_literal(ground, True)
        assert conflict is not None
        assert conflict.literals == ((ground, True),)

    def test_exhausted_branch_budget_degrades_to_unknown(self):
        theory = ArithTheory(branch_limit=1)
        for text in self.BB_ATOMS:
            assert theory.assert_literal(atom(text), True) is None
        assert theory.check() is None  # budget too small to refute
        assert theory.model(SortValueAllocator()) is None
        assert theory.incomplete_reason() == "branch-budget-exhausted"
        assert theory.stats["bb_exhausted"] == 1

    def test_deep_branching_never_blows_the_stack(self):
        # Wide integer boxes with near-parallel coefficients force long
        # branch-and-bound chains; at the default interpreter recursion
        # limit this must degrade gracefully, never raise RecursionError.
        import sys

        theory = ArithTheory()
        atoms = (
            "(>= x 0)",
            "(<= x 2000)",
            "(>= y 0)",
            "(<= y 2000)",
            "(<= (+ (* 1999 x) (* 2001 y)) 3999997)",
            "(>= (+ (* 1999 x) (* 2001 y)) 3999997)",
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            conflict = None
            for text in atoms:
                conflict = theory.assert_literal(atom(text), True)
                if conflict is not None:
                    break
            if conflict is None:
                theory.check()  # must not raise, whatever the verdict
        finally:
            sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# Composite dispatch.
# ---------------------------------------------------------------------------


class TestComposite:
    def make(self):
        arith = ArithTheory()
        euf = EufTheory(uninterpreted=("f",))
        return arith, euf, TheoryComposite((arith, euf))

    def test_routing_priority(self):
        from repro.smtlib.sorts import uninterpreted_sort

        arith, euf, composite = self.make()
        sort_u = uninterpreted_sort("W")
        a = Symbol("a", sort_u)
        equality = Apply("=", (Apply("f", (a,), sort_u), a), BOOL)
        assert composite.owner(atom("(< x y)")) is arith
        assert composite.owner(equality) is euf
        assert composite.owner(atom("(< (div x 2) y)")) is None
        assert composite.owns_atom(atom("(< x y)"))
        assert not composite.owns_atom(atom("(< (mod x 5) y)"))

    def test_push_pop_lockstep_and_conflict(self):
        arith, euf, composite = self.make()
        composite.push()
        conflict = composite.assert_literal(atom("(< x x)"), True)
        assert conflict is not None
        assert composite.check() is conflict
        composite.pop()
        assert composite.check() is None

    def test_stats_are_prefixed(self):
        arith, euf, composite = self.make()
        registry = MetricsRegistry()
        composite.register_metrics(registry)
        composite.assert_literal(atom("(< x y)"), True)
        snapshot = registry.snapshot()
        assert snapshot["theory.arith.literals"] == 1
        assert snapshot["theory.euf.literals"] == 0

    def test_models_merge_with_shared_allocator(self):
        arith, euf, composite = self.make()
        composite.assert_literal(atom("(>= x 3)"), True)
        assert composite.check() is None
        model = composite.model(SortValueAllocator())
        assert model is not None
        assert model.values["x"] == int_const(3)


# ---------------------------------------------------------------------------
# Engine-level QF_LRA / QF_LIA.
# ---------------------------------------------------------------------------


def check_one(text):
    results = solve_script(text)
    assert len(results) == 1
    return results[0]


def assert_valid_model(result):
    assert result.model is not None
    for term in result.assertions:
        assert evaluate(term, result.model, result.fun_interps) is TRUE


class TestEngineArith:
    def test_lra_sat_with_validated_model(self):
        result = check_one(
            """
            (declare-const u Real)
            (declare-const v Real)
            (assert (< (+ u v) 10.0))
            (assert (> (- u v) 2.0))
            (assert (= (+ u (* 3.0 v)) 6.0))
            (check-sat)
            """
        )
        assert result.answer == "sat"
        assert_valid_model(result)

    def test_lra_unsat_core_conflict(self):
        result = check_one(
            """
            (declare-const u Real)
            (declare-const v Real)
            (assert (< (+ u v) 2.0))
            (assert (< (- u v) 0.0))
            (assert (> u 1.0))
            (check-sat)
            """
        )
        assert result.answer == "unsat"

    def test_lia_relaxation_sat_integers_unsat(self):
        # Rationally feasible (x = 1/2), integrally infeasible.
        result = check_one(
            """
            (declare-const x Int)
            (assert (< (* 2 x) 2))
            (assert (> (* 2 x) 0))
            (check-sat)
            """
        )
        assert result.answer == "unsat"

    def test_lia_branch_and_bound_model(self):
        result = check_one(
            """
            (declare-const x Int)
            (declare-const y Int)
            (assert (>= x 0))
            (assert (>= y 0))
            (assert (= (+ (* 3 x) (* 5 y)) 41))
            (check-sat)
            """
        )
        assert result.answer == "sat"
        assert_valid_model(result)
        x_value = result.model["x"].value
        y_value = result.model["y"].value
        assert 3 * x_value + 5 * y_value == 41

    def test_disequality_case_split(self):
        result = check_one(
            """
            (declare-const x Int)
            (assert (<= 0 x))
            (assert (<= x 1))
            (assert (not (= x 0)))
            (assert (not (= x 1)))
            (check-sat)
            """
        )
        assert result.answer == "unsat"

    def test_distinct_over_ints(self):
        result = check_one(
            """
            (declare-const x Int)
            (declare-const y Int)
            (declare-const z Int)
            (assert (<= 0 x))
            (assert (<= x 2))
            (assert (<= 0 y))
            (assert (<= y 2))
            (assert (<= 0 z))
            (assert (<= z 2))
            (assert (distinct x y z))
            (check-sat)
            """
        )
        assert result.answer == "sat"
        assert_valid_model(result)
        values = {result.model[name].value for name in ("x", "y", "z")}
        assert values == {0, 1, 2}

    def test_mixed_euf_and_arith_script(self):
        result = check_one(
            """
            (declare-sort U 0)
            (declare-const a U)
            (declare-const b U)
            (declare-fun f (U) U)
            (declare-const x Int)
            (declare-const y Int)
            (assert (= (f a) b))
            (assert (not (= (f b) (f (f a)))))
            (assert (< x y))
            (check-sat)
            """
        )
        assert result.answer == "unsat"

    def test_mixed_sat_merges_models(self):
        result = check_one(
            """
            (declare-sort U 0)
            (declare-const a U)
            (declare-const b U)
            (declare-const x Int)
            (assert (not (= a b)))
            (assert (>= x 7))
            (assert (<= x 7))
            (check-sat)
            """
        )
        assert result.answer == "sat"
        assert_valid_model(result)
        assert result.model["x"] == int_const(7)

    def test_incremental_push_pop_arith(self):
        results = solve_script(
            """
            (declare-const x Int)
            (declare-const y Int)
            (assert (<= (+ x y) 10))
            (check-sat)
            (push 1)
            (assert (>= x 8))
            (assert (>= y 8))
            (check-sat)
            (pop 1)
            (check-sat)
            """
        )
        assert [r.answer for r in results] == ["sat", "unsat", "sat"]

    def test_arith_stats_reported(self):
        result = check_one(
            """
            (declare-const x Int)
            (assert (>= x 3))
            (assert (<= x 3))
            (check-sat)
            """
        )
        assert result.answer == "sat"
        assert result.metrics["theory.arith.literals"] >= 2
        assert "theory.arith.pivots" in result.metrics
        assert "theory.euf.literals" in result.metrics

    def test_get_value_over_rational_model(self):
        from repro import run_script

        result = run_script(
            """
            (declare-const u Real)
            (assert (> (* 2.0 u) 1.0))
            (assert (< (* 2.0 u) 2.0))
            (check-sat)
            (get-value (u (* 4.0 u)))
            """
        )
        assert result.answers == ["sat"]
        assert result.output[0] == "sat"
        assert "u" in result.output[1]

    def test_chained_comparison_expansion(self):
        result = check_one(
            """
            (declare-const x Int)
            (declare-const y Int)
            (declare-const z Int)
            (assert (< x y z))
            (assert (>= x 0))
            (assert (<= z 2))
            (check-sat)
            """
        )
        assert result.answer == "sat"
        assert_valid_model(result)
        assert (
            result.model["x"].value
            < result.model["y"].value
            < result.model["z"].value
        )

    def test_unbounded_optimum_direction_is_sat(self):
        result = check_one(
            """
            (declare-const x Int)
            (declare-const y Int)
            (assert (>= (+ x y) 100))
            (check-sat)
            """
        )
        assert result.answer == "sat"
        assert_valid_model(result)

    def test_branch_budget_reason_reaches_the_engine(self, monkeypatch):
        import repro.engine.solve as solve_module

        monkeypatch.setattr(
            solve_module, "ArithTheory", lambda: ArithTheory(branch_limit=1)
        )
        result = check_one(
            """
            (declare-const x Int)
            (declare-const y Int)
            (assert (>= x 0))
            (assert (>= y 0))
            (assert (<= (+ (* 3 x) (* 5 y)) 4))
            (assert (>= (+ (* 3 x) (* 5 y)) 4))
            (check-sat)
            """
        )
        assert result.answer == "unknown"
        assert result.reason == "branch-budget-exhausted"

    def test_rationals_print_exactly(self):
        from repro import run_script

        result = run_script(
            """
            (declare-const u Real)
            (assert (= (* 3.0 u) 1.0))
            (check-sat)
            (get-value (u))
            """
        )
        assert result.answers == ["sat"]
        assert result.output[1] == "((u (/ 1.0 3.0)))"
