"""Tests for engine preparation: the one walk that expands ``define-fun``
and ``let`` binders, splits equalities and comparisons, and simplifies.

The prepared assertions are what ``CheckSatResult.assertions`` holds, so
each case pins ``str`` of a prepared term.  The deep cases check that a
binder chain is expanded in time and memory linear in its length.
"""

import pytest

from repro import Engine, run_script, solve_script
from repro.proof import check_proof
from repro.smtlib import TRUE, evaluate, intern_stats, parse_script

INTS = "(declare-const x Int) (declare-const y Int) (declare-const z Int)\n"
UNINTERPRETED = "(declare-sort U 0) (declare-const a U) (declare-const b U) (declare-const c U)\n"


def prepared(source: str) -> list[str]:
    """The prepared assertions live at the script's first check-sat."""
    result = solve_script(source + "\n(check-sat)")[0]
    return [str(term) for term in result.assertions]


def test_let_bound_application_stays_one_equality():
    # The linearity test sees (f x), not the let symbol: no bound pair.
    source = INTS + "(declare-fun f (Int) Int) (assert (let ((a (f x))) (= a y)))"
    assert prepared(source) == ["(= (f x) y)"]


def test_definition_parameter_bound_to_application():
    source = INTS + (
        "(declare-fun f (Int) Int)"
        " (define-fun eqy ((a Int)) Bool (= a y))"
        " (assert (eqy (f x)))"
    )
    assert prepared(source) == ["(= (f x) y)"]


def test_definition_parameter_bound_to_symbol():
    source = INTS + "(define-fun eqy ((a Int)) Bool (= a y)) (assert (eqy x))"
    assert prepared(source) == ["(and (<= x y) (>= x y))"]


def test_let_binder_shadows_definition():
    source = INTS + "(define-fun c () Int 5) (assert (let ((c x)) (> c y)))"
    assert prepared(source) == ["(> x y)"]


def test_quantifier_binder_shadows_definition():
    source = INTS + "(define-fun c () Int 5) (assert (forall ((c Int)) (> c y)))"
    assert prepared(source) == ["(forall ((c Int)) (> c y))"]


def test_parallel_let_swaps():
    assert prepared(INTS + "(assert (let ((x y) (y x)) (> x y)))") == ["(> y x)"]


def test_named_label_inlines_its_term():
    source = INTS + "(assert (! (= x y z) :named e)) (assert (not e))"
    chain = "(and (<= x y) (>= x y) (<= y z) (>= y z))"
    assert prepared(source) == [chain, f"(not {chain})"]


def test_nary_equality_and_distinct_over_int():
    source = INTS + "(assert (= x y z)) (assert (distinct x y z))"
    assert prepared(source) == [
        "(and (<= x y) (>= x y) (<= y z) (>= y z))",
        "(and (not (and (<= x y) (>= x y))) (not (and (<= x z) (>= x z)))"
        " (not (and (<= y z) (>= y z))))",
    ]


def test_nary_equality_and_distinct_over_uninterpreted_sort():
    source = UNINTERPRETED + "(assert (= a b c)) (assert (distinct a b c))"
    assert prepared(source) == [
        "(and (= a b) (= b c))",
        "(and (not (= a b)) (not (= a c)) (not (= b c)))",
    ]


def test_chained_comparison_splits_into_pairs():
    assert prepared(INTS + "(assert (< x y z))") == ["(and (< x y) (< y z))"]


@pytest.mark.parametrize(
    "assertions, answer",
    [
        ("(assert (= (ite true x 1) y)) (assert (> y 3))", "sat"),
        ("(assert (= (div x 1) y)) (assert (> y 3))", "sat"),
        ("(assert (= (to_int (to_real x)) y)) (assert (> y 3))", "sat"),
        ("(assert (= (ite true x 0) y 4))", "sat"),
        ("(assert (= (ite true x 1) y)) (assert (> y 3)) (assert (< x 2))", "unsat"),
    ],
)
def test_equality_split_sees_simplified_arguments(assertions, answer):
    # Each side simplifies to a symbol before the linear-equality rule
    # looks at it, so the equality splits into its bound pair and the
    # simplex decides it.
    script = parse_script(INTS + assertions + " (check-sat)")
    result = solve_script(script, produce_proofs=True)[0]
    assert result.answer == answer, result.reason
    if answer == "sat":
        for term in script.assertions():
            assert evaluate(term, result.model, result.fun_interps) is TRUE, term
    else:
        assert check_proof(result.proof).ok


def test_get_value_expands_definitions_lets_and_distinct():
    result = run_script(
        INTS
        + "(define-fun twice ((u Int)) Int (* 2 u))"
        " (assert (= x 3)) (assert (= y 4)) (assert (= z 5))"
        " (check-sat)"
        " (get-value ((twice x) (let ((w (+ x y))) (- w z)) (distinct x y z)))"
    )
    assert result.output == [
        "sat",
        "(((twice x) 6) ((let ((w (+ x y))) (- w z)) 2) ((distinct x y z) true))",
    ]


def let_chain(depth: int) -> str:
    """``x_{i+1} = x_i + 1`` bound ``depth`` times, then ``(> x_depth 0)``."""
    binders = "".join(f"(let ((x{i} (+ x{i - 1} 1))) " for i in range(1, depth + 1))
    body = f"(> x{depth} 0)"
    return f"(declare-const x0 Int) (assert {binders}{body}{')' * depth}) (check-sat)"


def doubling_chain(depth: int) -> str:
    """``x_{i+1} = f(x_i, x_i)``: a term whose tree size is ``2**depth``
    while its DAG has ``depth`` applications."""
    binders = "".join(f"(let ((x{i} (f x{i - 1} x{i - 1}))) " for i in range(1, depth + 1))
    body = f"(distinct x{depth} y)"
    return (
        "(declare-sort U 0) (declare-fun f (U U) U) (declare-const x0 U) (declare-const y U)"
        f" (assert {binders}{body}{')' * depth}) (check-sat)"
    )


def test_let_chain_allocates_linearly():
    depth = 1000
    script = parse_script(let_chain(depth))
    before = intern_stats()["misses"]
    result = Engine().run(script)
    misses = intern_stats()["misses"] - before
    assert result.output == ["sat"]
    assert misses <= 10 * depth, misses


def test_doubling_chain_answers_sat():
    assert run_script(doubling_chain(24)).output == ["sat"]
