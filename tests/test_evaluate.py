"""Tests for the ground-term evaluator and the shared literal operator
table: SMT-LIB semantics for Euclidean division, total bit-vector division,
string operations, short-circuiting, and evaluation errors."""

from fractions import Fraction

import pytest

from repro.errors import EvaluationError
from repro.smtlib import (
    DeclarationContext,
    DefineFun,
    evaluate,
    evaluate_value,
    parse_script,
    parse_term,
    simplify,
)
from repro.smtlib.sorts import BOOL, INT
from repro.smtlib.terms import FALSE, TRUE, Apply, Constant, Let, Symbol, int_const


def ev(text, bindings=None):
    return evaluate_value(parse_term(text, _ctx()), bindings)


def _ctx():
    context = DeclarationContext()
    context.declare_const("x", INT)
    return context


# -- Core --------------------------------------------------------------------


def test_core_semantics():
    assert ev("(and true true false)") is False
    assert ev("(or false true)") is True
    assert ev("(xor true true true)") is True
    assert ev("(=> true false)") is False
    assert ev("(=> false false)") is True
    assert ev("(= 1 1 1)") is True
    assert ev("(distinct 1 2 3)") is True
    assert ev("(distinct 1 2 1)") is False
    assert ev("(ite (< 1 2) 10 20)") == 10
    assert ev("(not false)") is True


def test_short_circuit_skips_unevaluable_branches():
    # and/or/ite must not evaluate arguments the logic does not need:
    # (div 1 0) is unspecified and would otherwise raise.
    assert ev("(and false (= (div 1 0) 0))") is False
    assert ev("(or true (= (div 1 0) 0))") is True
    assert ev("(ite true 1 (div 1 0))") == 1


# -- Ints / Reals ------------------------------------------------------------


def test_euclidean_div_mod():
    # SMT-LIB div/mod: 0 <= mod < |divisor|.
    assert ev("(div 7 2)") == 3 and ev("(mod 7 2)") == 1
    assert ev("(div (- 7) 2)") == -4 and ev("(mod (- 7) 2)") == 1
    assert ev("(div 7 (- 2))") == -3 and ev("(mod 7 (- 2))") == 1
    assert ev("(div (- 7) (- 2))") == 4 and ev("(mod (- 7) (- 2))") == 1


def test_real_arithmetic_is_exact():
    assert ev("(/ 1.0 3.0)") == Fraction(1, 3)
    assert ev("(+ 0.1 0.2)") == Fraction(3, 10)
    assert ev("(to_int 3.7)") == 3
    assert ev("(to_int (- 3.7))") == -4  # floor
    assert ev("(is_int 2.0)") is True
    assert ev("(to_real 2)") == Fraction(2)
    assert ev("((_ divisible 3) 9)") is True


class TestEuclideanEdgeCases:
    """Dedicated regression coverage for the negative-divisor corners of
    SMT-LIB ``div``/``mod`` (Euclidean semantics: the remainder is
    always in ``[0, |divisor|)``, whatever the signs)."""

    @pytest.mark.parametrize(
        "dividend,divisor",
        [
            (a, b)
            for a in (-13, -7, -3, -1, 0, 1, 3, 7, 13)
            for b in (-9, -5, -2, -1, 1, 2, 5, 9)
        ],
    )
    def test_division_identity_and_remainder_range(self, dividend, divisor):
        def lit(value):
            return str(value) if value >= 0 else f"(- {-value})"

        quotient = ev(f"(div {lit(dividend)} {lit(divisor)})")
        remainder = ev(f"(mod {lit(dividend)} {lit(divisor)})")
        # The defining identity and the Euclidean remainder range.
        assert dividend == divisor * quotient + remainder
        assert 0 <= remainder < abs(divisor)

    def test_negative_divisor_spot_values(self):
        # div rounds *toward* making the remainder non-negative: for a
        # negative divisor the quotient rounds up.
        assert ev("(div 1 (- 2))") == 0 and ev("(mod 1 (- 2))") == 1
        assert ev("(div (- 1) (- 2))") == 1 and ev("(mod (- 1) (- 2))") == 1
        assert ev("(div 6 (- 3))") == -2 and ev("(mod 6 (- 3))") == 0
        assert ev("(div (- 6) (- 3))") == 2 and ev("(mod (- 6) (- 3))") == 0
        assert ev("(div 5 (- 3))") == -1 and ev("(mod 5 (- 3))") == 2
        assert ev("(div (- 5) (- 3))") == 2 and ev("(mod (- 5) (- 3))") == 1

    def test_unit_divisors(self):
        assert ev("(div (- 7) 1)") == -7 and ev("(mod (- 7) 1)") == 0
        assert ev("(div (- 7) (- 1))") == 7 and ev("(mod (- 7) (- 1))") == 0

    def test_chained_div_folds_left(self):
        # (div a b c) is ((a div b) div c), Euclidean at every step.
        assert ev("(div (- 100) 7 (- 3))") == 5  # -100 div 7 = -15; -15 div -3 = 5
        assert ev("(div (- 100) (- 7) 3)") == 5  # -100 div -7 = 15; 15 div 3 = 5

    def test_simplifier_agrees_on_negative_divisors(self):
        # The simplifier folds through the same operator table.
        for text in ["(div (- 7) (- 2))", "(mod (- 7) (- 2))", "(mod 7 (- 2))"]:
            term = parse_term(text)
            assert simplify(term) is evaluate(term)


def test_division_by_zero_is_unspecified():
    with pytest.raises(EvaluationError):
        ev("(div 1 0)")
    with pytest.raises(EvaluationError):
        ev("(mod 1 0)")
    with pytest.raises(EvaluationError):
        ev("(/ 1.0 0.0)")


# -- BitVec ------------------------------------------------------------------


def test_bitvec_semantics():
    assert ev("(bvadd #xff #x02)") == 1  # wraps
    assert ev("(bvudiv #x05 #x00)") == 255  # total: all-ones
    assert ev("(bvurem #x05 #x00)") == 5  # total: dividend
    assert ev("(bvsdiv #xf8 #x02)") == 0xFC  # -8 / 2 = -4
    assert ev("(bvsrem #xf8 #x03)") == 0xFE  # -8 rem 3 = -2 (dividend sign)
    assert ev("(bvsmod #xf8 #x03)") == 0x01  # -8 smod 3 = 1 (divisor sign)
    assert ev("(bvshl #x01 #x09)") == 0  # over-shift
    assert ev("(bvashr #x80 #x01)") == 0xC0  # arithmetic shift keeps sign
    assert ev("(concat #b1 #b0)") == 2
    assert ev("((_ extract 3 0) #xab)") == 0xB
    assert ev("((_ sign_extend 8) #x80)") == 0xFF80
    assert ev("((_ rotate_right 4) #xab)") == 0xBA
    assert ev("((_ repeat 2) #xa)") == 0xAA
    assert ev("(bvslt #xff #x00)") is True  # -1 < 0


# -- Strings -----------------------------------------------------------------


def test_string_semantics():
    assert ev('(str.++ "a" "b" "c")') == "abc"
    assert ev('(str.len "abc")') == 3
    assert ev('(str.at "abc" 5)') == ""
    assert ev('(str.substr "abc" 1 10)') == "bc"
    assert ev('(str.substr "abc" 5 1)') == ""
    assert ev('(str.indexof "abcabc" "bc" 2)') == 4
    assert ev('(str.indexof "abc" "z" 0)') == -1
    assert ev('(str.replace "aaa" "a" "b")') == "baa"
    assert ev('(str.replace_all "aaa" "a" "b")') == "bbb"
    assert ev('(str.to_int "007")') == 7
    assert ev('(str.to_int "-7")') == -1
    assert ev("(str.from_int (- 7))") == ""
    assert ev('(str.prefixof "ab" "abc")') is True
    assert ev('(str.suffixof "bc" "abc")') is True
    assert ev('(str.contains "abc" "z")') is False


# -- Environments and errors -------------------------------------------------


def test_environment_bindings():
    term = parse_term("(+ x 1)", _ctx())
    assert evaluate_value(term, {"x": int_const(41)}) == 42
    assert evaluate(term, {"x": int_const(41)}) is int_const(42)


def test_binding_sort_mismatch_raises():
    term = parse_term("(+ x 1)", _ctx())
    with pytest.raises(EvaluationError):
        evaluate(term, {"x": Constant(True, BOOL)})


def test_free_symbol_raises():
    with pytest.raises(EvaluationError):
        ev("(+ x 1)")


def test_quantifier_raises():
    context = _ctx()
    term = parse_term("(forall ((q Int)) (< q x))", context)
    with pytest.raises(EvaluationError):
        evaluate(term, {"x": int_const(0)})


def test_let_evaluates_bindings_in_parallel():
    assert ev("(let ((a 1) (b 2)) (let ((a b) (b a)) (- a b)))") == 1


def test_shared_subterms_evaluate_once_per_scope():
    # 2**64 leaves as a tree, 65 nodes as a DAG.
    term = Apply("+", (Symbol("x", INT), int_const(1)), INT)
    for _ in range(64):
        term = Apply("+", (term, term), INT)
    assert evaluate(term, {"x": int_const(0)}).value == 2**64
    # Inside a let body the same node means another value: a binder
    # shadowing x must not reuse the outer scope's result.
    shadowed = Let((("x", int_const(1)),), Apply("-", (term, Symbol("x", INT)), INT))
    assert evaluate(Apply("-", (term, shadowed), INT), {"x": int_const(0)}).value == 1 - 2**64


def test_shared_let_terms_evaluate_once_per_scope():
    # Each level reads one let node twice: 2**64 body evaluations as a tree.
    term = Symbol("x", INT)
    for _ in range(64):
        shared = Let((("y", int_const(1)),), Apply("+", (term, Symbol("y", INT)), INT))
        term = Apply("+", (shared, shared), INT)
    assert evaluate(term, {"x": int_const(0)}).value == 2**65 - 2


# -- Definitions -------------------------------------------------------------


def defined(source):
    """The last assertion of ``source`` (declaring ``x``) and the
    script's definitions, by name."""
    script = parse_script("(declare-const x Int) " + source)
    definitions = {c.name: c for c in script.commands if isinstance(c, DefineFun)}
    return script.assertions()[-1], definitions


def test_definition_application_binds_its_parameters():
    term, definitions = defined(
        "(define-fun inc ((a Int)) Int (+ a 1)) (assert (= (inc (inc x)) 7))"
    )
    assert evaluate(term, {"x": int_const(5)}, None, definitions) is TRUE
    assert evaluate(term, {"x": int_const(4)}, None, definitions) is FALSE


def test_parameter_shadows_a_declared_name_in_the_body():
    term, definitions = defined("(define-fun f ((x Int)) Int (+ x 1)) (assert (= (f 3) 4))")
    assert evaluate(term, {"x": int_const(100)}, None, definitions) is TRUE


def test_call_site_let_cannot_capture_a_body_name():
    # Both bodies read the declared x (1), never the let-bound x (10).
    term, definitions = defined(
        "(define-fun addx ((a Int)) Int (+ a x)) (define-fun c () Int x)"
        " (assert (let ((x 10)) (and (= (addx x) 11) (= c 1))))"
    )
    assert evaluate(term, {"x": int_const(1)}, None, definitions) is TRUE


def test_let_binder_shadows_a_nullary_definition():
    term, definitions = defined("(define-fun c () Int 5) (assert (let ((c x)) (= c 1)))")
    assert evaluate(term, {"x": int_const(1)}, None, definitions) is TRUE


def test_nullary_definitions_compose():
    term, definitions = defined(
        "(define-fun c () Int (+ x 1)) (define-fun d () Int (* c 2)) (assert (= d 6))"
    )
    assert evaluate(term, {"x": int_const(2)}, None, definitions) is TRUE


def test_nullary_definition_is_evaluated_only_where_referenced():
    term, definitions = defined(
        "(define-fun q () Bool (forall ((y Int)) (> y x))) (assert (> x 0))"
    )
    assert evaluate(term, {"x": int_const(1)}, None, definitions) is TRUE
    referenced, _ = defined(
        "(define-fun q () Bool (forall ((y Int)) (> y x))) (assert (or q (> x 0)))"
    )
    with pytest.raises(EvaluationError, match="quantified"):
        evaluate(referenced, {"x": int_const(1)}, None, definitions)


def test_unevaluable_binding_fails_only_where_read():
    # (div x 0) is unspecified: a let value or an argument bound to it
    # fails the evaluation only if the body reads it.
    two = {"x": int_const(2)}
    unused, definitions = defined(
        "(define-fun k ((a Int)) Int 0)"
        " (assert (let ((v (div x 0))) (and (> x 1) (= (k (div x 0)) 0))))"
    )
    assert evaluate(unused, two, None, definitions) is TRUE
    read, _ = defined("(assert (let ((v (div x 0))) (> v 1)))")
    with pytest.raises(EvaluationError, match="div"):
        evaluate(read, two)
    passed, definitions = defined("(define-fun k ((a Int)) Int a) (assert (= (k (div x 0)) 0))")
    with pytest.raises(EvaluationError, match="div"):
        evaluate(passed, two, None, definitions)


def test_undefined_free_symbol_still_raises():
    term, definitions = defined("(define-fun c () Int 5) (assert (> x c))")
    with pytest.raises(EvaluationError, match="free symbol 'x'"):
        evaluate(term, {}, None, definitions)


def test_simplify_and_evaluate_agree_on_ground_terms():
    for text in [
        "(+ 1 (* 2 3) (- 4))",
        "(ite (< 3 2) 1 (div 9 2))",
        "(bvadd (bvmul #x03 #x05) #x01)",
        '(str.len (str.++ "ab" "cd"))',
    ]:
        term = parse_term(text)
        assert simplify(term) is evaluate(term)
