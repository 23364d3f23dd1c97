"""Property tests for arithmetic normalization.

Seeded random generators (deterministic, no external dependencies)
check the algebraic laws the arithmetic stack rests on:

* ``simplify`` is idempotent and sort-preserving on random Int/Real
  terms and atoms;
* ``simplify`` preserves models: ``evaluate(t, m)`` equals
  ``evaluate(simplify(t), m)`` over random bindings;
* :func:`~repro.smtlib.linarith.linear_form` agrees with the evaluator:
  the polynomial it extracts computes the same value as the term it
  came from, on random trees and on shared DAGs built over them.
"""

from fractions import Fraction
from random import Random

import pytest

from repro.smtlib.evaluate import evaluate
from repro.smtlib.linarith import linear_form
from repro.smtlib.simplify import simplify
from repro.smtlib.sorts import BOOL, INT, REAL
from repro.smtlib.terms import Apply, Constant, Symbol, Term, int_const

INT_VARS = [Symbol(name, INT) for name in ("x", "y", "z")]
REAL_VARS = [Symbol(name, REAL) for name in ("u", "v")]


def real_const(value) -> Constant:
    return Constant(Fraction(value), REAL)


def random_numeric(rng: Random, depth: int, sort) -> Term:
    """A random numeric term; divisors are non-zero literals so every
    generated term is total under ``evaluate``."""
    variables = INT_VARS if sort == INT else REAL_VARS
    const = int_const if sort == INT else real_const
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return rng.choice(variables)
        return const(rng.randint(-9, 9))
    choice = rng.random()
    if sort == INT and choice < 0.18:
        divisor = const(rng.choice([-5, -3, -2, 2, 3, 5, 7]))
        op = rng.choice(["div", "mod"])
        return Apply(op, (random_numeric(rng, depth - 1, sort), divisor), INT)
    if sort == REAL and choice < 0.18:
        divisor = real_const(rng.choice([-4, -2, 2, 4, Fraction(1, 2)]))
        return Apply("/", (random_numeric(rng, depth - 1, sort), divisor), REAL)
    if choice < 0.3:
        return Apply("-", (random_numeric(rng, depth - 1, sort),), sort)
    if choice < 0.45:
        # Keep * linear-ish sometimes, nonlinear other times.
        left = random_numeric(rng, depth - 1, sort)
        right = const(rng.randint(-4, 4)) if rng.random() < 0.7 else random_numeric(
            rng, depth - 1, sort
        )
        return Apply("*", (left, right), sort)
    op = rng.choice(["+", "-"])
    width = rng.randint(2, 3)
    args = tuple(random_numeric(rng, depth - 1, sort) for _ in range(width))
    return Apply(op, args, sort)


def shared_dag(rng: Random, term: Term, sort) -> Term:
    """``term`` under a short chain of sums and differences that each use
    the previous link twice: a DAG whose tree is exponentially larger."""
    other = random_numeric(rng, 2, sort)
    for _ in range(rng.randint(1, 6)):
        term = Apply(rng.choice(["+", "-"]), (term, other, term), sort)
    return term


def random_atom(rng: Random, sort) -> Term:
    op = rng.choice(["<", "<=", ">", ">=", "=", "distinct"])
    lhs = random_numeric(rng, 3, sort)
    rhs = random_numeric(rng, 3, sort)
    return Apply(op, (lhs, rhs), BOOL)


def random_bindings(rng: Random, sort) -> dict[str, Constant]:
    if sort == INT:
        return {symbol.name: int_const(rng.randint(-8, 8)) for symbol in INT_VARS}
    return {
        symbol.name: real_const(
            Fraction(rng.randint(-16, 16), rng.choice([1, 2, 3, 4]))
        )
        for symbol in REAL_VARS
    }


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("sort", [INT, REAL], ids=["int", "real"])
def test_simplify_idempotent_and_sort_preserving(seed, sort):
    rng = Random(1000 + seed)
    term = random_atom(rng, sort)
    simplified = simplify(term)
    assert simplified.sort == term.sort
    assert simplify(simplified) is simplified


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("sort", [INT, REAL], ids=["int", "real"])
def test_simplify_preserves_models(seed, sort):
    rng = Random(2000 + seed)
    term = random_atom(rng, sort)
    simplified = simplify(term)
    for trial in range(5):
        bindings = random_bindings(Random(3000 + seed * 31 + trial), sort)
        assert evaluate(term, bindings) is evaluate(simplified, bindings), (
            f"simplify changed the value of {term} under {bindings}"
        )


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("sort", [INT, REAL], ids=["int", "real"])
def test_numeric_simplify_preserves_values(seed, sort):
    rng = Random(4000 + seed)
    term = random_numeric(rng, 4, sort)
    simplified = simplify(term)
    assert simplified.sort == term.sort
    for trial in range(5):
        bindings = random_bindings(Random(5000 + seed * 31 + trial), sort)
        assert evaluate(term, bindings) is evaluate(simplified, bindings)


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("sort", [INT, REAL], ids=["int", "real"])
def test_linear_form_agrees_with_evaluate(seed, sort):
    rng = Random(6000 + seed)
    tree = random_numeric(rng, 3, sort)
    for term in (tree, shared_dag(rng, tree, sort)):
        form = linear_form(term)
        if form is None:
            continue  # nonlinear: nothing to check
        coeffs, constant = form
        for trial in range(5):
            bindings = random_bindings(Random(7000 + seed * 31 + trial), sort)
            expected = Fraction(evaluate(term, bindings).value)
            computed = constant + sum(
                coeff * Fraction(bindings[symbol.name].value)
                for symbol, coeff in coeffs.items()
            )
            assert computed == expected, f"linear_form disagrees on {term}"


@pytest.mark.parametrize("seed", range(40))
def test_comparison_folding_sound(seed):
    """When simplify folds a comparison atom to a constant, the constant
    matches brute-force evaluation at random points."""
    rng = Random(8000 + seed)
    term = random_atom(rng, INT)
    simplified = simplify(term)
    if not isinstance(simplified, Constant):
        return
    for trial in range(10):
        bindings = random_bindings(Random(9000 + seed * 37 + trial), INT)
        assert evaluate(term, bindings) is simplified
