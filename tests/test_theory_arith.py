"""Linear arithmetic: linarith normal forms, integer δ-rational triples,
the simplex plugin's direct API (with exact compares and a
Fourier–Motzkin oracle), the engine's dispatch over the plugin tuple,
and engine-level QF_LRA/QF_LIA solving."""

import gc
import time
import weakref
from fractions import Fraction
from random import Random

import pytest

from repro import run_script, solve_script
from repro.engine.solve import Engine, _TheorySync
from repro.smtlib.evaluate import evaluate
from repro.smtlib.linarith import difference_form, linear_form
from repro.smtlib.parser import parse_term
from repro.smtlib.script import Assert, CheckSat, DeclareConst, GetModel, Pop, Push, Script
from repro.smtlib.sorts import BOOL, INT, REAL
from repro.smtlib.terms import FALSE, TRUE, Apply, Constant, Symbol, int_const
from repro.theory import ArithTheory, EufTheory, SortValueAllocator, arith
from repro.theory.arith import _ZERO, _add_scaled, _floor, _is_integral, _lt, _value
from repro.proof import check_proof
from repro.sat import Solver
from test_engine import assert_model_satisfies
from test_fuzz_differential import BOX, _numeric_atom, generate_numeric

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

    def test_form_is_computed_once_per_node(self):
        term = atom("(+ x (* 3 y) (- x) 5)")
        assert linear_form(term) is linear_form(term)

    def test_forms_keep_no_dead_term_alive(self):
        # No form refers back to its own term, so terms still die by
        # reference count, without the cycle collector.
        gc.disable()
        try:
            x = Symbol("only_in_this_test", INT)
            term = Apply("+", (x, int_const(3)), INT)
            assert linear_form(term) == ({x: 1}, 3) and linear_form(x) == ({x: 1}, 0)
            dead = weakref.ref(x), weakref.ref(term)
            del x, term
            assert [ref() for ref in dead] == [None, None]
        finally:
            gc.enable()

    def test_sum_chain_deeper_than_the_recursion_limit(self):
        # 100,001 nested sums: deeper than the frames repro.limits allows,
        # so the form cannot come from recursing over the sum.
        term, one = X, int_const(1)
        for _ in range(100_001):
            term = Apply("+", (term, one), INT)
        assert linear_form(term) == ({X: 1}, 100_001)


# ---------------------------------------------------------------------------
# Integer δ-rational triples: (p, q, d) is (p + q·δ)/d.
# ---------------------------------------------------------------------------


class TestDeltaTriple:
    def test_lexicographic_order(self):
        assert _lt((1, 0, 1), (1, 1, 1))
        assert _lt((1, -1, 1), (1, 0, 1))
        assert _lt((1, 5, 1), (2, -5, 1))
        assert _value(6, 4, 2) == (3, 2, 1)
        assert not _lt((3, 0, 1), (3, 0, 1))
        # Cross-multiplied: 1/3 < 1/2, and 1/2 + δ/2 > 1/2.
        assert _lt((1, 0, 3), (1, 0, 2))
        assert _lt((1, 0, 2), (1, 1, 2))
        assert not _lt((1, 1, 2), (1, 0, 2))

    def test_ring_operations(self):
        a = (1, 2, 2)  # 1/2 + δ
        b = (3, -4, 2)  # 3/2 - 2δ
        assert _add_scaled(a, b, 1, 1) == (2, -1, 1)
        assert _add_scaled(a, b, -1, 1) == (-1, 3, 1)
        assert _add_scaled(_ZERO, a, 4, 1) == (2, 4, 1)
        assert _add_scaled(_ZERO, a, 2, 3) == (1, 2, 3)
        assert _value(4, -2, 6) == (2, -1, 3)

    def test_integrality_and_floor(self):
        assert _is_integral((3, 0, 1))
        assert not _is_integral((3, 1, 1))
        assert not _is_integral((1, 0, 2))
        assert _floor((3, 1, 1)) == 3
        assert _floor((3, -1, 1)) == 2
        assert _floor((7, 2, 2)) == 3  # 7/2 + δ
        assert _floor((-7, 0, 2)) == -4


# ---------------------------------------------------------------------------
# The theory's direct API.
# ---------------------------------------------------------------------------


def lits(conflict):
    return set(conflict.literals)


#: 1999x + 2001y = 3999997 over 0 <= x, y <= 2000: sat (x = 1, y = 1998),
#: but the rational optimum moves by tiny steps, so splits pile up.
WIDE_BOX = (
    "(>= x 0)",
    "(<= x 2000)",
    "(>= y 0)",
    "(<= y 2000)",
    "(<= (+ (* 1999 x) (* 2001 y)) 3999997)",
    "(>= (+ (* 1999 x) (* 2001 y)) 3999997)",
)


def atoms_script(texts):
    """One check of the conjunction of ``texts`` over Int ``x`` and ``y``."""
    return (
        "(declare-const x Int)(declare-const y Int)"
        + "".join(f"(assert {text})" for text in texts)
        + "(check-sat)"
    )


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
        # the refutation needs the SAT core to branch on integer splits.
        # Every conflict is over asserted literals, so the proof checks.
        (check,) = solve_script(atoms_script(self.BB_ATOMS), produce_proofs=True)
        assert check.answer == "unsat"
        assert check.metrics["theory.arith.branches"] > 0
        assert check_proof(check.proof).ok

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
        check = check_one(
            atoms_script(("(>= (+ (* 2 x) (* 3 y)) 7)", "(<= (+ (* 2 x) (* 3 y)) 7)", "(>= x 1)"))
        )
        assert check.answer == "sat"
        x_value = check.model["x"].value
        y_value = check.model["y"].value
        assert isinstance(x_value, int) and isinstance(y_value, int)
        assert 2 * x_value + 3 * y_value == 7 and x_value >= 1

    def test_trivially_false_ground_atom_conflicts(self):
        theory = ArithTheory()
        ground = atom("(< (+ x 1) x)")
        assert theory.owns_atom(ground)
        conflict = theory.assert_literal(ground, True)
        assert conflict is not None
        assert conflict.literals == ((ground, True),)

    def test_exhausted_branch_budget_degrades_to_unknown(self, monkeypatch):
        # One split cannot refute 3x + 5y = 4: the check that needs the
        # second reports the budget, and the answer degrades to unknown.
        monkeypatch.setattr(arith, "SPLIT_BUDGET", 1)
        check = check_one(atoms_script(self.BB_ATOMS))
        assert (check.answer, check.reason) == ("unknown", "branch-budget-exhausted")
        assert check.metrics["theory.arith.branches"] == 1
        assert check.metrics["theory.arith.bb_exhausted"] >= 1

    def test_deep_branching_never_blows_the_stack(self):
        # Wide integer boxes with near-parallel coefficients need long
        # chains of splits.  They are SAT decisions, so no chain recurses,
        # and the split budget ends the search within a second.
        source = atoms_script(WIDE_BOX)
        start = time.perf_counter()
        check = check_one(source)
        assert time.perf_counter() - start < 1.0
        # The box is sat (x = 1, y = 1998), but the budget may end first.
        assert (check.answer, check.reason) in (
            ("sat", None),
            ("unknown", "branch-budget-exhausted"),
        )
        if check.answer == "sat":
            assert_model_satisfies(check, source)


# ---------------------------------------------------------------------------
# Exact compares: rows a hair (1e-12) from their bounds decide exactly.
# ---------------------------------------------------------------------------


FU = Symbol("fu", REAL)
FV = Symbol("fv", REAL)
EPS = Fraction(1, 10**12)


def _real(value) -> Constant:
    return Constant(Fraction(value), REAL)


def _cmp(op, lhs, rhs):
    return Apply(op, (lhs, rhs), BOOL)


class TestExactCompare:
    def test_row_a_hair_short_of_its_bound_is_unsat(self):
        theory = ArithTheory()
        total = Apply("+", (FU, FV), REAL)
        assert theory.assert_literal(_cmp(">=", total, _real(3)), True) is None
        assert theory.assert_literal(_cmp("<=", FU, _real(1)), True) is None
        near = Constant(Fraction(2) - EPS, REAL)
        outcome = theory.assert_literal(_cmp("<=", FV, near), True)
        if outcome is None:
            outcome = theory.check()
        assert outcome is not None  # max u + v = 3 - 1e-12 < 3 exactly

    def test_row_a_hair_inside_its_bound_is_sat(self):
        theory = ArithTheory()
        total = Apply("+", (FU, FV), REAL)
        assert theory.assert_literal(_cmp("<=", total, _real(6)), True) is None
        assert theory.assert_literal(_cmp(">=", FU, _real(3)), True) is None
        near = Constant(Fraction(3) - EPS, REAL)
        assert theory.assert_literal(_cmp(">=", FV, near), True) is None
        assert theory.check() is None  # u + v = 6 - 1e-12 <= 6 exactly

    def test_row_far_inside_its_bound_is_sat(self):
        theory = ArithTheory()
        total = Apply("+", (FU, FV), REAL)
        assert theory.assert_literal(_cmp("<=", total, _real(100)), True) is None
        assert theory.assert_literal(_cmp(">=", FU, _real(3)), True) is None
        assert theory.assert_literal(_cmp(">=", FV, _real(3)), True) is None
        assert theory.check() is None  # the slack row sits far from its bound


# ---------------------------------------------------------------------------
# Fourier–Motzkin oracle: exact two-sided verdicts on fractional rows.
# ---------------------------------------------------------------------------


FM_VARS = tuple(Symbol(f"r{i}", REAL) for i in range(3))
_FM_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _fm_row(atom, positive):
    """The literal as ``(coeffs, strict, bound)``: ``Σ coeffs·r (<|<=) bound``."""
    op = atom.op if positive else _FM_NEGATE[atom.op]
    coeffs, constant = difference_form(*atom.args)
    sign = 1 if op in ("<", "<=") else -1
    row = tuple(sign * Fraction(coeffs.get(var, 0)) for var in FM_VARS)
    return row, op in ("<", ">"), -sign * Fraction(constant)


def _fm_feasible(literals):
    """Fourier–Motzkin elimination of every variable, strictness tracked."""
    rows = [_fm_row(atom, positive) for atom, positive in literals]
    for k in range(len(FM_VARS)):
        upper = [r for r in rows if r[0][k] > 0]
        lower = [r for r in rows if r[0][k] < 0]
        rows = [r for r in rows if r[0][k] == 0]
        for (a, a_strict, a_bound) in upper:
            for (b, b_strict, b_bound) in lower:
                ka, kb = 1 / a[k], -1 / b[k]
                combined = tuple(x * ka + y * kb for x, y in zip(a, b))
                rows.append((combined, a_strict or b_strict, a_bound * ka + b_bound * kb))
    return all(bound > 0 if strict else bound >= 0 for _, strict, bound in rows)


def _fm_conjunction(rng):
    literals = []
    for _ in range(rng.randint(3, 8)):
        products = []
        for var in rng.sample(FM_VARS, rng.randint(1, 3)):
            coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 7))
            products.append(Apply("*", (_real(coeff), var), REAL))
        lhs = products[0] if len(products) == 1 else Apply("+", tuple(products), REAL)
        constant = _real(Fraction(rng.randint(-12, 12), rng.randint(1, 7)))
        atom = _cmp(rng.choice(("<", "<=", ">", ">=")), lhs, constant)
        literals.append((atom, rng.random() >= 0.3))
    return literals


def test_simplex_agrees_with_fourier_motzkin():
    verdicts = {"sat": 0, "unsat": 0}
    fractional_rows = 0
    for seed in range(300):
        literals = _fm_conjunction(Random(seed))
        theory = ArithTheory()
        conflict = None
        for atom, positive in literals:
            conflict = theory.assert_literal(atom, positive)
            if conflict is not None:
                break
        if conflict is None:
            conflict = theory.check()
        fractional_rows += max(theory._dens.values(), default=1) > 1
        assert (conflict is None) == _fm_feasible(literals), seed
        if conflict is None:
            verdicts["sat"] += 1
            model = theory.model(SortValueAllocator())
            for atom, positive in literals:
                assert evaluate(atom, model.values) is (TRUE if positive else FALSE), seed
        else:
            verdicts["unsat"] += 1
            assert set(conflict.literals) <= set(literals), seed
            assert not _fm_feasible(conflict.literals), seed
    assert min(verdicts.values()) > 0 and fractional_rows > 0, (verdicts, fractional_rows)


# ---------------------------------------------------------------------------
# Theory dispatch: the engine's hook drives the plugin tuple.
# ---------------------------------------------------------------------------


class _Trail:
    """A stand-in SAT core for driving the hook by hand: a trail and its
    low watermark (the shortest trail length since the previous read)."""

    def __init__(self):
        self.trail = []
        self._low = 0

    def trail_watermark(self):
        mark, self._low = self._low, len(self.trail)
        return mark

    def rewind(self, length):
        del self.trail[length:]
        self._low = min(self._low, length)


class TestComposite:
    def test_routing_priority(self):
        from repro.smtlib.sorts import uninterpreted_sort

        arith, euf = ArithTheory(), EufTheory()
        sync = _TheorySync((arith, euf), {}, None)
        sort_u = uninterpreted_sort("W")
        a = Symbol("a", sort_u)
        equality = Apply("=", (Apply("f", (a,), sort_u), a), BOOL)
        assert sync.owner(atom("(< x y)")) is arith
        assert sync.owner(equality) is euf
        assert sync.owner(atom("(< (div x 2) y)")) is None
        assert not sync.route(atom("(< (mod x 5) y)"), 1)
        # The same dispatch inside a run: each check's literals reach only
        # the owning plugin, and an atom nobody owns stays abstract.
        linear, uninterpreted, nonlinear = solve_script(
            "(declare-sort W 0)(declare-fun f (W) W)(declare-const a W)"
            "(declare-const x Int)(declare-const y Int)"
            "(push 1)(assert (< x y))(check-sat)(pop 1)"
            "(push 1)(assert (= (f a) a))(check-sat)(pop 1)"
            "(assert (< (div x 2) y))(check-sat)"
        )
        assert linear.answer == uninterpreted.answer == "sat"
        assert linear.metrics["theory.arith.literals"] == 1
        assert linear.metrics["theory.euf.literals"] == 0
        assert uninterpreted.metrics["theory.arith.literals"] == 0
        assert uninterpreted.metrics["theory.euf.literals"] == 1
        assert (nonlinear.answer, nonlinear.reason) == ("unknown", "abstracted-atoms")

    def test_push_pop_lockstep_and_conflict(self):
        arith, euf = ArithTheory(), EufTheory()
        clash = atom("(< x x)")
        sync = _TheorySync((arith, euf), {clash: 2}, None)
        assert sync.route(clash, 2)
        solver = _Trail()
        solver.trail += [1, 2]  # an unrouted literal, then the clash
        (lemma,) = sync.on_check(solver, False)
        assert list(lemma) == [-2] and lemma.source == "arith"
        conflict = arith.check()
        assert conflict is not None and conflict.literals == ((clash, True),)
        # The rewind cuts the one batch: its checkpoint pops on every
        # plugin, with the recorded conflict, and the literal still on
        # the trail is asserted again under a new checkpoint.
        solver.rewind(1)
        assert sync.on_check(solver, False) == ()
        assert arith.check() is None
        assert len(arith._marks) == len(euf._marks) == 1

    def test_stats_are_prefixed(self):
        (check,) = solve_script(
            "(declare-const x Int)(declare-const y Int)(assert (< x y))(check-sat)"
        )
        assert check.answer == "sat"
        assert check.metrics["theory.arith.literals"] == 1
        assert check.metrics["theory.euf.literals"] == 0
        for plugin in (ArithTheory(), EufTheory()):
            assert {f"theory.{plugin.name}.{key}" for key in plugin.stats} <= set(check.metrics)

    def test_models_merge_with_shared_allocator(self):
        (check,) = solve_script(
            "(declare-sort U 0)(declare-fun f (U) Int)"
            "(declare-const p U)(declare-const q U)(declare-const x Int)"
            "(assert (>= x 3))(assert (<= x 3))(assert (not (= (f p) (f q))))"
            "(check-sat)"
        )
        assert check.answer == "sat"
        # Arithmetic values x; congruence closure values the classes of
        # (f p) and (f q) from the same allocator, so no Int repeats.
        assert check.model["x"] == int_const(3)
        reads = list(check.fun_interps["f"].entries.values())
        assert len(reads) == 2
        assert len({check.model["x"], *reads}) == 3
        assert check.model["p"] != check.model["q"]


def test_pop_levels_replays_the_shared_undo_log():
    """``pop(n)`` undoes everything logged since the mark ``n``
    checkpoints ago, in one pass: the bounds, merges and recorded
    conflicts of every popped level go, and earlier levels stay."""
    from repro.smtlib.sorts import uninterpreted_sort

    arith = ArithTheory()
    arith.push()
    assert arith.assert_literal(atom("(<= x 5)"), True) is None
    arith.push()
    assert arith.assert_literal(atom("(>= x 3)"), True) is None
    arith.push()
    assert arith.assert_literal(atom("(>= x 7)"), True) is not None
    arith.pop(2)
    assert arith.check() is None
    assert arith.assert_literal(atom("(>= x 6)"), True) is not None  # x <= 5 stayed
    arith.pop(1)
    assert arith.assert_literal(atom("(>= x 6)"), True) is None

    sort_u = uninterpreted_sort("W")
    a, b, c = (Symbol(name, sort_u) for name in "abc")
    euf = EufTheory()
    euf.push()
    assert euf.assert_literal(Apply("=", (a, b), BOOL), True) is None
    euf.push()
    assert euf.assert_literal(Apply("=", (b, c), BOOL), False) is None
    euf.push()
    assert euf.assert_literal(Apply("=", (a, c), BOOL), True) is not None
    euf.pop(2)
    assert euf.check() is None
    assert euf.assert_literal(Apply("=", (b, c), BOOL), True) is None
    assert euf.same_class(a, c)
    euf.pop(1)
    assert not euf.same_class(a, b)


# ---------------------------------------------------------------------------
# Engine-level QF_LRA / QF_LIA.
# ---------------------------------------------------------------------------


def check_one(text):
    results = solve_script(text)
    assert len(results) == 1
    return results[0]


def doubling_chain(depth, step, goal):
    """``x_i = step(x_{i-1})`` bound by ``depth`` nested lets, then
    ``goal`` over ``x_depth``: a term of ``2**depth`` leaves as a tree."""
    binders = "".join(
        f"(let ((x{i} {step.format(x=f'x{i - 1}')})) " for i in range(1, depth + 1)
    )
    body = goal.format(x=f"x{depth}")
    return (
        "(declare-const x0 Int) (declare-const y Int)"
        f" (assert {binders}{body}{')' * depth}) (check-sat)"
    )


@pytest.mark.parametrize(
    "step", ["(+ {x} {x})", "(* 2 {x})", "(- {x} (- 0 {x}))"], ids=["sum", "product", "minus"]
)
@pytest.mark.parametrize(
    "goal", ["(= {x} y)", "(distinct {x} y)", "(> {x} 0)"], ids=["eq", "distinct", "gt"]
)
def test_doubling_chain_answers_sat(step, goal):
    source = doubling_chain(64, step, goal)
    result = run_script(source)
    assert result.output == ["sat"]
    assert_model_satisfies(result.check_results[0], source)


class TestEngineArith:
    def test_lra_sat_with_validated_model(self):
        source = """
            (declare-const u Real)
            (declare-const v Real)
            (assert (< (+ u v) 10.0))
            (assert (> (- u v) 2.0))
            (assert (= (+ u (* 3.0 v)) 6.0))
            (check-sat)
            """
        result = check_one(source)
        assert result.answer == "sat"
        assert_model_satisfies(result, source)

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
        source = """
            (declare-const x Int)
            (declare-const y Int)
            (assert (>= x 0))
            (assert (>= y 0))
            (assert (= (+ (* 3 x) (* 5 y)) 41))
            (check-sat)
            """
        result = check_one(source)
        assert result.answer == "sat"
        assert_model_satisfies(result, source)
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
        source = """
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
        result = check_one(source)
        assert result.answer == "sat"
        assert_model_satisfies(result, source)
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
        source = """
            (declare-sort U 0)
            (declare-const a U)
            (declare-const b U)
            (declare-const x Int)
            (assert (not (= a b)))
            (assert (>= x 7))
            (assert (<= x 7))
            (check-sat)
            """
        result = check_one(source)
        assert result.answer == "sat"
        assert_model_satisfies(result, source)
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

    def test_theory_counters_are_per_check(self):
        results = solve_script(
            """
            (declare-sort U 0)
            (declare-const u U)
            (declare-const w U)
            (declare-const x Int)
            (declare-const p Bool)
            (assert p)
            (push 1)
            (assert (>= x 3))
            (assert (not (= u w)))
            (check-sat)
            (pop 1)
            (check-sat)
            (push 1)
            (assert (<= x 5))
            (check-sat)
            """
        )
        assert [r.answer for r in results] == ["sat"] * 3
        first, second, third = (r.metrics for r in results)
        assert first["theory.arith.literals"] == first["theory.euf.literals"] == 1
        # The plugins live for the run and report each check's
        # increments, also for a check that routes nothing to them.
        assert second["theory.arith.literals"] == second["theory.euf.literals"] == 0
        assert third["theory.arith.literals"] == 1
        assert third["theory.euf.literals"] == 0

    def test_popped_symbols_stay_out_of_later_models(self):
        results = solve_script(
            """
            (declare-const y Int)
            (assert (> y 5))
            (push 1)
            (declare-const x Int)
            (declare-const z Int)
            (assert (< (+ x z) 0))
            (check-sat)
            (pop 1)
            (check-sat)
            """
        )
        assert [r.answer for r in results] == ["sat", "sat"]
        assert set(results[0].model) == {"x", "y", "z"}
        assert set(results[1].model) == {"y"}

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
        source = """
            (declare-const x Int)
            (declare-const y Int)
            (declare-const z Int)
            (assert (< x y z))
            (assert (>= x 0))
            (assert (<= z 2))
            (check-sat)
            """
        result = check_one(source)
        assert result.answer == "sat"
        assert_model_satisfies(result, source)
        assert (
            result.model["x"].value
            < result.model["y"].value
            < result.model["z"].value
        )

    def test_unbounded_optimum_direction_is_sat(self):
        source = """
            (declare-const x Int)
            (declare-const y Int)
            (assert (>= (+ x y) 100))
            (check-sat)
            """
        result = check_one(source)
        assert result.answer == "sat"
        assert_model_satisfies(result, source)

    def test_branch_budget_reason_reaches_the_engine(self, monkeypatch):
        monkeypatch.setattr(arith, "SPLIT_BUDGET", 1)
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

    def test_undeletable_learnts_do_not_retrigger_reduction(self, monkeypatch):
        # The box's splits leave about a thousand learned clauses that
        # database reduction never deletes (binary ones and reasons).  A
        # reduction that deletes nothing waits for the next learned
        # clause; it does not re-sort the database at every decision.
        calls = []
        reduce_db = Solver._reduce_db

        def counting(self):
            calls.append(None)
            reduce_db(self)

        monkeypatch.setattr(Solver, "_reduce_db", counting)
        check = check_one(atoms_script(WIDE_BOX))
        assert check.metrics["sat.learned"] >= 500
        assert len(calls) <= check.metrics["sat.learned"] // 10

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


# ---------------------------------------------------------------------------
# Integer splits on demand: the clauses ArithTheory queues for the SAT core.
# ---------------------------------------------------------------------------


def record_splits(monkeypatch):
    """Spy on every split the arithmetic plugin queues: a list that fills
    with ``(check index, clause, constrained symbols)`` as scripts run,
    where the index counts the ``check-sat`` commands an engine has
    begun."""
    splits, checks = [], []
    check, check_sat = ArithTheory.check, Engine._check_sat

    def counting_check_sat(self):
        checks.append(None)
        return check_sat(self)

    def spying_check(self):
        queued = len(self._lemmas)
        conflict = check(self)
        constrained = {symbol for symbol, _ in self._constrained()}
        for lemma in self._lemmas[queued:]:
            splits.append((len(checks) - 1, lemma, constrained))
        return conflict

    monkeypatch.setattr(Engine, "_check_sat", counting_check_sat)
    monkeypatch.setattr(ArithTheory, "check", spying_check)
    return splits, checks


def test_split_lemmas_are_integer_tautologies(monkeypatch):
    """Every clause the plugin queues is ``(<= x k) ∨ (>= x k+1)`` over a
    constrained ``Int`` symbol with an integral ``k``, which every
    integer value of ``x`` satisfies; checked over the gauntlet's boxed
    QF_LIA scripts."""
    splits, _ = record_splits(monkeypatch)
    for seed in range(120):
        script, _ = generate_numeric(7919 * seed + 1, INT)
        (check,) = solve_script(script)
        assert check.answer in ("sat", "unsat"), (seed, check.reason)
    assert len(splits) >= 20, len(splits)
    for _, lemma, constrained in splits:
        ((below, below_positive), (above, above_positive)) = lemma.literals
        assert below_positive and above_positive and lemma.source == "arith"
        assert (below.op, above.op) == ("<=", ">=")
        (x, k), (x_again, k_next) = below.args, above.args
        assert x is x_again and isinstance(x, Symbol) and x.sort == INT
        assert x in constrained
        assert k.sort == INT and isinstance(k.value, int)
        assert k_next.value == k.value + 1
        for value in range(-BOX - 2, BOX + 3):
            bindings = {x.name: int_const(value)}
            assert TRUE in (evaluate(below, bindings), evaluate(above, bindings))


def pushpop_script(seed):
    """A check over ``x`` (declared in a pushed frame), ``y`` and ``z``,
    then a pop and a second check over ``y`` and ``z`` alone, from the
    gauntlet's random linear atoms.  The tableau keeps ``x``'s rows, so
    ``x`` may sit at a fractional value in the second check without any
    bound on it."""
    rng = Random(seed)
    x, y, z = (Symbol(name, INT) for name in "xyz")
    commands = [DeclareConst("y", INT), DeclareConst("z", INT)]
    commands += [Assert(_numeric_atom(rng, [y, z], INT)) for _ in range(rng.randint(0, 2))]
    commands += [Push(1), DeclareConst("x", INT)]
    commands += [Assert(_numeric_atom(rng, [x, y, z], INT)) for _ in range(rng.randint(2, 4))]
    commands += [CheckSat(), Pop(1)]
    commands += [Assert(_numeric_atom(rng, [y, z], INT)) for _ in range(rng.randint(1, 3))]
    commands += [CheckSat(), GetModel()]
    return Script(tuple(commands))


def test_popped_int_symbols_get_no_split_and_stay_out_of_models(monkeypatch):
    """Only symbols the current bounds constrain are split.  A popped
    ``x`` left fractional in the tableau gets no split in the second
    check, so its split atoms never bound it and it never reaches the
    second ``(get-model)``.  A small split budget keeps the scripts
    whose splits run away (unbounded symbols) short."""
    monkeypatch.setattr(arith, "SPLIT_BUDGET", 50)
    splits, checks = record_splits(monkeypatch)
    second_models = 0
    for seed in range(50):
        start = len(checks)
        result = run_script(pushpop_script(seed))
        second = result.check_results[1]
        popped = [
            lemma
            for index, lemma, _ in splits
            if index == start + 1 and lemma.literals[0][0].args[0].name == "x"
        ]
        assert not popped, (seed, popped)
        if second.model is not None:
            second_models += 1
            assert set(second.model) == {"y", "z"}, seed
            assert "(define-fun x " not in result.output[2], seed
    assert second_models >= 20, second_models
