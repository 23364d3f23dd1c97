"""Tests for eager bit-blasting: the QF_BV path.

Two layers of assurance:

* **Circuit-vs-oracle** — every circuit the blaster builds is checked
  exhaustively against :func:`repro.smtlib.evaluate.fold_apply` at small
  widths: for every input assignment the blaster's clauses go to a fresh
  :class:`~repro.sat.Solver`, which solves under the input bits as
  assumptions; the blasted atom's literal must come out ``true`` exactly
  on the operator's reference result, and its other value must be
  unsatisfiable.  This covers the adder, multiplier, restoring divider
  (including the SMT-LIB division-by-zero totality), barrel shifters,
  signed expansions, comparisons and the structural/indexed operators.
* **Engine cross-checks** — QF_BV scripts through the full stack:
  sat/unsat answers, certified proofs (blasted clauses are input clauses,
  so every unsat is RUP-checkable), model decoding by bit variable,
  incremental push/pop, and per-check metrics.
"""

import pytest

from repro import run_script, solve_script
from repro.proof import check_proof
from repro.sat import SAT, UNSAT, Solver
from repro.smtlib import (
    BOOL,
    INT,
    Apply,
    Symbol,
    TseitinEncoder,
    bitvec_const,
    bitvec_sort,
    fold_apply,
    int_const,
)
from repro.theory import BvBlaster

# ---------------------------------------------------------------------------
# Circuit-vs-oracle exhaustive checks.
# ---------------------------------------------------------------------------


def bv_sym(name: str, width: int) -> Symbol:
    return Symbol(name, bitvec_sort(width))


def lowered_atoms(encoder, blaster, term):
    """The theory atoms the encoder walk over ``term`` leaves after
    handing each of its atoms to ``blaster``."""
    return encoder.clausify(term, blaster.lower)[1]


def blast(atoms):
    """Lower ``atoms`` with a fresh blaster; returns (encoder, blaster)."""
    encoder = TseitinEncoder()
    blaster = BvBlaster(encoder)
    for atom in atoms:
        assert lowered_atoms(encoder, blaster, atom) == [], f"{atom} was not lowered"
    return encoder, blaster


def assert_circuit_matches(encoder, blaster, inputs, checks, context: str):
    """Solve the blaster's clauses under ``inputs`` (symbol → value) as
    bit assumptions; each ``(atom, expected)`` of ``checks`` must take its
    expected value in the model, and the other value must be unsat."""
    solver = Solver(encoder.formula.num_vars)
    solver.add_clauses(encoder.formula.clauses)
    assumptions = []
    for symbol, value in inputs.items():
        bits = blaster.symbol_bits(symbol)
        assert len(bits) == symbol.sort.width, f"{symbol} was not blasted"
        for position, bit in enumerate(bits):
            assumptions.append(bit if (value >> position) & 1 else -bit)
    assert solver.solve(assumptions=assumptions) == SAT, context
    model = solver.model
    for atom, expected in checks:
        lit = encoder.encode(atom)
        got = model[abs(lit)] == (lit > 0)
        assert got is expected, f"{context}: circuit={got}, oracle={expected}"
    for atom, expected in checks:
        lit = encoder.encode(atom)
        wrong = -lit if expected else lit
        assert solver.solve(assumptions=assumptions + [wrong]) == UNSAT, (
            f"{context}: {atom} is not forced by the inputs"
        )


WORD_OPS = [
    "bvadd",
    "bvsub",
    "bvmul",
    "bvand",
    "bvor",
    "bvxor",
    "bvudiv",
    "bvurem",
    "bvsdiv",
    "bvsrem",
    "bvsmod",
    "bvshl",
    "bvlshr",
    "bvashr",
]

CMP_OPS = ["bvult", "bvule", "bvugt", "bvuge", "bvslt", "bvsle", "bvsgt", "bvsge"]


@pytest.mark.parametrize("op", WORD_OPS)
@pytest.mark.parametrize("width", [1, 2, 3])
def test_binary_word_circuit_exhaustive(op, width):
    x, y = bv_sym("x", width), bv_sym("y", width)
    sort = bitvec_sort(width)
    term = Apply(op, (x, y), sort)
    probes = [
        Apply("=", (term, bitvec_const(probe, width)), BOOL)
        for probe in range(1 << width)
    ]
    encoder, blaster = blast(probes)
    for xv in range(1 << width):
        for yv in range(1 << width):
            oracle = fold_apply(
                op, (), (bitvec_const(xv, width), bitvec_const(yv, width)), sort
            )
            assert oracle is not None, f"oracle cannot fold {op}"
            expected = oracle.value
            assert_circuit_matches(
                encoder,
                blaster,
                {x: xv, y: yv},
                [(atom, probe == expected) for probe, atom in enumerate(probes)],
                f"{op} width={width} x={xv} y={yv}",
            )


@pytest.mark.parametrize("op", CMP_OPS)
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_comparison_circuit_exhaustive(op, width):
    x, y = bv_sym("x", width), bv_sym("y", width)
    atom = Apply(op, (x, y), BOOL)
    encoder, blaster = blast([atom])
    for xv in range(1 << width):
        for yv in range(1 << width):
            oracle = fold_apply(
                op, (), (bitvec_const(xv, width), bitvec_const(yv, width)), BOOL
            )
            assert_circuit_matches(
                encoder,
                blaster,
                {x: xv, y: yv},
                [(atom, oracle.value)],
                f"{op} width={width} x={xv} y={yv}",
            )


@pytest.mark.parametrize("op", ["bvnot", "bvneg"])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_unary_circuit_exhaustive(op, width):
    x = bv_sym("x", width)
    sort = bitvec_sort(width)
    term = Apply(op, (x,), sort)
    probes = [
        Apply("=", (term, bitvec_const(probe, width)), BOOL)
        for probe in range(1 << width)
    ]
    encoder, blaster = blast(probes)
    for xv in range(1 << width):
        expected = fold_apply(op, (), (bitvec_const(xv, width),), sort).value
        assert_circuit_matches(
            encoder,
            blaster,
            {x: xv},
            [(atom, probe == expected) for probe, atom in enumerate(probes)],
            f"{op} x={xv}",
        )


INDEXED_CASES = [
    ("extract", (2, 1), 4, 2),
    ("extract", (3, 0), 4, 4),
    ("zero_extend", (2,), 3, 5),
    ("sign_extend", (2,), 3, 5),
    ("rotate_left", (1,), 4, 4),
    ("rotate_right", (3,), 4, 4),
    ("repeat", (2,), 3, 6),
]


@pytest.mark.parametrize(
    "op,indices,width,out_width", INDEXED_CASES, ids=lambda v: str(v)
)
def test_indexed_circuit_exhaustive(op, indices, width, out_width):
    x = bv_sym("x", width)
    sort = bitvec_sort(out_width)
    term = Apply(op, (x,), sort, indices=tuple(indices))
    probes = [
        Apply("=", (term, bitvec_const(probe, out_width)), BOOL)
        for probe in range(1 << out_width)
    ]
    encoder, blaster = blast(probes)
    for xv in range(1 << width):
        expected = fold_apply(
            op, tuple(indices), (bitvec_const(xv, width),), sort
        ).value
        assert_circuit_matches(
            encoder,
            blaster,
            {x: xv},
            [(atom, probe == expected) for probe, atom in enumerate(probes)],
            f"{op}{indices} x={xv}",
        )


def test_concat_circuit_exhaustive():
    x, y = bv_sym("x", 2), bv_sym("y", 3)
    sort = bitvec_sort(5)
    term = Apply("concat", (x, y), sort)
    probes = [Apply("=", (term, bitvec_const(probe, 5)), BOOL) for probe in range(32)]
    encoder, blaster = blast(probes)
    for xv in range(4):
        for yv in range(8):
            expected = (xv << 3) | yv
            assert_circuit_matches(
                encoder,
                blaster,
                {x: xv, y: yv},
                [(atom, probe == expected) for probe, atom in enumerate(probes)],
                f"concat {xv} {yv}",
            )


def test_ite_condition_is_rewritten():
    """The condition of a bit-vector ``ite`` is itself a BV atom and must
    be lowered along with the branches."""
    x, y = bv_sym("x", 2), bv_sym("y", 2)
    sort = bitvec_sort(2)
    cond = Apply("bvult", (x, y), BOOL)
    term = Apply("ite", (cond, x, y), sort)  # min(x, y)
    atoms = {
        value: Apply("=", (term, bitvec_const(value, 2)), BOOL) for value in range(4)
    }
    encoder, blaster = blast(atoms.values())
    for xv in range(4):
        for yv in range(4):
            assert_circuit_matches(
                encoder,
                blaster,
                {x: xv, y: yv},
                [(atoms[min(xv, yv)], True)],
                f"ite-min {xv} {yv}",
            )


def test_nary_equality_chains():
    x, y, z = bv_sym("x", 2), bv_sym("y", 2), bv_sym("z", 2)
    atom = Apply("=", (x, y, z), BOOL)
    encoder, blaster = blast([atom])
    for xv in range(4):
        for yv in range(4):
            for zv in range(4):
                assert_circuit_matches(
                    encoder,
                    blaster,
                    {x: xv, y: yv, z: zv},
                    [(atom, xv == yv == zv)],
                    f"= {xv} {yv} {zv}",
                )


def test_unsupported_leaves_stay_abstracted():
    """Atoms over non-symbol BV leaves are not lowered (sound fallback)."""
    encoder = TseitinEncoder()
    blaster = BvBlaster(encoder)
    w = bitvec_sort(4)
    ux = Apply("f", (bv_sym("x", 4),), w)  # uninterpreted application
    atom = Apply("=", (ux, bitvec_const(0, 4)), BOOL)
    assert lowered_atoms(encoder, blaster, atom) == [atom]
    # Not bound to a circuit: the atom has a plain variable of its own.
    assert encoder.literals[atom] == encoder.formula.atom_vars[atom]
    assert blaster.stats["atoms_skipped"] == 1
    assert blaster.stats["gates"] == 0


def test_atoms_skipped_counts_only_bitvector_atoms():
    """An atom whose arguments are not bit-vectors is not a skipped
    bit-vector atom, whatever bit-vector terms sit below its arguments."""
    encoder = TseitinEncoder()
    blaster = BvBlaster(encoder)
    size = Apply("g", (bv_sym("x", 4),), INT)  # uninterpreted BV → Int
    atom = Apply("<", (size, int_const(3)), BOOL)
    assert lowered_atoms(encoder, blaster, atom) == [atom]
    assert blaster.stats["atoms_skipped"] == 0


def test_decode_reads_back_words():
    x = bv_sym("x", 3)
    wide_x = bv_sym("x", 5)  # same name, another sort: another word
    encoder, blaster = blast(
        [
            Apply("=", (x, bitvec_const(5, 3)), BOOL),
            Apply("=", (wide_x, bitvec_const(17, 5)), BOOL),
        ]
    )
    assert set(blaster.symbol_bits(x)).isdisjoint(blaster.symbol_bits(wide_x))
    solver = Solver(encoder.formula.num_vars)
    solver.add_clauses(encoder.formula.clauses)
    lits = [encoder.encode(atom) for atom in encoder.literals]
    assert solver.solve(assumptions=lits) == SAT
    assert blaster.decode(solver.model, [x]) == {"x": bitvec_const(5, 3)}
    assert blaster.decode(solver.model, [wide_x]) == {"x": bitvec_const(17, 5)}
    # A symbol that was never blasted has no word to decode.
    assert blaster.decode(solver.model, [bv_sym("y", 3)]) == {}


def test_structural_hashing_shares_commuted_adders():
    """``(bvadd x y)`` and ``(bvadd y x)`` build the adder's gates once."""
    x, y, z = bv_sym("x", 8), bv_sym("y", 8), bv_sym("z", 8)
    sort = bitvec_sort(8)
    encoder = TseitinEncoder()
    blaster = BvBlaster(encoder)
    first = Apply("=", (Apply("bvadd", (x, y), sort), z), BOOL)
    second = Apply("=", (Apply("bvadd", (y, x), sort), z), BOOL)
    lowered_atoms(encoder, blaster, first)
    gates, clauses = blaster.stats["gates"], len(encoder.formula.clauses)
    assert gates > 0
    lowered_atoms(encoder, blaster, second)
    assert blaster.stats["atoms_blasted"] == 2
    assert blaster.stats["gates"] == gates
    assert len(encoder.formula.clauses) == clauses
    assert encoder.encode(first) == encoder.encode(second)


def test_atom_under_both_polarities_ships_its_circuit_once():
    """An atom under an ``xor`` occurs in both polarities; it is one
    literal, so its circuit is built and shipped once."""
    head = (
        "(declare-const x (_ BitVec 4))(declare-const y (_ BitVec 4))"
        "(declare-const p Bool)(declare-const q Bool)"
        "(assert (xor p (bvult (bvmul x y) #x5)))"
    )
    one = solve_script(head + "(check-sat)")[0].metrics
    both = solve_script(
        head + "(assert (not (xor q (bvult (bvmul x y) #x5))))(check-sat)"
    )[0].metrics
    assert both["theory.bv.atoms_blasted"] == one["theory.bv.atoms_blasted"] == 1
    assert both["theory.bv.gates"] == one["theory.bv.gates"] > 0
    # The second assertion adds only its skeleton: one xor gate (4
    # clauses) and its root unit.
    assert both["engine.clauses_shipped"] == one["engine.clauses_shipped"] + 5


# ---------------------------------------------------------------------------
# Engine cross-checks.
# ---------------------------------------------------------------------------


def answers(script, **kw):
    return [check.answer for check in solve_script(script, **kw)]


class TestEngine:
    def test_sat_with_decoded_model(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 8))"
            "(declare-const y (_ BitVec 8))"
            "(assert (= (bvadd x y) #x2a))"
            "(assert (bvult x y))"
            "(check-sat)"
        )
        assert checks[0].answer == "sat"
        model = checks[0].model
        xv, yv = model["x"].value, model["y"].value
        assert (xv + yv) % 256 == 0x2A
        assert xv < yv
        assert set(model) == {"x", "y"}  # words only, no bit variables

    def test_unsat_is_certified(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 6))"
            "(assert (bvult x #b000000))"
            "(check-sat)",
            produce_proofs=True,
        )
        assert checks[0].answer == "unsat"
        assert checks[0].proof is not None
        assert check_proof(checks[0].proof).ok

    def test_adder_commutes_certified(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 5))"
            "(declare-const y (_ BitVec 5))"
            "(assert (not (= (bvadd x y) (bvadd y x))))"
            "(check-sat)",
            produce_proofs=True,
        )
        assert checks[0].answer == "unsat"
        assert check_proof(checks[0].proof).ok

    def test_mul_distributes_certified(self):
        checks = solve_script(
            "(declare-const a (_ BitVec 4))"
            "(declare-const b (_ BitVec 4))"
            "(declare-const c (_ BitVec 4))"
            "(assert (not (= (bvmul a (bvadd b c))"
            "                (bvadd (bvmul a b) (bvmul a c)))))"
            "(check-sat)",
            produce_proofs=True,
        )
        assert checks[0].answer == "unsat"
        assert check_proof(checks[0].proof).ok

    def test_division_by_zero_totality(self):
        assert answers(
            "(declare-const x (_ BitVec 4))"
            "(assert (not (= (bvudiv x #x0) #xf)))"
            "(check-sat)"
        ) == ["unsat"]
        assert answers(
            "(declare-const x (_ BitVec 4))"
            "(assert (not (= (bvurem x #x0) x)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_incremental_push_pop(self):
        assert answers(
            "(declare-const x (_ BitVec 4))"
            "(assert (bvule #x3 x))"
            "(check-sat)"
            "(push 1)"
            "(assert (bvult x #x2))"
            "(check-sat)"
            "(pop 1)"
            "(check-sat)"
        ) == ["sat", "unsat", "sat"]

    def test_incremental_reencode_is_free(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 8))"
            "(assert (= (bvmul x x) #x40))"
            "(check-sat)"
            "(push 1)(check-sat)(pop 1)"
            "(check-sat)"
        )
        assert [c.answer for c in checks] == ["sat"] * 3
        # The blaster memo survives push/pop: later checks re-blast nothing.
        assert checks[1].metrics["theory.bv.atoms_blasted"] == 0
        assert checks[2].metrics["theory.bv.atoms_blasted"] == 0

    def test_metrics_exposed_per_check(self):
        checks = solve_script(
            "(declare-const x (_ BitVec 4))"
            "(assert (bvult x #x5))"
            "(check-sat)"
        )
        metrics = checks[0].metrics
        assert metrics["theory.bv.atoms_blasted"] >= 1
        assert metrics["theory.bv.symbols"] == 1
        assert metrics["theory.bv.bits"] == 4

    # Two 1-bit words that must differ take both values of their sort, so
    # the don't-cares below can only repeat one of them.
    DISTINCT_BITS = (
        "(declare-const x (_ BitVec 1))(declare-const y (_ BitVec 1))"
        "(assert (distinct x y))"
    )

    def test_unconstrained_function_repeats_a_value(self):
        assert answers(
            self.DISTINCT_BITS
            + "(declare-fun g (Int) (_ BitVec 1))(check-sat)"
        ) == ["sat"]

    def test_trivially_constrained_constant_repeats_a_value(self):
        assert answers(
            self.DISTINCT_BITS
            + "(declare-const z (_ BitVec 1))(assert (= z z))(check-sat)"
        ) == ["sat"]

    def test_trivially_applied_function_repeats_a_value(self):
        assert answers(
            self.DISTINCT_BITS
            + "(declare-fun f ((_ BitVec 1)) (_ BitVec 1))"
            "(assert (= (f x) (f x)))(check-sat)"
        ) == ["sat"]

    def test_get_model_values_unused_constant(self):
        result = run_script(
            self.DISTINCT_BITS
            + "(declare-const z (_ BitVec 1))(check-sat)(get-model)"
        )
        assert result.output[0] == "sat"
        assert "(define-fun z () (_ BitVec 1) #b" in result.output[1]

    def test_mixed_bool_structure(self):
        assert answers(
            "(declare-const x (_ BitVec 3))"
            "(declare-const p Bool)"
            "(assert (or p (bvuge x #b101)))"
            "(assert (not p))"
            "(assert (bvult x #b110))"
            "(check-sat)"
        ) == ["sat"]

    def test_get_value_over_bv_terms(self):
        from repro import run_script

        result = run_script(
            "(declare-const x (_ BitVec 4))"
            "(assert (= x #x9))"
            "(check-sat)"
            "(get-value (x (bvadd x #x1)))"
        )
        printed = " ".join(result.output)
        assert "#x9" in printed
        assert "#xa" in printed

    def test_signed_comparison_engine(self):
        # #b100 is -4 signed: smaller than every non-negative value.
        assert answers(
            "(declare-const x (_ BitVec 3))"
            "(assert (bvslt x #b000))"
            "(assert (bvuge x #b100))"
            "(check-sat)"
        ) == ["sat"]

    def test_wide_width_stays_abstracted_but_sound(self):
        # 300 bits exceeds MAX_BLAST_WIDTH: the atom is not blasted, the
        # answer degrades to unknown instead of guessing.
        checks = solve_script(
            "(declare-const x (_ BitVec 300))"
            "(assert (= x x))"
            "(check-sat)"
        )
        assert checks[0].answer in ("sat", "unknown")

    @pytest.mark.parametrize("polarity", ["(not x!bv!0)", "x!bv!0"])
    def test_bit_named_symbol_is_its_own_variable(self, polarity):
        # ``x!bv!0`` is a legal simple symbol; it must not alias bit 0 of
        # the bit-vector ``x`` (both polarities are satisfiable).
        checks = solve_script(
            "(declare-const x!bv!0 Bool)"
            "(declare-const x (_ BitVec 1))"
            "(assert (= x #b1))"
            f"(assert {polarity})"
            "(check-sat)"
        )
        assert [c.answer for c in checks] == ["sat"]
        assert checks[0].model["x"] == bitvec_const(1, 1)

    def test_redeclared_width_after_pop(self):
        result = run_script(
            "(push 1)"
            "(declare-const x (_ BitVec 4))"
            "(assert (= x #x3))"
            "(check-sat)"
            "(pop 1)"
            "(declare-const x (_ BitVec 8))"
            "(assert (= x #x13))"
            "(check-sat)"
            "(get-value (x))"
        )
        assert result.output == ["sat", "sat", "((x #x13))"]

    @pytest.mark.parametrize("width", [4, 1])
    def test_lowered_index_equality_in_array_lemmas(self, width):
        # The array lemmas mention (= i j), which is lowered to a circuit
        # literal (a negated xor at width 1); they must reuse it.
        sort = f"(_ BitVec {width})"
        checks = solve_script(
            f"(declare-const a (Array {sort} Int))"
            f"(declare-const i {sort})"
            f"(declare-const j {sort})"
            "(assert (= (select (store a i 5) j) 7))"
            "(assert (= i j))"
            "(check-sat)",
            produce_proofs=True,
        )
        assert [c.answer for c in checks] == ["unsat"]
        assert check_proof(checks[0].proof).ok

    def test_unlowered_index_equality_in_array_lemmas(self):
        # No assertion mentions (= i j), so the array lemma introduces it
        # mid-search: it gets a plain variable, not a circuit whose gate
        # clauses a lemma could not carry.
        assert answers(
            "(declare-const a (Array (_ BitVec 4) Int))"
            "(declare-const i (_ BitVec 4))"
            "(declare-const j (_ BitVec 4))"
            "(assert (= (select (store a i 5) j) 7))"
            "(assert (bvult i #x3))"
            "(check-sat)"
        ) == ["sat"]

    def test_ite_condition_atoms_reach_theories(self):
        # Non-BV atoms inside a BV ite condition still reach theory
        # dispatch and the model.
        result = run_script(
            "(declare-fun p (Int) Bool)"
            "(declare-const k Int)"
            "(declare-const x (_ BitVec 4))"
            "(assert (= (ite (p k) x #x0) #x3))"
            "(check-sat)"
            "(get-value (x (p k)))"
        )
        assert result.output == ["sat", "((x #x3) ((p k) true))"]
        assert answers(
            "(declare-const k Int)"
            "(declare-const x (_ BitVec 4))"
            "(assert (= (ite (> k 2) x #x0) #x3))"
            "(assert (< k 2))"
            "(check-sat)"
        ) == ["unsat"]
        assert answers(
            "(declare-const q Bool)"
            "(declare-const x (_ BitVec 4))"
            "(assert (= (ite q x #x0) #x3))"
            "(assert (not q))"
            "(check-sat)"
        ) == ["unsat"]

    def test_undeclared_symbols_of_an_api_script_decode(self):
        # A Script built through the API may skip declarations; its free
        # bit-vector symbols still get their words in the model.
        from repro import Engine
        from repro.smtlib import Assert, CheckSat, Script

        x, y = bv_sym("x", 6), bv_sym("y", 6)
        product = Apply("bvmul", (x, y), bitvec_sort(6))
        script = Script(
            (
                Assert(Apply("=", (product, bitvec_const(35, 6)), BOOL)),
                Assert(Apply("bvult", (bitvec_const(1, 6), x), BOOL)),
                Assert(Apply("bvult", (bitvec_const(1, 6), y), BOOL)),
                CheckSat(),
            )
        )
        (check,) = Engine().run(script).check_results
        assert check.answer == "sat"
        xv, yv = check.model["x"].value, check.model["y"].value
        assert (xv * yv) % 64 == 35 and xv > 1 and yv > 1

    def test_true_literal_only_when_a_circuit_folds(self):
        # A script without folded circuits allocates no constant-true
        # variable: one variable for the one atom.
        checks = solve_script(
            "(declare-const k Int)(assert (> k 2))(check-sat)"
        )
        assert checks[0].metrics["engine.vars"] == 1
        assert checks[0].metrics["engine.clauses_shipped"] == 1
