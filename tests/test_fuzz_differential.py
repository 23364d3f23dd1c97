"""Differential fuzzing gauntlet: engine vs brute-force oracles.

A seeded generator produces random scripts in five fragments —
QF_LIA, QF_LRA, QF_UF, QF_BV and QF_AX — whose variables are *boxed*
(explicit ranges, narrow widths or small finite universes), so a
brute-force oracle is exact or soundly one-sided:

* **QF_LIA** — three Int variables in ``[-B, B]``: exhaustive
  enumeration of all ``(2B+1)³`` assignments decides the script, and
  the engine's verdict must match exactly, both directions.
* **QF_LRA** — two Real variables in ``[-B, B]``: a quarter-step grid
  under-approximates satisfiability, so a grid model refutes an
  ``unsat`` verdict; every ``sat`` verdict is checked by re-evaluating
  the engine's own model externally.
* **QF_UF** — two constants and a unary function with ground terms
  ``{a, b, f(a), f(b)}``: the finite-model property bounds satisfying
  domains by the number of ground terms (4), so enumerating all
  assignments and function tables over domains of size 1..4 is an
  exact oracle.
* **QF_BV** — two width-3 variables under random operator/comparison
  trees: all 64 assignments are enumerated through
  :func:`~repro.smtlib.evaluate.fold_apply`, giving an exact oracle
  that is independent of the bit-blasted circuits it cross-checks.
* **QF_AX** — arrays over uninterpreted index/value sorts with store
  chains, selects and extensional equalities: a custom evaluator over
  explicit finite models (arrays as total tuples, so extensional
  equality is tuple equality) enumerates universes up to 3×3.  A hit
  refutes an ``unsat`` verdict; every ``sat`` verdict is checked
  against the engine's own model by the array-aware evaluator.

Every case additionally round-trips through the printer —
``parse(print(script))`` must re-solve to the same verdict — and every
``sat`` answer must come with a model that the (engine-independent)
evaluator accepts on every assertion.

Certification rides on every run: the engine solves with proof
production on, and **every** ``unsat`` verdict — eager, lazy, and the
incremental push/pop replays below — must carry a clause proof the
independent RUP/DRAT checker accepts.  A bounded seed subset re-runs
each fragment lazily (theory checks only at full assignments) and as an
incremental replay (the last assertion split into a pushed frame,
popped, and re-pushed), cross-checking the verdicts against the eager
whole-script run.

The sample is a fixed, deterministic 300 cases (seeded per-case), so CI
runs the same gauntlet every time; crank ``CASES`` up locally to hunt.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from repro import run_script, solve_script
from repro.engine import Engine
from repro.proof import check_proof
from repro.smtlib import parse_script, script_to_smtlib
from repro.smtlib.evaluate import FunctionInterpretation, evaluate
from repro.smtlib.script import (
    Assert,
    CheckSat,
    DeclareConst,
    DeclareFun,
    DeclareSort,
    Pop,
    Push,
    Script,
    SetLogic,
)
from repro.smtlib.sorts import (
    BOOL,
    INT,
    REAL,
    array_sort,
    bitvec_sort,
    uninterpreted_sort,
)
from repro.smtlib.terms import (
    FALSE,
    TRUE,
    Apply,
    Constant,
    Symbol,
    Term,
    bitvec_const,
    int_const,
    qualified_constant,
)

#: Per-fragment deterministic case counts: 120+100+80+60+40 = 400 in CI.
CASES = {"lia": 120, "lra": 100, "uf": 80, "bv": 60, "ax": 40}

#: Bounded seed subsets for the lazy and incremental certification
#: replays (each replay solves the script several times over).
REPLAYS = {"lia": 30, "lra": 15, "uf": 20, "bv": 15, "ax": 10}

#: Box half-width for the numeric fragments.
BOX = 4

#: Bit width for the QF_BV fragment (8 values per variable: exhaustive).
BV_WIDTH = 3

U = uninterpreted_sort("U")
IDX = uninterpreted_sort("X")
VAL = uninterpreted_sort("V")


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------


def real_const(value) -> Constant:
    return Constant(Fraction(value), REAL)


def _numeric_atom(rng: Random, variables: list[Symbol], sort) -> Term:
    """A random linear atom  Σ cᵢxᵢ ▷ k  over the given variables."""
    const = int_const if sort == INT else real_const
    chosen = rng.sample(variables, rng.randint(1, len(variables)))
    parts: list[Term] = []
    for symbol in chosen:
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        if coeff == 1:
            parts.append(symbol)
        else:
            parts.append(Apply("*", (const(coeff), symbol), sort))
    lhs: Term = parts[0] if len(parts) == 1 else Apply("+", tuple(parts), sort)
    rhs: Term = const(rng.randint(-6, 6))
    op = rng.choice(["<", "<=", ">", ">=", "=", "distinct"])
    return Apply(op, (lhs, rhs), BOOL)


def _uf_atom(rng: Random, terms: list[Term]) -> Term:
    lhs, rhs = rng.choice(terms), rng.choice(terms)
    return Apply("=", (lhs, rhs), BOOL)


def _formula(rng: Random, depth: int, make_atom) -> Term:
    if depth <= 0 or rng.random() < 0.35:
        return make_atom()
    op = rng.choice(["and", "or", "not", "=>", "ite", "xor"])
    if op == "not":
        return Apply("not", (_formula(rng, depth - 1, make_atom),), BOOL)
    if op == "ite":
        args = tuple(_formula(rng, depth - 1, make_atom) for _ in range(3))
        return Apply("ite", args, BOOL)
    width = rng.randint(2, 3)
    args = tuple(_formula(rng, depth - 1, make_atom) for _ in range(width))
    return Apply(op, args, BOOL)


def generate_numeric(seed: int, sort) -> tuple[Script, list[Symbol]]:
    rng = Random(seed)
    names = ["x", "y", "z"] if sort == INT else ["u", "v"]
    variables = [Symbol(name, sort) for name in names]
    const = int_const if sort == INT else real_const
    commands: list = [SetLogic("QF_LIA" if sort == INT else "QF_LRA")]
    for symbol in variables:
        commands.append(DeclareConst(symbol.name, sort))
        commands.append(Assert(Apply("<=", (const(-BOX), symbol), BOOL)))
        commands.append(Assert(Apply("<=", (symbol, const(BOX)), BOOL)))
    for _ in range(rng.randint(1, 3)):
        commands.append(
            Assert(_formula(rng, 3, lambda: _numeric_atom(rng, variables, sort)))
        )
    commands.append(CheckSat())
    return Script(tuple(commands)), variables


_BV_BINARY = [
    "bvadd",
    "bvsub",
    "bvmul",
    "bvand",
    "bvor",
    "bvxor",
    "bvudiv",
    "bvurem",
    "bvshl",
    "bvlshr",
    "bvashr",
]
_BV_CMP = [
    "=",
    "bvult",
    "bvule",
    "bvugt",
    "bvuge",
    "bvslt",
    "bvsle",
    "bvsgt",
    "bvsge",
]


def _bv_term(rng: Random, variables: list[Symbol], depth: int) -> Term:
    sort = bitvec_sort(BV_WIDTH)
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return bitvec_const(rng.randrange(1 << BV_WIDTH), BV_WIDTH)
        return rng.choice(variables)
    op = rng.choice(_BV_BINARY + ["bvnot", "bvneg"])
    if op in ("bvnot", "bvneg"):
        return Apply(op, (_bv_term(rng, variables, depth - 1),), sort)
    args = (
        _bv_term(rng, variables, depth - 1),
        _bv_term(rng, variables, depth - 1),
    )
    return Apply(op, args, sort)


def _bv_atom(rng: Random, variables: list[Symbol]) -> Term:
    lhs = _bv_term(rng, variables, 2)
    rhs = _bv_term(rng, variables, 2)
    return Apply(rng.choice(_BV_CMP), (lhs, rhs), BOOL)


def generate_bv(seed: int) -> tuple[Script, list[Symbol]]:
    rng = Random(seed)
    sort = bitvec_sort(BV_WIDTH)
    variables = [Symbol("x", sort), Symbol("y", sort)]
    commands: list = [SetLogic("QF_BV")]
    for symbol in variables:
        commands.append(DeclareConst(symbol.name, sort))
    for _ in range(rng.randint(1, 3)):
        commands.append(
            Assert(_formula(rng, 2, lambda: _bv_atom(rng, variables)))
        )
    commands.append(CheckSat())
    return Script(tuple(commands)), variables


def _ax_index(rng: Random) -> Term:
    return Symbol(rng.choice(["i", "j"]), IDX)


def _ax_array(rng: Random, depth: int) -> Term:
    base: Term = Symbol(rng.choice(["a", "b"]), array_sort(IDX, VAL))
    if depth <= 0 or rng.random() < 0.4:
        return base
    return Apply(
        "store",
        (_ax_array(rng, depth - 1), _ax_index(rng), _ax_value(rng, depth - 1)),
        base.sort,
    )


def _ax_value(rng: Random, depth: int) -> Term:
    if depth <= 0 or rng.random() < 0.5:
        return Symbol(rng.choice(["v", "w"]), VAL)
    return Apply("select", (_ax_array(rng, depth - 1), _ax_index(rng)), VAL)


def _ax_atom(rng: Random) -> Term:
    kind = rng.random()
    if kind < 0.45:  # read equality
        read = Apply("select", (_ax_array(rng, 2), _ax_index(rng)), VAL)
        return Apply("=", (read, _ax_value(rng, 1)), BOOL)
    if kind < 0.75:  # extensional array equality
        return Apply("=", (_ax_array(rng, 2), _ax_array(rng, 1)), BOOL)
    if kind < 0.9:  # index equality
        return Apply("=", (Symbol("i", IDX), Symbol("j", IDX)), BOOL)
    return Apply("=", (Symbol("v", VAL), Symbol("w", VAL)), BOOL)


def generate_ax(seed: int) -> Script:
    rng = Random(seed)
    commands: list = [
        SetLogic("QF_AX"),
        DeclareSort("X", 0),
        DeclareSort("V", 0),
        DeclareConst("a", array_sort(IDX, VAL)),
        DeclareConst("b", array_sort(IDX, VAL)),
        DeclareConst("i", IDX),
        DeclareConst("j", IDX),
        DeclareConst("v", VAL),
        DeclareConst("w", VAL),
    ]
    for _ in range(rng.randint(2, 4)):
        commands.append(Assert(_formula(rng, 2, lambda: _ax_atom(rng))))
    commands.append(CheckSat())
    return Script(tuple(commands))


def generate_uf(seed: int) -> tuple[Script, list[Term]]:
    rng = Random(seed)
    a, b = Symbol("a", U), Symbol("b", U)
    terms: list[Term] = [a, b, Apply("f", (a,), U), Apply("f", (b,), U)]
    commands: list = [
        SetLogic("QF_UF"),
        DeclareSort("U", 0),
        DeclareConst("a", U),
        DeclareConst("b", U),
        DeclareFun("f", (U,), U),
    ]
    for _ in range(rng.randint(2, 5)):
        commands.append(Assert(_formula(rng, 2, lambda: _uf_atom(rng, terms))))
    commands.append(CheckSat())
    return Script(tuple(commands)), terms


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def _holds(assertions, bindings, funs=None) -> bool:
    for term in assertions:
        if evaluate(term, bindings, funs) is not TRUE:
            return False
    return True


def oracle_lia(script: Script, variables: list[Symbol]) -> bool:
    """Exact satisfiability by exhausting the (boxed) integer space."""
    assertions = script.assertions()
    names = [symbol.name for symbol in variables]
    for point in product(range(-BOX, BOX + 1), repeat=len(names)):
        bindings = {name: int_const(value) for name, value in zip(names, point)}
        if _holds(assertions, bindings):
            return True
    return False


def oracle_lra_grid(script: Script, variables: list[Symbol]) -> bool:
    """Satisfiability *under-approximation*: a quarter-step grid.  A hit
    proves sat; a miss proves nothing (vertices can be off-grid)."""
    assertions = script.assertions()
    names = [symbol.name for symbol in variables]
    steps = [Fraction(k, 4) for k in range(-4 * BOX, 4 * BOX + 1)]
    for point in product(steps, repeat=len(names)):
        bindings = {
            name: Constant(value, REAL) for name, value in zip(names, point)
        }
        if _holds(assertions, bindings):
            return True
    return False


def oracle_bv(script: Script, variables: list[Symbol]) -> bool:
    """Exact satisfiability by exhausting the (narrow) bit-vector space,
    evaluated through ``fold_apply`` — independent of the blasted circuits."""
    assertions = script.assertions()
    names = [symbol.name for symbol in variables]
    for point in product(range(1 << BV_WIDTH), repeat=len(names)):
        bindings = {
            name: bitvec_const(value, BV_WIDTH)
            for name, value in zip(names, point)
        }
        if _holds(assertions, bindings):
            return True
    return False


def _ax_eval(term: Term, env: dict):
    """Evaluate a QF_AX term in an explicit finite model.

    Indices and values are small ints; an array is a total tuple over the
    index universe, so ``=`` over arrays is tuple equality — extensional
    by construction.  Independent of the engine *and* of the production
    evaluator's :class:`~repro.smtlib.evaluate.ArrayValue` semantics."""
    if isinstance(term, Symbol):
        return env[term.name]
    if term is TRUE:
        return True
    if term is FALSE:
        return False
    assert isinstance(term, Apply), f"unexpected node {term!r}"
    op = term.op
    if op == "select":
        array = _ax_eval(term.args[0], env)
        return array[_ax_eval(term.args[1], env)]
    if op == "store":
        array = list(_ax_eval(term.args[0], env))
        array[_ax_eval(term.args[1], env)] = _ax_eval(term.args[2], env)
        return tuple(array)
    values = [_ax_eval(arg, env) for arg in term.args]
    if op == "=":
        return all(value == values[0] for value in values[1:])
    if op == "not":
        return not values[0]
    if op == "and":
        return all(values)
    if op == "or":
        return any(values)
    if op == "xor":
        parity = False
        for value in values:
            parity ^= bool(value)
        return parity
    if op == "=>":
        result = bool(values[-1])
        for value in reversed(values[:-1]):
            result = (not value) or result
        return result
    if op == "ite":
        return values[1] if values[0] else values[2]
    raise AssertionError(f"oracle cannot evaluate {op!r}")


def oracle_ax(script: Script) -> bool:
    """Satisfiability *under-approximation* for QF_AX: explicit models
    over index/value universes up to size 3.  A hit is a genuine model
    (the semantics are exact), so it soundly refutes ``unsat``."""
    assertions = script.assertions()
    for index_size in (1, 2, 3):
        for value_size in (1, 2, 3):
            arrays = list(product(range(value_size), repeat=index_size))
            for i_val, j_val in product(range(index_size), repeat=2):
                for v_val, w_val in product(range(value_size), repeat=2):
                    for a_val, b_val in product(arrays, repeat=2):
                        env = {
                            "a": a_val,
                            "b": b_val,
                            "i": i_val,
                            "j": j_val,
                            "v": v_val,
                            "w": w_val,
                        }
                        if all(_ax_eval(t, env) for t in assertions):
                            return True
    return False


def oracle_uf(script: Script, ground_terms: list[Term]) -> bool:
    """Exact satisfiability via the finite-model property: enumerate all
    models over domains of size 1..len(ground_terms)."""
    assertions = script.assertions()
    limit = len(ground_terms)
    for size in range(1, limit + 1):
        universe = [qualified_constant(f"@U!{i}", U) for i in range(size)]
        for a_value, b_value in product(universe, repeat=2):
            bindings = {"a": a_value, "b": b_value}
            for table in product(universe, repeat=size):
                funs = {
                    "f": FunctionInterpretation(
                        {(element,): image for element, image in zip(universe, table)},
                        universe[0],
                    )
                }
                if _holds(assertions, bindings, funs):
                    return True
    return False


# ---------------------------------------------------------------------------
# The differential harness.
# ---------------------------------------------------------------------------


def assert_certified(check) -> None:
    """Every unsat verdict must carry a checker-accepted clause proof."""
    assert check.proof is not None, "unsat answer must carry a proof"
    verdict = check_proof(check.proof)
    assert verdict.ok, f"proof rejected: {verdict.error}"


def engine_verdict(script: Script) -> tuple[str, object]:
    results = solve_script(script, produce_proofs=True)
    assert len(results) == 1
    if results[0].answer == "unsat":
        assert_certified(results[0])
    return results[0].answer, results[0]


def lazy_verdict(script: Script) -> str:
    """Solve with the theory hook only at full assignments; certify.
    One sync batch then spans several decision levels, so a backjump
    cuts a batch in the middle and the hook re-asserts the literals of
    the cut batch still on the trail (eager batches follow the levels)."""
    engine = Engine(theory_eager=False, produce_proofs=True)
    (check,) = engine.run(script).check_results
    if check.answer == "unsat":
        assert_certified(check)
    return check.answer


def incremental_replay_verdicts(script: Script) -> list[str]:
    """Replay the script with its last assertion in a pushed frame:
    check, pop (re-check the relaxed prefix), re-push and check again.
    Certifies every unsat along the way; returns the three answers."""
    commands = [c for c in script.commands if not isinstance(c, CheckSat)]
    last = max(i for i, c in enumerate(commands) if isinstance(c, Assert))
    replay = (
        commands[:last]
        + [Push(), commands[last], CheckSat()]
        + [Pop(), CheckSat()]
        + [Push(), commands[last], CheckSat()]
    )
    result = run_script(Script(tuple(replay)), produce_proofs=True)
    for check in result.check_results:
        if check.answer == "unsat":
            assert_certified(check)
    return result.answers


def assert_model_validates(result, script: Script) -> None:
    assert result.model is not None, "sat answer must carry a model"
    for term in (*script.assertions(), *result.assertions):
        value = evaluate(term, result.model, result.fun_interps)
        assert value is TRUE, f"model fails assertion {term}"


def assert_roundtrip_agrees(script: Script, answer: str) -> None:
    reparsed = parse_script(script_to_smtlib(script))
    again, _ = engine_verdict(reparsed)
    assert again == answer, f"parse(print(s)) re-solve flipped {answer} -> {again}"


@pytest.mark.parametrize("seed", range(CASES["lia"]))
def test_differential_lia(seed):
    script, variables = generate_numeric(7919 * seed + 1, INT)
    answer, result = engine_verdict(script)
    assert answer in ("sat", "unsat"), (
        f"engine answered {answer} ({result.reason}) on a boxed QF_LIA script"
    )
    expected = "sat" if oracle_lia(script, variables) else "unsat"
    assert answer == expected, f"engine {answer} but exhaustive oracle {expected}"
    if answer == "sat":
        assert_model_validates(result, script)
    assert_roundtrip_agrees(script, answer)


@pytest.mark.parametrize("seed", range(CASES["lra"]))
def test_differential_lra(seed):
    script, variables = generate_numeric(7919 * seed + 2, REAL)
    answer, result = engine_verdict(script)
    assert answer in ("sat", "unsat"), (
        f"engine answered {answer} ({result.reason}) on a boxed QF_LRA script"
    )
    if answer == "sat":
        assert_model_validates(result, script)
    else:
        assert not oracle_lra_grid(script, variables), (
            "engine unsat but the grid oracle found a rational model"
        )
    assert_roundtrip_agrees(script, answer)


@pytest.mark.parametrize("seed", range(CASES["uf"]))
def test_differential_uf(seed):
    script, ground_terms = generate_uf(7919 * seed + 3)
    answer, result = engine_verdict(script)
    assert answer in ("sat", "unsat"), (
        f"engine answered {answer} ({result.reason}) on a QF_UF script"
    )
    expected = "sat" if oracle_uf(script, ground_terms) else "unsat"
    assert answer == expected, f"engine {answer} but finite-model oracle {expected}"
    if answer == "sat":
        assert_model_validates(result, script)
    assert_roundtrip_agrees(script, answer)


@pytest.mark.parametrize("seed", range(CASES["bv"]))
def test_differential_bv(seed):
    script, variables = generate_bv(7919 * seed + 4)
    answer, result = engine_verdict(script)
    assert answer in ("sat", "unsat"), (
        f"engine answered {answer} ({result.reason}) on a narrow QF_BV script"
    )
    expected = "sat" if oracle_bv(script, variables) else "unsat"
    assert answer == expected, f"engine {answer} but exhaustive oracle {expected}"
    if answer == "sat":
        assert_model_validates(result, script)
    assert_roundtrip_agrees(script, answer)


@pytest.mark.parametrize("seed", range(CASES["ax"]))
def test_differential_ax(seed):
    script = generate_ax(7919 * seed + 5)
    answer, result = engine_verdict(script)
    assert answer in ("sat", "unsat"), (
        f"engine answered {answer} ({result.reason}) on a QF_AX script"
    )
    if answer == "sat":
        assert_model_validates(result, script)
    else:
        assert not oracle_ax(script), (
            "engine unsat but the finite-model oracle found an array model"
        )
    assert_roundtrip_agrees(script, answer)


# ---------------------------------------------------------------------------
# Certification replays: lazy theory mode and incremental push/pop.
# ---------------------------------------------------------------------------


def _generate(fragment: str, seed: int) -> Script:
    if fragment == "lia":
        return generate_numeric(7919 * seed + 1, INT)[0]
    if fragment == "lra":
        return generate_numeric(7919 * seed + 2, REAL)[0]
    if fragment == "bv":
        return generate_bv(7919 * seed + 4)[0]
    if fragment == "ax":
        return generate_ax(7919 * seed + 5)
    return generate_uf(7919 * seed + 3)[0]


def _replay_params():
    return [
        (fragment, seed)
        for fragment, count in sorted(REPLAYS.items())
        for seed in range(count)
    ]


@pytest.mark.parametrize("fragment,seed", _replay_params())
def test_lazy_replay_agrees_and_certifies(fragment, seed):
    script = _generate(fragment, seed)
    eager, _ = engine_verdict(script)
    assert lazy_verdict(script) == eager, (
        f"{fragment}/{seed}: lazy theory mode flipped the verdict"
    )


@pytest.mark.parametrize("fragment,seed", _replay_params())
def test_incremental_replay_agrees_and_certifies(fragment, seed):
    script = _generate(fragment, seed)
    answer, _ = engine_verdict(script)
    full, relaxed, again = incremental_replay_verdicts(script)
    assert full == answer, (
        f"{fragment}/{seed}: pushed-frame replay answered {full}, whole-script {answer}"
    )
    assert again == answer, (
        f"{fragment}/{seed}: re-pushed frame answered {again}, whole-script {answer}"
    )
    # Dropping the last assertion relaxes the script: unsat is monotone.
    if relaxed == "unsat":
        assert answer == "unsat", (
            f"{fragment}/{seed}: relaxed prefix unsat but the full script {answer}"
        )
