"""Tests for the script-execution engine and the ``python -m repro`` CLI.

Two acceptance properties from the issue are enforced here:

* **Model oracle** — every ``sat`` answer's model makes ``evaluate`` return
  true for every term asserted at that ``check-sat`` (through the live
  definitions) and for every prepared assertion.
* **Brute-force cross-check** — on every quantifier-free corpus script
  whose asserted terms range over at most 18 boolean atoms (and no other
  free symbols), the engine's answer equals exhaustive enumeration of the
  terms as asserted, evaluated through their definitions, so the oracle
  audits preparation and simplification too.
"""

import importlib
import itertools
import random
from pathlib import Path

import pytest

from repro import CheckSatResult, Engine, run_script, solve_script
from repro.engine import context
from repro.errors import SolverError
from repro.smtlib import (
    BOOL,
    Apply,
    Assert,
    CheckSat,
    DefineFun,
    Exit,
    FunctionInterpretation,
    GetValue,
    Pop,
    Push,
    Quantifier,
    Script,
    Symbol,
    TRUE,
    Term,
    bool_const,
    evaluate,
    parse_script,
    script_to_smtlib,
)
from test_cnf import random_bool_term

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.smt2"))


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------


def assert_model_satisfies(result: CheckSatResult, script, index: int = 0) -> None:
    """The model-checking oracle: the model evaluates true every term
    asserted at the ``index``-th check of ``script`` (a script or its
    text), through the definitions live there, and every prepared
    assertion of ``result`` (uninterpreted functions evaluate through the
    result's interpretations)."""
    if isinstance(script, str):
        script = parse_script(script)
    terms, definitions = list(live_checks(script))[index]
    assert result.model is not None
    for term in (*terms, *result.assertions):
        assert evaluate(term, result.model, result.fun_interps, definitions) is TRUE, term


def live_checks(script: Script):
    """The asserted terms and the definitions (``:named`` labels included)
    live at each ``check-sat`` of ``script``, as the assertion stack holds
    them."""
    frames: list[tuple[list, dict]] = [([], {})]
    for command in script.commands:
        if isinstance(command, Exit):
            break
        if isinstance(command, Assert):
            frames[-1][0].append(command.term)
            if command.name is not None:
                frames[-1][1][command.name] = DefineFun(command.name, (), BOOL, command.term)
        elif isinstance(command, DefineFun):
            frames[-1][1][command.name] = command
        elif isinstance(command, Push):
            frames.extend(([], {}) for _ in range(command.levels))
        elif isinstance(command, Pop):
            del frames[len(frames) - command.levels :]
        elif isinstance(command, CheckSat):
            terms = [term for asserted, _ in frames for term in asserted]
            definitions = {name: d for _, defined in frames for name, d in defined.items()}
            yield terms, definitions


def boolean_frees(terms, definitions):
    """Free symbols of ``terms`` and of the bodies of ``definitions`` (bar
    their parameters), or None when any is not Bool (or a quantifier
    blocks evaluation)."""
    free: dict[str, object] = {}
    scopes = [(term, ()) for term in terms] + [(d.body, d.params) for d in definitions.values()]
    for term, params in scopes:
        if any(isinstance(node, Quantifier) for node in term.walk()):
            return None
        bound = {name for name, _ in params}
        free.update((name, sort) for name, sort in term.free_symbols().items() if name not in bound)
    for name in definitions:
        free.pop(name, None)
    if any(sort != BOOL for sort in free.values()):
        return None
    return sorted(free)


def brute_force(terms, definitions):
    """Exhaustively decide ``terms`` under ``definitions``; None when not
    amenable (non-boolean symbols, quantifiers, or more than 18 atoms)."""
    names = boolean_frees(terms, definitions)
    if names is None or len(names) > 18:
        return None
    for values in itertools.product([False, True], repeat=len(names)):
        env = {name: bool_const(v) for name, v in zip(names, values)}
        try:
            if all(evaluate(term, env, None, definitions) is TRUE for term in terms):
                return "sat"
        except Exception:
            return None  # unfoldable ground operator: not amenable
    return "unsat"


# ---------------------------------------------------------------------------
# Corpus-wide properties.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_scripts_execute(path):
    script = parse_script(path.read_text())
    result = run_script(script)
    for index, check in enumerate(result.check_results):
        assert check.answer in ("sat", "unsat", "unknown")
        if check.answer == "sat":
            assert_model_satisfies(check, script, index)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_brute_force_cross_check(path):
    script = parse_script(path.read_text())
    for check, (terms, definitions) in zip(solve_script(script), live_checks(script), strict=True):
        expected = brute_force(terms, definitions)
        if expected is None:
            continue
        assert check.answer == expected, (path.stem, check.answer, expected)


def test_corpus_covers_both_answers():
    answers = set()
    for path in CORPUS:
        answers.update(check.answer for check in solve_script(path.read_text()))
    assert {"sat", "unsat"} <= answers


# ---------------------------------------------------------------------------
# Randomised cross-check over generated propositional scripts.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_random_propositional_scripts_cross_check(seed):
    rng = random.Random(seed)
    atoms = [Symbol(f"p{i}", BOOL) for i in range(rng.randint(2, 6))]
    commands = []
    for _ in range(rng.randint(1, 4)):
        commands.append(Assert(random_bool_term(rng, 3, atoms)))
    commands.append(CheckSat())
    script = Script(tuple(commands))
    result = solve_script(script)[0]
    expected = brute_force(script.assertions(), {})
    assert expected is not None
    assert result.answer == expected
    if result.answer == "sat":
        assert_model_satisfies(result, script)


# ---------------------------------------------------------------------------
# Engine command semantics.
# ---------------------------------------------------------------------------


class TestPushPop:
    def test_pop_restores_satisfiability(self):
        answers = solve_script(
            """
            (declare-const p Bool)
            (assert p)
            (check-sat)
            (push 1)
            (assert (not p))
            (check-sat)
            (pop 1)
            (check-sat)
            """
        )
        assert [r.answer for r in answers] == ["sat", "unsat", "sat"]

    def test_nested_push_levels(self):
        answers = solve_script(
            """
            (declare-const p Bool)
            (declare-const q Bool)
            (push 2)
            (assert (and p q))
            (pop 1)
            (assert (not p))
            (check-sat)
            (pop 1)
            (assert p)
            (check-sat)
            """
        )
        assert [r.answer for r in answers] == ["sat", "sat"]

    def test_pop_beyond_depth_raises(self):
        script = Script((Pop(1),))
        with pytest.raises(SolverError):
            Engine().run(script)

    def test_push_zero_is_noop(self):
        script = Script((Push(0), CheckSat()))
        assert Engine().run(script).answers == ["sat"]


class TestAnswers:
    def test_assert_false_is_trivially_unsat(self):
        result = solve_script("(assert false)\n(check-sat)")[0]
        assert result.answer == "unsat"
        assert result.metrics["engine.trivial"] == 1
        # The metrics contract holds even on the trivial path.
        for key in (
            "sat.conflicts",
            "sat.decisions",
            "engine.vars",
            "engine.clauses_shipped",
            "engine.atoms",
        ):
            assert result.metrics[key] == 0

    def test_empty_assertions_are_sat(self):
        result = solve_script("(check-sat)")[0]
        assert result.answer == "sat"
        assert result.model == {}

    def test_ground_theory_atoms_prefold(self):
        # The PR-2 evaluator folds the ground atoms; p remains free.
        source = """
            (declare-const p Bool)
            (assert (or p (< 2 1)))
            (assert (= (+ 1 2) 3))
            (check-sat)
            """
        result = solve_script(source)[0]
        assert result.answer == "sat"
        assert result.model["p"] is TRUE
        assert_model_satisfies(result, source)

    def test_theory_atoms_give_unknown_not_sat(self):
        # ``div`` is outside the linear fragment, so the atom stays
        # abstract — a propositionally satisfiable skeleton must answer
        # unknown, never sat.
        result = solve_script(
            """
            (declare-const x Int)
            (assert (< (div x 2) 0))
            (check-sat)
            """
        )[0]
        assert result.answer == "unknown"
        assert result.reason == "abstracted-atoms"

    def test_linear_atoms_now_decided(self):
        # The same shape over the *linear* fragment is decided by the
        # simplex plugin (this was unknown before the arith theory).
        source = """
            (declare-const x Int)
            (assert (< x 0))
            (check-sat)
            """
        result = solve_script(source)[0]
        assert result.answer == "sat"
        assert_model_satisfies(result, source)

    def test_propositionally_inconsistent_theory_is_unsat(self):
        result = solve_script(
            """
            (declare-const x Int)
            (declare-const y Int)
            (assert (or (< x y) (= x y)))
            (assert (not (< x y)))
            (assert (not (= x y)))
            (check-sat)
            """
        )[0]
        assert result.answer == "unsat"

    def test_quantifier_atom_gives_unknown(self):
        result = solve_script(
            """
            (declare-const p Bool)
            (assert (or p (forall ((b Bool)) b)))
            (assert (not p))
            (check-sat)
            """
        )[0]
        assert result.answer == "unknown"
        assert result.reason == "abstracted-atoms"

    def test_vacuous_integer_symbol_gets_a_model_value(self):
        # (= x x) folds to true; since PR 4 the theory layer mints a
        # concrete value for x, so the answer is a validated sat.
        source = """
            (declare-const x Int)
            (assert (= x x))
            (check-sat)
            """
        result = solve_script(source)[0]
        assert result.answer == "sat"
        assert result.model is not None and "x" in result.model
        assert_model_satisfies(result, source)

    def test_conflict_limit_reports_unknown(self):
        # Pigeonhole as a boolean skeleton: 4 pigeons, 3 holes.
        holes, pigeons = 3, 4
        var = lambda i, j: Symbol(f"x{i}_{j}", BOOL)
        commands = []
        for i in range(pigeons):
            commands.append(Assert(Apply("or", tuple(var(i, j) for j in range(holes)), BOOL)))
        for j in range(holes):
            for a in range(pigeons):
                for b in range(a + 1, pigeons):
                    commands.append(
                        Assert(
                            Apply(
                                "or",
                                (
                                    Apply("not", (var(a, j),), BOOL),
                                    Apply("not", (var(b, j),), BOOL),
                                ),
                                BOOL,
                            )
                        )
                    )
        commands.append(CheckSat())
        script = Script(tuple(commands))
        assert solve_script(script)[0].answer == "unsat"
        limited = solve_script(script, conflict_limit=1)[0]
        assert limited.answer == "unknown"
        assert limited.reason == "conflict-limit"

    def test_model_covers_symbols_simplified_away(self):
        source = """
            (declare-const p Bool)
            (declare-const unused Bool)
            (assert (or p (not p)))
            (check-sat)
            """
        result = solve_script(source)[0]
        assert result.answer == "sat"
        assert result.model["p"] is not None
        assert "unused" in result.model
        assert_model_satisfies(result, source)


class TestDefinitions:
    def test_nullary_definition_inlines(self):
        result = solve_script(
            """
            (declare-const p Bool)
            (define-fun alias () Bool p)
            (assert alias)
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"
        assert result.model["p"] is TRUE

    def test_definitions_compose(self):
        source = """
            (declare-const p Bool)
            (declare-const q Bool)
            (define-fun nand ((a Bool) (b Bool)) Bool (not (and a b)))
            (define-fun nand2 ((a Bool) (b Bool)) Bool (nand (nand a b) (nand a b)))
            (assert (nand2 p q))
            (assert p)
            (check-sat)
            """
        result = solve_script(source)[0]
        # nand2 is `and`, so p and q must both hold.
        assert result.answer == "sat"
        assert result.model["q"] is TRUE
        assert_model_satisfies(result, source)

    def test_let_shadows_definition(self):
        result = solve_script(
            """
            (define-fun c () Bool true)
            (assert (let ((c false)) (not c)))
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"

    def test_definition_scoping_respects_pop(self):
        answers = solve_script(
            """
            (declare-const p Bool)
            (push 1)
            (define-fun f () Bool (not p))
            (assert f)
            (check-sat)
            (pop 1)
            (assert p)
            (check-sat)
            """
        )
        assert [r.answer for r in answers] == ["sat", "sat"]


    def test_unused_quantified_definition_keeps_sat(self):
        # Validation evaluates a nullary definition only where it is
        # referenced, and nothing references q.
        result = solve_script(
            """
            (declare-const x Int)
            (define-fun q () Bool (forall ((y Int)) (> y x)))
            (assert (> x 0))
            (check-sat)
            """
        )[0]
        assert result.answer == "sat"

    def test_let_does_not_capture_a_definition_body(self):
        # c's body names the declared x, not the x the let binds.
        result = run_script(
            """
            (declare-const x Int)
            (define-fun c () Int x)
            (assert (let ((x 5)) (and (= c 3) (= x 5))))
            (check-sat)
            (get-value (c x))
            """
        )
        assert result.output == ["sat", "((c 3) (x 3))"]


class TestValidation:
    """A ``sat`` model is validated against the terms as asserted, so a
    fault in preparation or in the simplifier demotes the answer."""

    def test_planted_preparation_fault_is_caught(self, monkeypatch):
        bounds = context._bounds

        def upper_bound_only(args):
            pair = bounds(args)
            return None if pair is None else pair.args[0]

        monkeypatch.setattr(context, "_bounds", upper_bound_only)
        result = solve_script("(declare-const x Int) (assert (= x 5)) (check-sat)")[0]
        assert (result.answer, result.reason) == ("unknown", "model-validation-failed")

    def test_planted_simplifier_fault_is_caught(self, monkeypatch):
        rules = importlib.import_module("repro.smtlib.simplify")._RULES
        monkeypatch.setitem(rules, "<", lambda node: TRUE)
        result = solve_script(
            "(declare-const x Int) (assert (< x 0)) (assert (< 0 x)) (check-sat)"
        )[0]
        assert (result.answer, result.reason) == ("unknown", "model-validation-failed")

    @pytest.mark.parametrize(
        "assertion",
        [
            "(assert (let ((v (div x 0))) (> x 1)))",
            "(assert (let ((q (forall ((y Int)) (> y x)))) (> x 1)))",
            "(define-fun k ((a Int)) Int 0) (assert (= (k (div x 0)) x))",
        ],
    )
    def test_unused_binding_that_cannot_be_evaluated_keeps_sat(self, assertion):
        # Preparation drops the binding; validation reads the asserted
        # term, where the binding fails only if something reads it.
        result = solve_script(f"(declare-const x Int) {assertion} (check-sat)")[0]
        assert result.answer == "sat", result.reason

    def test_shared_let_in_a_definition_chain_validates_in_linear_time(self):
        # Each g_k reads one let node twice (2**40 reads of g0 as a tree);
        # validation, like preparation, evaluates it once per scope.
        lines = ["(declare-const p Bool) (define-fun g0 ((b Bool)) Bool b)"]
        for k in range(1, 41):
            call = f"(let ((a true)) (g{k - 1} b))"
            lines.append(f"(define-fun g{k} ((b Bool)) Bool (and {call} {call}))")
        result = run_script(" ".join(lines) + " (assert (g40 p)) (check-sat) (get-value (p))")
        assert result.output == ["sat", "((p true))"]

    def test_a_shared_definition_is_evaluated_once_per_check(self, monkeypatch):
        # Both assertions read the nullary c, whose body reads f once.
        # Validation evaluates every asserted term through one evaluator,
        # so f's graph is consulted once per check, not once per assertion.
        calls = []
        lookup = FunctionInterpretation.__call__

        def counting(self, args):
            calls.append(args)
            return lookup(self, args)

        monkeypatch.setattr(FunctionInterpretation, "__call__", counting)
        result = run_script(
            "(declare-sort U 0) (declare-fun f (U) U) (declare-const a U) (declare-const b U)"
            " (define-fun c () U (f a)) (assert (= c b)) (assert (distinct c a))"
            " (check-sat) (check-sat)"
        )
        assert result.answers == ["sat", "sat"]
        assert len(calls) == 2

    def test_model_building_walks_no_assertion(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an assertion was walked again")

        monkeypatch.setattr(Term, "dag_walk", refuse)
        monkeypatch.setattr(Term, "free_symbols", refuse)
        for source in (
            "(declare-sort U 0) (declare-fun g (U) U) (declare-const a U) (declare-const b U)"
            " (declare-const x Int) (declare-const p Bool)"
            " (assert (or p (distinct (g a) b))) (assert (> x 2)) (check-sat)",
            "(declare-sort U 0) (declare-const a (Array U U)) (declare-const i U) (declare-const v U)"
            " (assert (= (select (store a i v) i) v)) (assert (distinct (select a i) v)) (check-sat)",
        ):
            assert solve_script(source)[0].answer == "sat", source

    @pytest.mark.parametrize(
        "source",
        [
            "(declare-const a (Array Int Int)) (declare-const i Int)"
            " (assert (= (select a i) (select a i)))",
            "(declare-const a (Array Int Int))"
            " (define-fun r ((b (Array Int Int))) Int (select b 0))"
            " (assert (= (r a) (r a)))",
        ],
    )
    def test_read_that_simplifies_away_still_has_a_model(self, source):
        # The only select read sits in a trivial atom, so no theory sees
        # it; the walk recorded its sort, and the model backs it.
        script = parse_script(source + " (check-sat)")
        result = solve_script(script)[0]
        assert result.answer == "sat", result.reason
        ((terms, definitions),) = live_checks(script)
        for term in terms:
            assert evaluate(term, result.model, result.fun_interps, definitions) is TRUE


class TestModelQueries:
    def test_get_model_without_check_errors(self):
        result = run_script("(get-model)")
        assert result.output[0].startswith('(error')

    def test_get_model_after_unsat_errors(self):
        result = run_script("(assert false)\n(check-sat)\n(get-model)")
        assert result.output == ["unsat", '(error "no model available: last check-sat was not sat")']

    def test_get_value_evaluates_compound_terms(self):
        result = run_script(
            """
            (declare-const p Bool)
            (declare-const q Bool)
            (assert p)
            (assert (not q))
            (check-sat)
            (get-value ((and p q) (or p q) p))
            """
        )
        assert result.output[0] == "sat"
        assert result.output[1] == "(((and p q) false) ((or p q) true) (p true))"

    def test_get_value_of_integer_terms_uses_model_values(self):
        # Since PR 4 every declared constant gets a model value, so
        # arbitrary ground terms evaluate under the model.
        result = run_script(
            """
            (declare-const x Int)
            (declare-const p Bool)
            (assert p)
            (check-sat)
            (get-value ((+ x 1)))
            """
        )
        assert result.output[0] == "sat"
        assert result.output[1] == "(((+ x 1) 1))"

    def test_get_value_of_unfoldable_term_errors(self):
        result = run_script(
            """
            (declare-const a (Array Int Int))
            (declare-const p Bool)
            (assert p)
            (check-sat)
            (get-value ((select a 0)))
            """
        )
        assert result.output[0] == "sat"
        assert result.output[1].startswith('(error')

    def test_get_value_error_quoting_a_string_stays_one_string_literal(self):
        result = run_script(
            """
            (declare-const s String)
            (declare-const p Bool)
            (assert p)
            (check-sat)
            (get-value ((forall ((x Int)) (= s "q"))))
            """
        )
        assert result.output == [
            "sat",
            '(error "cannot evaluate (forall ((x Int)) (= s ""q"")):'
            ' cannot evaluate quantified term (forall)")',
        ]

    def test_get_model_is_deterministic_and_sorted(self):
        text = """
            (declare-const zz Bool)
            (declare-const aa Bool)
            (assert (or zz aa))
            (check-sat)
            (get-model)
            """
        first = run_script(text).output[1]
        second = run_script(text).output[1]
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "(model"
        assert lines[-1] == ")"
        assert lines[1].index("aa") > 0 and "zz" in lines[2]


class TestCommandsRoundTrip:
    def test_get_value_parses_and_prints(self):
        text = "(declare-const p Bool)\n(get-value (p (not p)))\n"
        script = parse_script(text)
        assert isinstance(script.commands[1], GetValue)
        assert script_to_smtlib(script) == text
        assert parse_script(script_to_smtlib(script)) == script

    def test_exit_stops_execution(self):
        result = run_script("(check-sat)\n(exit)\n(check-sat)")
        assert result.answers == ["sat"]


# ---------------------------------------------------------------------------
# The CLI.
# ---------------------------------------------------------------------------


class TestCli:
    def run_cli(self, capsys, *argv):
        from repro.__main__ import main

        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def test_sat_script(self, capsys, tmp_path):
        path = tmp_path / "a.smt2"
        path.write_text("(declare-const p Bool)\n(assert p)\n(check-sat)\n")
        status, out, err = self.run_cli(capsys, str(path))
        assert status == 0
        assert out == "sat\n"
        assert err == ""

    def test_unsat_corpus_script(self, capsys):
        path = Path(__file__).parent / "corpus" / "prop_unsat.smt2"
        status, out, _ = self.run_cli(capsys, str(path))
        assert status == 0
        assert out.strip() == "unsat"

    def test_multiple_files_get_headers(self, capsys, tmp_path):
        one = tmp_path / "one.smt2"
        two = tmp_path / "two.smt2"
        one.write_text("(check-sat)\n")
        two.write_text("(assert false)\n(check-sat)\n")
        status, out, _ = self.run_cli(capsys, str(one), str(two))
        assert status == 0
        assert out.splitlines() == [f"; {one}", "sat", f"; {two}", "unsat"]

    def test_stats_flag_emits_comments(self, capsys, tmp_path):
        path = tmp_path / "a.smt2"
        path.write_text("(declare-const p Bool)\n(assert p)\n(check-sat)\n")
        status, out, _ = self.run_cli(capsys, str(path), "--stats")
        assert status == 0
        assert "; check-sat #0: sat" in out
        assert "sat.conflicts=" in out
        assert "engine.tseitin_new_vars=" in out

    def test_parse_error_sets_status(self, capsys, tmp_path):
        path = tmp_path / "bad.smt2"
        path.write_text("(assert (undeclared))\n")
        status, out, err = self.run_cli(capsys, str(path))
        assert status == 1
        assert "(error" in err

    def test_error_line_doubles_the_quotes_it_embeds(self, capsys, tmp_path):
        path = tmp_path / "quoted.smt2"
        path.write_text('(declare-const "abc" Int)\n')
        status, out, err = self.run_cli(capsys, str(path))
        assert status == 1
        assert err == f'(error "{path}: expected a symbol, got ""abc""")\n'

    def test_missing_file_sets_status(self, capsys, tmp_path):
        status, _, err = self.run_cli(capsys, str(tmp_path / "absent.smt2"))
        assert status == 1
        assert "(error" in err
