"""Tests for the lazy arrays plugin (extensional select/store).

Three layers of assurance:

* **Unit tests** drive the arrays side of :class:`EufTheory` directly:
  read-over-write propagation, extensionality witnesses,
  provenance-rewritten conflicts and push/pop rollback on the shared
  e-graph.
* **Engine cross-checks** — QF_AX-style scripts through the full DPLL(T)
  stack: store-chain reasoning, symbolic index case splits shipped as
  theory lemmas, certified unsat proofs, unsat cores, incremental
  push/pop and boolean element sorts.
* **Soundness of the validation net** — the array-aware evaluator rejects
  models that violate the array axioms, so incomplete corners demote to
  ``unknown`` instead of answering a wrong ``sat``.
"""

import pytest

from repro import run_script, solve_script
from repro.theory import euf
from repro.proof import check_proof
from repro.smtlib import (
    BOOL,
    INT,
    Apply,
    Symbol,
    array_sort,
    int_const,
    uninterpreted_sort,
)
from repro.theory import EufTheory

I = uninterpreted_sort("I")
AII = array_sort(I, INT)


def sym(name, sort):
    return Symbol(name, sort)


def eq(a, b):
    return Apply("=", (a, b), BOOL)


def select(a, i):
    return Apply("select", (a, i), a.sort.element(1))


def store(a, i, v):
    return Apply("store", (a, i, v), a.sort)


# ---------------------------------------------------------------------------
# Plugin unit tests.
# ---------------------------------------------------------------------------


class TestPlugin:
    def test_row1_read_own_write(self):
        t = EufTheory()
        a, i = sym("a", AII), sym("i", I)
        atom = eq(select(store(a, i, int_const(5)), i), int_const(5))
        t.push()
        conflict = t.assert_literal(atom, False)
        # RoW-1 forces the read to 5; denying the equality conflicts.
        assert conflict is not None
        assert (atom, False) in conflict.literals

    def test_conflict_hides_internal_axioms(self):
        t = EufTheory()
        a, i = sym("a", AII), sym("i", I)
        atom = eq(select(store(a, i, int_const(5)), i), int_const(5))
        t.push()
        conflict = t.assert_literal(atom, False)
        # Provenance rewriting: explanations only mention trail literals.
        assert set(conflict.literals) <= {(atom, False)}

    def test_congruent_indices_propagate(self):
        t = EufTheory()
        a = sym("a", AII)
        i, j = sym("i", I), sym("j", I)
        read = select(store(a, i, int_const(1)), j)
        t.push()
        assert t.assert_literal(eq(i, j), True) is None
        t.push()
        conflict = t.assert_literal(eq(read, int_const(1)), False)
        if conflict is None:
            conflict = t.check()
        assert conflict is not None

    def test_symbolic_indices_emit_lemma_pair(self):
        t = EufTheory()
        a = sym("a", AII)
        i, j = sym("i", I), sym("j", I)
        read = select(store(a, i, int_const(1)), j)
        t.push()
        assert t.assert_literal(eq(read, int_const(2)), True) is None
        assert t.check() is None
        lemmas = t.pending_lemmas()
        assert len(lemmas) == 2
        index_eq = eq(i, j)
        assert lemmas[0].literals[0] == (index_eq, False)
        assert lemmas[1].literals[0] == (index_eq, True)
        # The pair ships once: a later check re-emits nothing.
        assert t.check() is None
        assert t.pending_lemmas() == ()

    def test_extensionality_creates_witness(self):
        t = EufTheory()
        a, b = sym("a", AII), sym("b", AII)
        t.push()
        assert t.assert_literal(eq(a, b), False) is None
        assert t.stats["witnesses"] == 1
        t.push()
        # Merging the arrays now clashes with the witness disequality.
        conflict = t.assert_literal(eq(a, b), True)
        assert conflict is not None

    def test_push_pop_rolls_back(self):
        t = EufTheory()
        a, i = sym("a", AII), sym("i", I)
        atom = eq(select(store(a, i, int_const(5)), i), int_const(5))
        t.push()
        assert t.assert_literal(atom, True) is None
        t.push()
        assert t.assert_literal(atom, False) is not None
        t.pop()
        assert t.check() is None

    def test_model_hides_witnesses(self):
        from repro.theory import SortValueAllocator

        t = EufTheory()
        a, b = sym("a", AII), sym("b", AII)
        t.push()
        assert t.assert_literal(eq(a, b), False) is None
        assert t.check() is None
        model = t.model(SortValueAllocator())
        assert model is not None
        assert all("@arr!" not in name for name in model.values)


# ---------------------------------------------------------------------------
# Engine cross-checks.
# ---------------------------------------------------------------------------


def answers(script, **kw):
    return [check.answer for check in solve_script(script, **kw)]


PRELUDE = (
    "(declare-sort I 0)"
    "(declare-const a (Array I Int))"
    "(declare-const b (Array I Int))"
    "(declare-const i I)"
    "(declare-const j I)"
)


class TestEngine:
    def test_read_over_write_hit(self):
        assert answers(
            PRELUDE
            + "(assert (not (= (select (store a i 5) i) 5)))(check-sat)"
        ) == ["unsat"]

    def test_nested_store_case_split(self):
        # i != j: the outer write at j cannot mask the inner write at i.
        assert answers(
            PRELUDE
            + "(assert (not (= i j)))"
            "(assert (not (= (select (store (store a i 1) j 2) i) 1)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_nested_store_sat_when_indices_free(self):
        # Without i != j the outer write may mask the inner one: sat.
        checks = solve_script(
            PRELUDE
            + "(assert (not (= (select (store (store a i 1) j 2) i) 1)))"
            "(check-sat)"
        )
        assert checks[0].answer == "sat"

    def test_ground_indices_no_case_split(self):
        checks = solve_script(
            "(declare-const a (Array Int Int))"
            "(assert (= (select (store a 1 10) 2) 5))"
            "(assert (= (select a 2) 6))"
            "(check-sat)"
        )
        assert checks[0].answer == "unsat"
        # Distinct literal indices resolve internally, no lemma shipped.
        assert checks[0].metrics["theory.euf.row2_ground"] >= 1
        assert checks[0].metrics["theory.euf.lemmas"] == 0

    def test_extensionality_unsat(self):
        assert answers(
            PRELUDE
            + "(assert (= b (store a i (select a i))))"
            "(assert (not (= a b)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_extensionality_sat(self):
        checks = solve_script(PRELUDE + "(assert (not (= a b)))(check-sat)")
        assert checks[0].answer == "sat"
        assert all("@arr!" not in name for name in checks[0].model)

    def test_unsat_is_certified(self):
        checks = solve_script(
            PRELUDE
            + "(assert (not (= i j)))"
            "(assert (not (= (select (store (store a i 1) j 2) i) 1)))"
            "(check-sat)",
            produce_proofs=True,
        )
        assert checks[0].answer == "unsat"
        assert checks[0].proof is not None
        assert check_proof(checks[0].proof).ok

    def test_unsat_core_names_array_facts(self):
        checks = solve_script(
            PRELUDE
            + "(assert (! (not (= i j)) :named distinct-indices))"
            "(assert (! (not (= (select (store (store a i 1) j 2) i) 1))"
            " :named read-miss))"
            "(assert (! (= (select a j) 7) :named irrelevant))"
            "(check-sat)",
            produce_unsat_cores=True,
        )
        assert checks[0].answer == "unsat"
        core = set(checks[0].unsat_core)
        assert {"distinct-indices", "read-miss"} <= core
        assert "irrelevant" not in core

    def test_incremental_push_pop(self):
        assert answers(
            PRELUDE
            + "(assert (= (select (store a i 3) i) 3))"
            "(check-sat)"
            "(push 1)"
            "(assert (not (= i j)))"
            "(assert (not (= (select (store (store a i 1) j 2) i) 1)))"
            "(check-sat)"
            "(pop 1)"
            "(check-sat)"
        ) == ["sat", "unsat", "sat"]

    def test_bool_elements(self):
        assert answers(
            "(declare-const a (Array Int Bool))"
            "(declare-const i Int)"
            "(assert (select (store a i true) i))"
            "(check-sat)"
        ) == ["sat"]
        assert answers(
            "(declare-const a (Array Int Bool))"
            "(declare-const i Int)"
            "(assert (not (select (store a i true) i)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_store_identity(self):
        # store a i (select a i) == a, both polarities.
        assert answers(
            "(declare-const a (Array Int Int))"
            "(declare-const i Int)"
            "(assert (= (store a i (select a i)) a))"
            "(check-sat)"
        ) == ["sat"]
        assert answers(
            "(declare-const a (Array Int Int))"
            "(declare-const i Int)"
            "(assert (not (= (store a i (select a i)) a)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_cooperation_with_euf(self):
        assert answers(
            PRELUDE
            + "(declare-fun f (I) I)"
            "(assert (= (f i) j))"
            "(assert (not (= i j)))"
            "(assert (not (= (select (store (store a i 1) (f i) 2) i) 1)))"
            "(check-sat)"
        ) == ["unsat"]

    def test_metrics_exposed_per_check(self):
        checks = solve_script(
            PRELUDE
            + "(assert (not (= (select (store a i 1) j) 1)))(check-sat)"
        )
        metrics = checks[0].metrics
        assert metrics["theory.euf.row1_instances"] >= 1
        assert metrics["theory.euf.lemmas"] >= 1

    def test_case_split_ships_once_per_run(self):
        """The plugin lives for the whole run: a re-check after push/pop
        re-ships none of the case splits the first check emitted."""
        checks = solve_script(
            PRELUDE
            + "(assert (not (= (select (store a i 1) j) 1)))"
            "(check-sat)(push 1)(pop 1)(check-sat)"
        )
        assert [check.answer for check in checks] == ["sat", "sat"]
        assert checks[0].metrics["theory.euf.lemmas"] >= 1
        assert checks[1].metrics["theory.euf.lemmas"] == 0

    def test_lemma_atoms_stay_routed_in_later_checks(self):
        """A case split ships once per run and its clauses are permanent,
        so later checks must route the split's atoms to the plugins too.
        Here the second check re-meets the first check's read over a
        write: the split does not ship again, yet the check answers as it
        would on its own (``unsat``), not ``unknown``."""
        result = run_script(
            "(declare-sort U 0)(declare-const a (Array U U))"
            "(declare-const i U)(declare-const j U)(declare-const v U)"
            "(declare-const w U)(declare-const z U)"
            "(push 1)(assert (= (select (store a i v) j) w))(assert (not (= v w)))"
            "(check-sat)(pop 1)"
            "(push 1)(assert (= (select (store a i v) j) w))(assert (not (= v w)))"
            "(assert (= (select a j) z))(assert (not (= z w)))(check-sat)(pop 1)"
        )
        assert result.output == ["sat", "unsat"]
        assert result.check_results[1].metrics["theory.euf.lemmas"] == 0

    def test_witness_lemma_atoms_stay_routed_in_later_checks(self):
        """No frame declares an extensionality witness (``@arr!N``), yet
        the split on ``(= i @arr!0)`` that shipped in the first check
        stays.  The second check routes its atoms and answers as it would
        on its own (``unsat``), and the witness never reaches a model."""
        result = run_script(
            "(declare-sort U 0)(declare-const a (Array U U))(declare-const b (Array U U))"
            "(declare-const i U)(declare-const v U)"
            "(push 1)(assert (= b (store a i v)))(assert (not (= a b)))(check-sat)(pop 1)"
            "(push 1)(assert (= b (store a i v)))(assert (not (= a b)))"
            "(assert (= (select a i) v))(check-sat)(pop 1)"
        )
        assert result.output == ["sat", "unsat"]
        assert set(result.check_results[0].model) == {"a", "b", "i", "v"}

    def test_lemma_atoms_over_popped_symbols_stay_unrouted(self):
        """A lemma atom is routed in a later check only when each of its
        symbols is live by name *and* sort.  ``i`` and ``j`` redeclared
        at another sort after the pop are other symbols, so the popped
        split over them reaches neither the plugins nor the model."""
        result = run_script(
            "(declare-sort U 0)(declare-sort V 0)"
            "(push 1)(declare-const a (Array U U))(declare-const i U)(declare-const j U)"
            "(declare-const v U)(declare-const w U)"
            "(assert (= (select (store a i v) j) w))(assert (not (= v w)))"
            "(check-sat)(pop 1)"
            "(declare-const i V)(declare-const j V)(declare-fun g (V) V)"
            "(assert (= (g i) j))(check-sat)(get-model)"
        )
        assert result.output[:2] == ["sat", "sat"]
        model = result.check_results[1].model
        assert set(model) == {"i", "j"}
        assert {value.sort.name for value in model.values()} == {"V"}

    def test_queued_case_splits_end_with_their_check(self):
        """A final check can queue case splits and find a conflict at
        once.  When that ends the check, the queued lemmas must not ship
        into the next one, where their popped symbols would reach the
        model."""
        result = run_script(
            "(declare-const c Int)(assert (> c 0))"
            "(push 1)"
            "(declare-const a (Array Int Int))(declare-const b (Array Int Int))"
            "(declare-const k Int)(declare-const m Int)"
            "(assert (= (select (store b k 1) m) 7))"
            "(assert (= (select (store a 1 10) 2) 5))"
            "(assert (= (select a 2) 6))"
            "(check-sat)(pop 1)"
            "(declare-const d (Array Int Int))(assert (= (select d 3) 4))"
            "(check-sat)"
        )
        assert result.output == ["unsat", "sat"]
        assert set(result.check_results[1].model) == {"c", "d"}

    def test_exhausted_lemma_budget_is_the_reason(self, monkeypatch):
        script = (
            "(declare-sort U 0)"
            "(declare-const a (Array U Int))"
            "(declare-const i U)(declare-const j U)(declare-const k U)"
            "(assert (= (select (store (store a i 5) k 6) j) 7))"
            "(assert (= i j))"
            "(check-sat)"
        )
        assert answers(script) == ["unsat"]
        monkeypatch.setattr(euf, "LEMMA_BUDGET", 0)
        check = solve_script(script)[0]
        assert (check.answer, check.reason) == ("unknown", "array-lemma-budget")

    def test_arith_forced_index_equality_stays_sound(self):
        """Simplex-forced index equalities are invisible to the arrays
        e-graph (documented incompleteness): the answer degrades to
        ``unknown``, never to a wrong ``sat``."""
        checks = solve_script(
            "(declare-const a (Array Int Int))"
            "(declare-const i Int)(declare-const j Int)"
            "(assert (= i j))"
            "(assert (not (= (select (store a i 1) j) 1)))"
            "(check-sat)"
        )
        assert checks[0].answer in ("unsat", "unknown")

    def test_get_model_prints_cleanly(self):
        result = run_script(
            PRELUDE + "(assert (not (= a b)))(check-sat)(get-model)"
        )
        printed = " ".join(result.output)
        assert "@arr!" not in printed
