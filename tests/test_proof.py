"""Proof production and checking: the certification tentpole.

Three layers under test:

* the independent RUP/DRAT checker (:mod:`repro.proof.checker`) on
  hand-built proofs — acceptance of valid derivations and rejection of
  every forgery class (non-RUP additions, phantom deletions, unsupported
  conclusions, malformed steps);
* the CDCL core's proof logging (:mod:`repro.sat.solver`) — every
  ``UNSAT`` answer on classic hard families, random CNF sweeps and
  assumption-driven checks snapshots to a proof the checker certifies;
* the engine end to end — script-level ``unsat`` answers (pure SAT,
  EUF, LIA, trivially-false, incremental push/pop) carry certified
  proofs with theory-lemma provenance, and the option plumbing
  (``produce_proofs=``, ``(set-option :produce-proofs true)``, late
  enabling) behaves as documented.

The checker shares no propagation code with the solver, so these tests
are a genuine cross-check, not a tautology.
"""

import random

import pytest

from repro import run_script, solve_script
from repro.engine import Engine
from repro.errors import SolverError
from repro.proof import Proof, ProofLog, ProofStep, check_proof
from repro.proof.log import DELETE, INPUT, LEMMA, RUP
from repro.sat import SAT, Solver, UNSAT
from repro.smtlib import parse_script

from test_sat import pigeonhole, random_cnf


#: A conclusion that holds vacuously — used where a test exercises the
#: step replay, not the concluding entailment (``()`` claims the empty
#: clause, which non-contradictory proofs cannot support).
TAUT = (1, -1)


def proof_of(*steps, conclusion=TAUT):
    return Proof(tuple(steps), conclusion)


def inputs(*clauses):
    return [ProofStep(INPUT, clause) for clause in clauses]


# ---------------------------------------------------------------------------
# The checker on hand-built proofs.
# ---------------------------------------------------------------------------


class TestCheckerAccepts:
    def test_empty_proof_of_nothing(self):
        result = check_proof(proof_of(conclusion=(1, -1)))
        assert result.ok and bool(result)

    def test_unit_resolution_chain(self):
        # (1 2), (-1 2), (1 -2), (-1 -2) |- (2) |- () : textbook RUP.
        proof = proof_of(
            *inputs((1, 2), (-1, 2), (1, -2), (-1, -2)),
            ProofStep(RUP, (2,)),
            ProofStep(RUP, ()),
        )
        result = check_proof(proof)
        assert result.ok
        # 4 inputs + the 2 verified additions all enter the clause set.
        assert result.stats["clauses"] == 6
        # Adding (2) propagates to a permanent contradiction, so the
        # final empty-clause step is short-circuited, not re-checked.
        assert result.stats["rup_checked"] == 1

    def test_tautological_clause_is_free(self):
        proof = proof_of(*inputs((1, 2)), ProofStep(RUP, (3, -3)))
        assert check_proof(proof).ok

    def test_lemma_steps_are_axioms(self):
        # The lemma is not RUP from the input — it is trusted, with
        # provenance — and later RUP steps may lean on it.
        proof = proof_of(
            *inputs((1, 2)),
            ProofStep(LEMMA, (-1,), source="arith"),
            ProofStep(RUP, (2,)),
        )
        result = check_proof(proof)
        assert result.ok
        assert result.stats["lemmas"] == 1

    def test_deletion_then_unrelated_rup(self):
        proof = proof_of(
            *inputs((1, 2), (1, -2), (-1, 2), (-1, -2)),
            ProofStep(DELETE, (-1, -2)),
            # (1) is still RUP from the surviving (1 2) and (1 -2):
            # assuming ¬1 forces 2 and ¬2 at once.
            ProofStep(RUP, (1,)),
        )
        assert check_proof(proof).ok

    def test_unit_deletion_is_ignored(self):
        # drat-trim's forward relaxation: deleting a unit never retracts
        # the permanent propagation it caused.
        proof = proof_of(
            *inputs((1,), (-1, 2)),
            ProofStep(DELETE, (1,)),
            ProofStep(RUP, (2,)),
        )
        assert check_proof(proof).ok

    def test_contradiction_short_circuits_later_checks(self):
        # Once the inputs are contradictory, every later step passes —
        # sound, since the contradiction was itself reached by axioms.
        proof = proof_of(
            *inputs((1,), (-1,)),
            ProofStep(RUP, (99,)),
            conclusion=(),
        )
        assert check_proof(proof).ok

    def test_non_empty_conclusion(self):
        # From (-1 2): assuming 1 forces 2, so the clause (-1 2) is
        # entailed; the conclusion re-checks exactly that.
        proof = proof_of(*inputs((-1, 2), (1,)), ProofStep(RUP, (2,)))
        result = check_proof(proof_of(*proof.steps, conclusion=(2,)))
        assert result.ok


class TestCheckerRejects:
    def test_non_rup_addition(self):
        proof = proof_of(*inputs((1, 2)), ProofStep(RUP, (3,)))
        result = check_proof(proof)
        assert not result.ok and not bool(result)
        assert result.step_index == 1
        assert "not RUP" in result.error

    def test_deleting_a_clause_the_solver_never_had(self):
        proof = proof_of(*inputs((1, 2)), ProofStep(DELETE, (3, 4)))
        result = check_proof(proof)
        assert not result.ok
        assert result.step_index == 1
        assert "unknown clause" in result.error

    def test_double_deletion_rejected(self):
        proof = proof_of(
            *inputs((1, 2)),
            ProofStep(DELETE, (1, 2)),
            ProofStep(DELETE, (2, 1)),
        )
        result = check_proof(proof)
        assert not result.ok and result.step_index == 2

    def test_rup_step_must_not_lean_on_deleted_clause(self):
        # With (1 2) deleted, (2) is no longer forced under ¬2.
        proof = proof_of(
            *inputs((1, 2), (-1, 2)),
            ProofStep(DELETE, (1, 2)),
            ProofStep(RUP, (2,)),
        )
        result = check_proof(proof)
        assert not result.ok and result.step_index == 3

    def test_unsupported_empty_conclusion(self):
        result = check_proof(proof_of(*inputs((1, 2)), conclusion=()))
        assert not result.ok
        assert result.step_index is None
        assert "conclusion" in result.error

    def test_unsupported_named_conclusion(self):
        result = check_proof(proof_of(*inputs((1, 2)), conclusion=(-1,)))
        assert not result.ok and "conclusion" in result.error

    def test_unknown_step_kind(self):
        result = check_proof(proof_of(ProofStep("resolve", (1,))))
        assert not result.ok and result.step_index == 0

    def test_zero_literal_raises(self):
        with pytest.raises(ValueError):
            check_proof(proof_of(ProofStep(INPUT, (1, 0))))


# ---------------------------------------------------------------------------
# Proof / ProofLog data shapes.
# ---------------------------------------------------------------------------


class TestProofShapes:
    def test_log_counts_and_snapshot(self):
        log = ProofLog()
        log.log_input((1, 2))
        log.log_lemma((-1,), source="euf")
        log.log_rup((2,))
        log.log_delete((1, 2))
        proof = log.snapshot((2,))
        assert len(proof) == 4
        assert proof.conclusion == (2,)
        assert proof.counts() == {INPUT: 1, LEMMA: 1, RUP: 1, DELETE: 1}
        assert log.stats == {
            "inputs": 1,
            "lemmas": 1,
            "rup_steps": 1,
            "deletions": 1,
            "conclusions": 1,
        }
        # The snapshot is decoupled from later logging.
        log.log_rup((7,))
        assert len(proof) == 4

    def test_to_drat_rendering(self):
        log = ProofLog()
        log.log_input((1, 2))
        log.log_lemma((-1,), source="arith")
        log.log_rup((2,))
        log.log_delete((1, 2))
        log.log_rup(())
        proof = log.snapshot(())
        assert proof.to_drat() == "c t arith\n-1 0\n2 0\nd 1 2 0\n0\n"
        assert proof.to_drat(include_inputs=True).startswith("c i 1 2 0\n")

    def test_empty_proof_renders_empty(self):
        assert proof_of().to_drat() == ""


# ---------------------------------------------------------------------------
# The CDCL core logs certifiable proofs.
# ---------------------------------------------------------------------------


def solve_certified(clauses, assumptions=()):
    """Solve with proof logging on; on UNSAT return a checker-certified
    proof (asserting the certification on the way)."""
    solver = Solver()
    solver.proof = ProofLog()
    for clause in clauses:
        solver.add_clause(clause)
    answer = solver.solve(assumptions=list(assumptions))
    if answer != UNSAT:
        return answer, None
    core = solver.failed_assumptions or ()
    proof = solver.proof.snapshot(tuple(-lit for lit in core))
    verdict = check_proof(proof)
    assert verdict.ok, verdict.error
    return answer, proof


class TestSolverProofs:
    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_certified(self, holes):
        answer, proof = solve_certified(pigeonhole(holes))
        assert answer == UNSAT
        assert proof.conclusion == ()
        counts = proof.counts()
        assert counts[INPUT] == len(pigeonhole(holes))
        assert counts[RUP] >= 1

    def test_reduce_db_deletions_are_checkable(self):
        # php(5) is hard enough to trigger clause-database reduction, so
        # the proof exercises delete steps, not just additions.
        answer, proof = solve_certified(pigeonhole(5))
        assert answer == UNSAT
        assert proof.counts()[DELETE] > 0

    def test_random_cnf_sweep_certified(self):
        rng = random.Random(20260808)
        unsat_seen = 0
        for _ in range(150):
            clauses = random_cnf(rng, 9, 42)
            answer, proof = solve_certified(clauses)
            if answer == UNSAT:
                unsat_seen += 1
                assert proof.conclusion == ()
        assert unsat_seen >= 20, "sweep parameters should produce many unsat"

    def test_failed_assumption_core_is_the_conclusion(self):
        # x1 and x2 forced apart; assuming both fails and the proof
        # concludes exactly the negated failed-assumption core.
        answer, proof = solve_certified([[-1, -2]], assumptions=[1, 2])
        assert answer == UNSAT
        assert sorted(proof.conclusion) == [-2, -1]

    def test_assumption_core_subsets_are_rup(self):
        # Only assumption 3 participates in the conflict; the core (and
        # hence the conclusion) must not drag 1 and 2 in.
        answer, proof = solve_certified(
            [[-3, 4], [-3, -4]], assumptions=[1, 2, 3]
        )
        assert answer == UNSAT
        assert proof.conclusion == (-3,)

    def test_incremental_checks_share_one_log(self):
        solver = Solver()
        solver.proof = ProofLog()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        assert solver.solve(assumptions=[-2]) == UNSAT
        first = solver.proof.snapshot((2,))
        assert check_proof(first).ok
        assert solver.solve() == SAT
        solver.add_clause([-2])
        assert solver.solve() == UNSAT
        second = solver.proof.snapshot(())
        assert check_proof(second).ok
        # The earlier snapshot is a frozen prefix and still certifies.
        assert check_proof(first).ok
        assert len(second) > len(first)

    def test_sat_answers_do_not_conclude(self):
        solver = Solver()
        solver.proof = ProofLog()
        solver.add_clause([1, 2])
        assert solver.solve() == SAT
        assert solver.proof.stats["conclusions"] == 0


# ---------------------------------------------------------------------------
# Engine end-to-end: scripts to certified proofs.
# ---------------------------------------------------------------------------


LIA_UNSAT = """
(set-logic QF_LIA)
(declare-const x Int)
(declare-const y Int)
(assert (or (= (* 2 x) (+ (* 2 y) 1)) (and (< x 0) (> x 0))))
(check-sat)
"""

EUF_UNSAT = """
(set-logic QF_UF)
(declare-sort U 0)
(declare-const a U)
(declare-const b U)
(declare-fun f (U) U)
(assert (= a b))
(assert (distinct (f a) (f b)))
(check-sat)
"""

PROP_UNSAT = """
(declare-const p Bool)
(declare-const q Bool)
(assert (and (or p q) (or (not p) q) (or p (not q)) (or (not p) (not q))))
(check-sat)
"""


BASE_CONTRADICTION = """
(declare-const p Bool)
(assert p)
(assert (not p))
(check-sat)
"""


def certified_checks(source, **kwargs):
    checks = solve_script(source, produce_proofs=True, **kwargs)
    for check in checks:
        if check.answer == "unsat":
            assert check.proof is not None, "unsat without a proof"
            verdict = check_proof(check.proof)
            assert verdict.ok, verdict.error
    return checks


class TestEngineProofs:
    @pytest.mark.parametrize(
        "source",
        [LIA_UNSAT, EUF_UNSAT, PROP_UNSAT, BASE_CONTRADICTION],
        ids=["lia", "euf", "prop", "base-contradiction"],
    )
    def test_unsat_scripts_carry_certified_proofs(self, source):
        checks = certified_checks(source)
        assert [check.answer for check in checks] == ["unsat"]

    def test_base_frame_contradiction_found_while_shipping(self):
        # The base frame's unit clauses p and ¬p clash as they ship, so
        # the solver is unsat before any search — and stays unsat in a
        # pushed frame and after popping it.
        checks = certified_checks(
            BASE_CONTRADICTION
            + "(declare-const q Bool)\n(push 1)\n(assert (! q :named nq))\n"
            "(check-sat)\n(pop 1)\n(check-sat)\n",
            produce_unsat_cores=True,
        )
        assert [check.answer for check in checks] == ["unsat"] * 3
        assert checks[0].proof.conclusion == ()
        assert checks[1].unsat_core == ()
        assert checks[2].unsat_core == ()

    def test_theory_lemmas_carry_plugin_provenance(self):
        (check,) = certified_checks(EUF_UNSAT)
        sources = {
            step.source for step in check.proof.steps if step.kind == LEMMA
        }
        assert "euf" in sources

    def test_arith_lemmas_carry_plugin_provenance(self):
        (check,) = certified_checks(
            "(set-logic QF_LIA)\n(declare-const x Int)\n"
            "(assert (< x 0))\n(assert (> x 0))\n(check-sat)\n"
        )
        sources = {
            step.source for step in check.proof.steps if step.kind == LEMMA
        }
        assert "arith" in sources

    def test_sat_checks_have_no_proof(self):
        (check,) = solve_script(
            "(declare-const p Bool)\n(assert p)\n(check-sat)\n",
            produce_proofs=True,
        )
        assert check.answer == "sat" and check.proof is None

    def test_proofs_off_by_default(self):
        (check,) = solve_script(LIA_UNSAT)
        assert check.answer == "unsat" and check.proof is None

    def test_set_option_enables_proofs_in_script(self):
        source = "(set-option :produce-proofs true)\n" + PROP_UNSAT
        (check,) = solve_script(source)
        assert check.answer == "unsat"
        assert check.proof is not None and check_proof(check.proof).ok

    def test_enabling_proofs_after_clauses_shipped_raises(self):
        engine = Engine()
        script = parse_script(
            "(declare-const p Bool)\n(assert p)\n(check-sat)\n"
            "(set-option :produce-proofs true)\n"
        )
        with pytest.raises(SolverError):
            engine.run(script)

    def test_trivially_false_assertion_certifies(self):
        (check,) = certified_checks("(assert false)\n(check-sat)\n")
        assert check.answer == "unsat"
        assert check.proof.conclusion == ()
        assert any(step.lits == () for step in check.proof.steps)

    def test_incremental_push_pop_proofs(self):
        source = """
(set-option :produce-proofs true)
(declare-const p Bool)
(declare-const q Bool)
(assert (or p q))
(push 1)
(assert (not p))
(assert (not q))
(check-sat)
(pop 1)
(check-sat)
(push 1)
(assert (and (not p) (not q)))
(check-sat)
"""
        result = run_script(source)
        answers = result.answers
        assert answers == ["unsat", "sat", "unsat"]
        for check in result.check_results:
            if check.answer == "unsat":
                assert check.proof is not None
                assert check_proof(check.proof).ok

    def test_proof_metrics_registered(self):
        engine = Engine(produce_proofs=True)
        engine.run(parse_script(PROP_UNSAT))
        snapshot = engine.metrics.snapshot()
        assert snapshot.get("proof.inputs", 0) > 0
        assert snapshot.get("proof.conclusions", 0) == 1

    def test_proof_span_traced(self):
        from repro.obs import Observability, phase_totals, set_current_tracer

        obs = Observability.tracing()
        engine = Engine(produce_proofs=True, obs=obs)
        previous = set_current_tracer(obs.tracer)
        try:
            engine.run(parse_script(PROP_UNSAT))
        finally:
            set_current_tracer(previous)
        paths = set(phase_totals(obs.tracer))
        assert any(path.endswith("proof") for path in paths), paths
