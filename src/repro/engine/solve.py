"""The incremental CDCL(T) solve loop.

:class:`Engine` executes a script command by command.  Unlike the PR-3
monolith it keeps **one** SAT solver and **one** Tseitin encoder alive for
the whole run:

* Every assertion-stack frame owns a *selector* variable; an assertion in
  frame ``i`` is encoded once as the guarded clause ``(¬sel_i ∨ root)``
  and every ``check-sat`` solves under the assumptions ``sel_0 … sel_k``
  of the live frames.  ``pop`` retires a frame by adding the permanent
  unit ``¬sel_i`` — its clauses become vacuous, while learned clauses
  (which may mention selectors) stay valid and keep pruning later checks.
* The encoder's node → literal memo is keyed on hash-consed terms, so a
  ``check-sat`` after ``push``/``pop`` re-encodes **nothing** for
  unchanged assertions (the check's ``engine.tseitin_new_vars`` metric
  is 0).
* Theory reasoning is layered in through :class:`repro.sat.TheoryHook`:
  the hook keeps a :class:`~repro.theory.TheoryComposite` — linear
  arithmetic (:class:`~repro.theory.ArithTheory`) routed ahead of
  congruence closure (:class:`~repro.theory.EufTheory`) — synchronized
  with the SAT trail via per-literal checkpoints (``push`` on assert,
  ``pop`` on backtrack) and translates theory conflicts into blocking
  clauses over the atom variables.

Answer semantics stay *sound*:

* ``unsat`` — the guarded CNF plus theory lemmas is unsatisfiable under
  the live selectors.  Atoms no theory owns are abstracted (an
  over-approximation), so propositional unsatisfiability implies real
  unsatisfiability.
* ``sat`` — only when every atom of the live assertions is either a
  boolean symbol (decided by the SAT core) or owned by a theory plugin,
  *and* the assembled model — boolean values, rational/integer simplex
  values, congruence-class values and uninterpreted-function graphs —
  makes
  :func:`~repro.smtlib.evaluate.evaluate` return ``true`` on every live
  assertion.  The validation runs inside the engine; a model that cannot
  be built or checked demotes the answer to ``unknown``.
* anything else — ``unknown`` with a reason (``abstracted-atoms``,
  ``conflict-limit``, ``timeout``, ``cancelled``,
  ``branch-budget-exhausted``, ``model-construction-failed``,
  ``model-validation-failed``).
"""

from __future__ import annotations

from time import monotonic
from typing import Callable, Iterable, Optional, Sequence, Union

from ..errors import EvaluationError, SolverError
from ..limits import ensure_recursion_limit
from ..obs import Observability
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.profile import phase_totals
from ..obs.spans import get_current_tracer, set_current_tracer, trace_span
from ..proof.log import INPUT, Proof, ProofLog, ProofStep
from ..sat import SAT, UNKNOWN, UNSAT, Solver, SolverConfig, TheoryHook, TheoryLemma
from ..sat.dimacs import to_dimacs
from ..smtlib.cnf import skeleton_atoms
from ..smtlib.evaluate import FunctionInterpretation, evaluate
from ..smtlib.parser import parse_script
from ..smtlib.printer import (
    constant_to_smtlib,
    sort_to_smtlib,
    symbol_to_smtlib,
    term_to_smtlib,
)
from ..smtlib.script import (
    Assert,
    CheckSat,
    Command,
    DeclareConst,
    DeclareFun,
    DefineFun,
    Exit,
    GetModel,
    GetUnsatCore,
    GetValue,
    Pop,
    Push,
    Script,
    SetInfo,
    SetOption,
)
from ..smtlib.simplify import simplify, to_nnf
from ..smtlib.sorts import BOOL, Sort
from ..smtlib.terms import (
    FALSE,
    TRUE,
    Apply,
    Constant,
    Symbol,
    Term,
    bool_const,
    intern_stats,
)
from ..theory import (
    ArithTheory,
    ArraysState,
    ArraysTheory,
    BvBlaster,
    EufTheory,
    SortValueAllocator,
    Theory,
    TheoryComposite,
)
from .atoms import AtomRegistry
from .context import (
    Frame,
    expand_arithmetic,
    expand_equalities,
    expand_lets,
    inline_definitions,
)
from .result import CheckSatResult, ScriptResult


class _TheorySync(TheoryHook):
    """Keeps a :class:`Theory` synchronized with the SAT trail.

    The hook re-reads the trail at every callback, pops the theory to the
    longest common prefix with what it asserted last time (per-literal
    checkpoints make this exact), asserts the new suffix, and converts
    any :class:`~repro.theory.TheoryConflict` into a blocking clause over
    the atom variables.
    """

    def __init__(
        self,
        theory: Theory,
        var_to_atom: dict[int, Term],
        atom_vars: dict[Term, int],
        events: Optional[EventLog] = None,
        encode_atom: Optional[Callable[[Term], int]] = None,
    ) -> None:
        self._theory = theory
        self._var_to_atom = var_to_atom
        self._atom_vars = atom_vars
        self._events = events
        self._encode_atom = encode_atom
        self._synced: list[int] = []

    def on_check(self, solver: Solver, final: bool) -> Iterable[Sequence[int]]:
        # One merged span per search: the hook fires at every
        # decision-level fixpoint, so distinct spans would explode.
        with trace_span("theory-check", merge=True):
            return self._sync_and_check(solver, final)

    def _sync_and_check(
        self, solver: Solver, final: bool
    ) -> Iterable[Sequence[int]]:
        trail = solver.trail
        synced = self._synced
        # The solver's low watermark bounds how far the trail can have
        # been rewound since the last callback, so synchronization costs
        # O(popped + appended), not a prefix rescan per fixpoint.
        keep = min(len(synced), solver.trail_watermark())
        if keep < len(synced):
            self._theory.pop(len(synced) - keep)
            del synced[keep:]
        conflict = None
        for lit in trail[len(synced) :]:
            self._theory.push()
            synced.append(lit)
            atom = self._var_to_atom.get(abs(lit))
            if atom is not None:
                conflict = self._theory.assert_literal(atom, lit > 0)
                if conflict is not None:
                    break
        if conflict is None and final:
            conflict = self._theory.check()
            if conflict is None:
                # Lazy instantiation: valid clauses the theory wants the
                # SAT core to case-split on (new atoms encode on the fly).
                return self._lemma_clauses()
        if conflict is None:
            return ()
        clause = []
        for atom, positive in conflict.literals:
            var = self._atom_vars[atom]
            clause.append(-var if positive else var)
        if self._events is not None:
            self._events.emit(
                "theory-conflict",
                plugin=conflict.source or self._theory.name,
                size=len(clause),
            )
        # TheoryLemma tags the clause with its plugin so proof logging
        # records the lemma's provenance (a plain list works identically
        # when no proof log is attached).
        return (TheoryLemma(clause, source=conflict.source or self._theory.name),)

    def _lemma_clauses(self) -> list[TheoryLemma]:
        lemmas = self._theory.pending_lemmas()
        if not lemmas:
            return []
        clauses: list[TheoryLemma] = []
        for lemma in lemmas:
            clause = []
            for atom, positive in lemma.literals:
                var = self._atom_vars.get(atom)
                if var is None:
                    assert self._encode_atom is not None, (
                        "theory emitted a lemma over a new atom but the "
                        "engine provided no encoder"
                    )
                    var = self._encode_atom(atom)
                    if self._theory.owns_atom(atom):
                        # Future syncs must route the new atom's trail
                        # literals back to the theory.
                        self._var_to_atom[var] = atom
                clause.append(var if positive else -var)
            clauses.append(
                TheoryLemma(clause, source=lemma.source or self._theory.name)
            )
        return clauses


class Engine:
    """Executes scripts; one instance per run (:meth:`run` resets state).

    ``conflict_limit`` bounds the CDCL search per ``check-sat`` (exhausted
    → ``unknown`` with reason ``conflict-limit``).  ``theory_eager``
    controls whether the theory hook runs at every decision-level
    fixpoint (the default) or only at full assignments.  ``obs`` plugs an
    :class:`~repro.obs.Observability` bundle in: its metrics registry
    absorbs the SAT-core, theory-plugin, intern-table and engine counters
    under one namespace; its tracer (when present) is installed for the
    duration of :meth:`run` and records per-phase spans; its event log
    (when present) receives the structured search events.  Without an
    explicit bundle the engine still keeps a metrics registry (cheap:
    plain-dict sources, no hot-path indirection) but traces and logs
    nothing.

    ``produce_proofs`` attaches a :class:`~repro.proof.ProofLog` to the
    SAT core so every ``unsat`` :class:`CheckSatResult` carries a
    checkable clause proof (``(set-option :produce-proofs true)`` before
    the first clause ships does the same).  ``produce_unsat_cores``
    enables ``:named``-assertion core extraction and ``(get-unsat-core)``
    (equivalent to ``(set-option :produce-unsat-cores true)``, which may
    also toggle it mid-script).

    ``config`` selects the SAT core's search strategy (see
    :class:`~repro.sat.SolverConfig`; the default reproduces the
    historical behavior exactly).  ``timeout`` is a wall-clock budget in
    seconds for the whole :meth:`run` — once it expires, in-flight and
    subsequent ``check-sat`` commands answer ``unknown`` with reason
    ``timeout``.  ``interrupt`` is a zero-argument callable polled at
    search boundaries; returning true stops the current search with
    reason ``cancelled`` (the portfolio's cooperative-cancellation hook).
    """

    def __init__(
        self,
        conflict_limit: Optional[int] = None,
        theory_eager: bool = True,
        obs: Optional[Observability] = None,
        produce_proofs: bool = False,
        produce_unsat_cores: bool = False,
        config: Optional[SolverConfig] = None,
        timeout: Optional[float] = None,
        interrupt: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._conflict_limit = conflict_limit
        self._theory_eager = theory_eager
        self._obs = obs if obs is not None else Observability()
        self._produce_proofs = produce_proofs
        self._produce_cores_default = produce_unsat_cores
        self._config = config
        self._timeout = timeout
        self._interrupt = interrupt
        self._deadline: Optional[float] = None
        self._reset()

    def _reset(self) -> None:
        self._frames: list[Frame] = [Frame()]
        self._solver = Solver(config=self._config)
        self._solver.events = self._obs.events
        self._registry = AtomRegistry()
        # The blaster and the array-lemma state outlive individual checks:
        # blasted circuits are memoized on hash-consed terms, and emitted
        # case-split lemmas are permanent clauses that must not re-ship.
        self._bv = BvBlaster()
        self._arrays_state = ArraysState()
        self._array_atom_memo: dict[Term, bool] = {}
        self._clauses_shipped = 0
        self._guard_clauses = 0
        self._retired_selectors = 0
        self._encoded_assertions = 0
        self._tseitin_new_vars = 0
        self._tseitin_new_clauses = 0
        self._trivial_checks = 0
        self._checks_run = 0
        self._active_atoms = 0
        self._last: Optional[CheckSatResult] = None
        self._status: Optional[str] = None
        self._produce_cores = self._produce_cores_default
        metrics = self._obs.metrics
        metrics.unregister_prefix("proof")
        if self._produce_proofs:
            self._enable_proofs()
        metrics.register_source("sat", lambda: self._solver.stats)
        metrics.register_source("intern", intern_stats, gauges=("live",))
        metrics.register_source(
            "engine",
            self._engine_counters,
            gauges=("vars", "atoms", "learned_db", "frames"),
        )

    def _enable_proofs(self) -> None:
        """Attach a proof log to the SAT core (idempotent).

        Raises :class:`~repro.errors.SolverError` once clauses have
        shipped: a proof must cover every clause the solver ever saw, so
        late enabling would certify against an incomplete axiom set."""
        if self._solver.proof is not None:
            return
        if self._clauses_shipped:
            raise SolverError(
                ":produce-proofs must be enabled before the first check-sat "
                "ships clauses to the solver"
            )
        self._solver.proof = ProofLog()
        self._obs.metrics.register_source("proof", self._proof_counters)

    def _proof_counters(self) -> dict[str, int]:
        proof = self._solver.proof
        return proof.stats if proof is not None else {}

    def _engine_counters(self) -> dict[str, int]:
        return {
            "clauses_shipped": self._clauses_shipped,
            "guard_clauses": self._guard_clauses,
            "retired_selectors": self._retired_selectors,
            "encoded_assertions": self._encoded_assertions,
            "tseitin_new_vars": self._tseitin_new_vars,
            "tseitin_new_clauses": self._tseitin_new_clauses,
            "trivial": self._trivial_checks,
            "checks": self._checks_run,
            "vars": self._registry.num_vars,
            "atoms": self._active_atoms,
            "learned_db": self._solver.num_learnts,
            "frames": len(self._frames),
        }

    # -- introspection -------------------------------------------------------

    @property
    def obs(self) -> Observability:
        """The engine's observability bundle (always present)."""
        return self._obs

    @property
    def metrics(self) -> MetricsRegistry:
        """The unified metrics registry; ``snapshot()`` gives every
        counter namespaced (``sat.*``, ``theory.*``, ``intern.*``,
        ``engine.*``)."""
        return self._obs.metrics

    @property
    def solver(self) -> Solver:
        """The persistent SAT core (live across ``check-sat`` calls)."""
        return self._solver

    @property
    def registry(self) -> AtomRegistry:
        """The persistent atom ↔ variable registry."""
        return self._registry

    @property
    def expected_status(self) -> Optional[str]:
        """The pending ``(set-info :status ...)`` value, if any.

        Following the benchmark convention, an annotation applies to the
        *next* ``check-sat`` (multi-query scripts re-annotate before each
        query); the check consumes it.
        """
        return self._status

    def dimacs(self, comments: Iterable[str] = ()) -> str:
        """The current solver CNF (gates, guards, facts and theory
        lemmas) in DIMACS format."""
        num_vars, clauses = self._solver.export_cnf()
        return to_dimacs(max(num_vars, self._registry.num_vars), clauses, comments)

    # -- command loop -------------------------------------------------------

    def run(self, script: Script) -> ScriptResult:
        """Execute every command of ``script`` and collect the results."""
        # The term pipeline recurses over term depth; guard here so every
        # caller (API, CLI, portfolio worker) gets the same headroom.
        ensure_recursion_limit()
        self._reset()
        if self._timeout is not None:
            self._deadline = monotonic() + self._timeout
        result = ScriptResult()
        tracer = self._obs.tracer
        previous = set_current_tracer(tracer) if tracer is not None else None
        try:
            for command in script.commands:
                if isinstance(command, Exit):
                    break
                self._execute(command, result)
        finally:
            if tracer is not None:
                set_current_tracer(previous)
        return result

    def _execute(self, command: Command, result: ScriptResult) -> None:
        if isinstance(command, Assert):
            frame = self._frames[-1]
            frame.assertions.append(command.term)
            frame.names.append(command.name)
            if command.name is not None:
                # The label aliases its term (SMT-LIB 2.6 §4.1.5), so
                # later occurrences of the name inline to the term.
                frame.definitions[command.name] = DefineFun(
                    command.name, (), BOOL, command.term
                )
        elif isinstance(command, CheckSat):
            check = self._check_sat()
            self._last = check
            result.check_results.append(check)
            result.output.append(check.answer)
        elif isinstance(command, GetModel):
            result.output.append(self._get_model())
        elif isinstance(command, GetUnsatCore):
            result.output.append(self._get_unsat_core())
        elif isinstance(command, GetValue):
            result.output.append(self._get_value(command.terms))
        elif isinstance(command, Push):
            for _ in range(command.levels):
                self._frames.append(Frame())
            if self._obs.events is not None:
                self._obs.events.emit(
                    "push", levels=command.levels, depth=len(self._frames)
                )
        elif isinstance(command, Pop):
            if command.levels >= len(self._frames):
                raise SolverError(
                    f"cannot pop {command.levels} level(s) at depth {len(self._frames)}"
                )
            for frame in self._frames[len(self._frames) - command.levels :]:
                if frame.selector is not None:
                    # Retire the frame: its guarded clauses become vacuous.
                    self._retired_selectors += 1
                    self._add_clause((-frame.selector,))
                for _name, selector in frame.named:
                    # Named assertions carry their own selector; retire
                    # those too so popped labels leave future cores.
                    self._retired_selectors += 1
                    self._add_clause((-selector,))
            del self._frames[len(self._frames) - command.levels :]
            if self._obs.events is not None:
                self._obs.events.emit(
                    "pop", levels=command.levels, depth=len(self._frames)
                )
        elif isinstance(command, DefineFun):
            self._frames[-1].definitions[command.name] = command
        elif isinstance(command, DeclareConst):
            self._frames[-1].consts[command.name] = command.sort
        elif isinstance(command, DeclareFun):
            if command.params:
                self._frames[-1].funs[command.name] = command.signature
            else:
                self._frames[-1].consts[command.name] = command.result
        elif isinstance(command, SetOption):
            if command.keyword == ":produce-unsat-cores":
                if command.value in ("true", "false"):
                    self._produce_cores = command.value == "true"
            elif command.keyword == ":produce-proofs":
                if command.value == "true":
                    self._enable_proofs()
                elif command.value == "false":
                    self._solver.proof = None
        elif isinstance(command, SetInfo):
            if command.keyword == ":status" and command.value in (
                "sat",
                "unsat",
                "unknown",
            ):
                self._status = command.value
        # set-logic / other set-option/set-info / declare-sort: no action.

    # -- incremental encoding ------------------------------------------------

    def _add_clause(self, clause: Sequence[int]) -> None:
        self._clauses_shipped += 1
        self._solver.add_clause(clause)

    def _prepare_frames(self) -> None:
        """Inline/expand/simplify assertions added since the last check."""
        definitions: dict[str, DefineFun] = {}
        for frame in self._frames:
            definitions.update(frame.definitions)
        inline_memo: dict[tuple[Term, frozenset[str]], Term] = {}
        let_memo: dict[Term, Term] = {}
        eq_memo: dict[Term, Term] = {}
        arith_memo: dict[Term, Term] = {}
        for frame in self._frames:
            while len(frame.prepared) < len(frame.assertions):
                term = frame.assertions[len(frame.prepared)]
                term = inline_definitions(term, definitions, frozenset(), inline_memo)
                term = expand_lets(term, let_memo)
                term = expand_equalities(term, eq_memo)
                term = expand_arithmetic(term, arith_memo)
                frame.prepared.append(term)
                with trace_span("simplify", merge=True):
                    frame.simplified.append(simplify(term))

    def _encode_frames(self) -> None:
        """Encode assertions added since the last check, counting
        ``engine.encoded_assertions``, ``engine.tseitin_new_vars`` and
        ``engine.tseitin_new_clauses``.

        ``tseitin_new_clauses`` counts only the drained Tseitin gate
        clauses — the per-assertion selector guards ``(¬sel ∨ root)`` are
        engine bookkeeping, tallied separately as
        ``engine.guard_clauses``.
        """
        vars_before = self._registry.num_vars
        for frame in self._frames:
            if frame.selector is None:
                frame.selector = self._registry.new_selector()
            while frame.encoded < len(frame.simplified):
                index = frame.encoded
                term = frame.simplified[index]
                frame.encoded += 1
                if term is TRUE or term is FALSE:
                    # TRUE constrains nothing; FALSE short-circuits in
                    # _check_sat before the solver ever runs.
                    frame.atom_lists.append(())
                    continue
                with trace_span("blast", merge=True):
                    term = self._bv.rewrite(term)
                if term is TRUE:
                    # The whole assertion folded away during blasting.
                    frame.atom_lists.append(())
                    continue
                # A blast to FALSE still encodes: the check already passed
                # the trivial-FALSE gate, so unsatisfiability must surface
                # through the solver (keeping the proof machinery uniform).
                nnf = to_nnf(term)
                root = self._registry.encode(nnf)
                frame.atom_lists.append(tuple(skeleton_atoms(nnf)))
                self._encoded_assertions += 1
                for clause in self._registry.drain_clauses():
                    self._add_clause(clause)
                    self._tseitin_new_clauses += 1
                name = frame.names[index]
                guard = frame.selector
                if name is not None:
                    # A named assertion is guarded by its own selector,
                    # assumed alongside the frame selectors, so the failed
                    # assumptions of an unsat answer name the core exactly.
                    guard = self._registry.new_selector()
                    frame.named.append((name, guard))
                self._guard_clauses += 1
                self._add_clause((-guard, root))
        self._solver.ensure_vars(self._registry.num_vars)
        self._tseitin_new_vars += self._registry.num_vars - vars_before

    def _encode_lemma_atom(self, atom: Term) -> int:
        """Allocate a SAT variable for an atom a theory lemma introduced
        mid-search.  Lemma atoms are always leaves (equalities, predicate
        applications), so encoding allocates a variable and no gate
        clauses; the assertion guards that invariant."""
        var = self._registry.encode(atom)
        gates = self._registry.drain_clauses()
        assert not gates, "theory lemmas must range over atomic literals"
        self._solver.ensure_vars(self._registry.num_vars)
        return var

    def _mentions_arrays(self, atom: Term) -> bool:
        """True when the atom contains array structure (memoized)."""
        cached = self._array_atom_memo.get(atom)
        if cached is None:
            cached = any(
                node.sort.name == "Array"
                or (
                    isinstance(node, Apply)
                    and not node.indices
                    and node.op in ("select", "store")
                )
                for node in atom.walk()
            )
            self._array_atom_memo[atom] = cached
        return cached

    # -- the check-sat pipeline ---------------------------------------------

    def _check_sat(self) -> CheckSatResult:
        index = self._checks_run
        events = self._obs.events
        if events is not None:
            events.emit("check-begin", index=index)
        tracer = get_current_tracer()
        if tracer is None:
            check = self._check_sat_inner()
        else:
            handle = tracer.span("check-sat")
            with handle:
                check = self._check_sat_inner()
            for path, row in phase_totals([handle.span]).items():
                if path == "check-sat":
                    check.phases["total"] = row["ns"]
                else:
                    check.phases[path.removeprefix("check-sat/")] = row["ns"]
        if events is not None:
            if check.answer == "unknown" and check.reason is not None:
                events.emit("unknown", index=index, reason=check.reason)
            events.emit("check-end", index=index, answer=check.answer)
        return check

    def _check_sat_inner(self) -> CheckSatResult:
        expected, self._status = self._status, None
        metrics = self._obs.metrics
        # Theory plugins are per-check; drop last check's sources so the
        # snapshot delta reports this check's plugins from zero.
        metrics.unregister_prefix("theory.")
        # The blaster is engine-lived (its memo must survive push/pop), so
        # it re-registers before the snapshot: the delta then reports this
        # check's blasting increments, like any persistent source.
        metrics.register_source("theory.bv", lambda: self._bv.stats)
        before = metrics.snapshot()
        # Increment after the snapshot so each check's delta shows
        # ``engine.checks == 1`` rather than a stale zero.
        self._checks_run += 1
        with trace_span("prepare"):
            self._prepare_frames()
        active_prepared = tuple(
            term for frame in self._frames for term in frame.prepared
        )

        if any(
            term is FALSE for frame in self._frames for term in frame.simplified
        ):
            # Nothing is encoded or solved, so the delta's solver and
            # encoder counters are all zero.
            self._trivial_checks += 1
            self._active_atoms = 0
            proof, core = self._trivial_unsat_artifacts()
            return CheckSatResult(
                "unsat",
                assertions=active_prepared,
                expected=expected,
                metrics=metrics.delta(before),
                proof=proof,
                unsat_core=core,
            )

        with trace_span("encode"):
            self._encode_frames()
        active_atoms: list[Term] = []
        seen_atoms: set[Term] = set()
        for frame in self._frames:
            for atoms in frame.atom_lists:
                for atom in atoms:
                    if atom not in seen_atoms:
                        seen_atoms.add(atom)
                        active_atoms.append(atom)
        self._active_atoms = len(active_atoms)

        uninterpreted = frozenset(
            name for frame in self._frames for name in frame.funs
        )
        # Theory dispatch: arithmetic first (numeric comparisons are
        # never uninterpreted structure), then congruence closure; the
        # composite routes each atom to the first plugin owning it.  When
        # any live atom carries array structure the congruence plugin is
        # the arrays extension (one e-graph subsuming EUF) — a separate
        # plugin would not see the index equalities closure needs.
        closure: Theory
        if any(self._mentions_arrays(atom) for atom in active_atoms):
            closure = ArraysTheory(
                uninterpreted=uninterpreted, state=self._arrays_state
            )
        else:
            closure = EufTheory(uninterpreted=uninterpreted)
        theory: Optional[Theory] = TheoryComposite((ArithTheory(), closure))
        owned: list[Term] = []
        unowned: list[Term] = []
        for atom in active_atoms:
            if isinstance(atom, Symbol) and atom.sort == BOOL:
                continue  # the SAT core owns plain boolean symbols
            if theory.owns_atom(atom):
                owned.append(atom)
            else:
                unowned.append(atom)
        if owned:
            atom_vars = self._registry.atom_vars
            var_to_atom = {atom_vars[atom]: atom for atom in owned}
            self._solver.theory = _TheorySync(
                theory,
                var_to_atom,
                atom_vars,
                self._obs.events,
                encode_atom=self._encode_lemma_atom,
            )
            self._solver.theory_eager = self._theory_eager
        else:
            theory = None
            self._solver.theory = None
        if theory is not None:
            # Register after the `before` snapshot: the plugins are fresh,
            # so the delta reports their counters as absolute per-check
            # values.
            theory.register_metrics(metrics)

        # _encode_frames allocated every selector; the filter is for typing.
        selectors = [
            frame.selector for frame in self._frames if frame.selector is not None
        ]
        named_live = [
            (name, selector)
            for frame in self._frames
            for name, selector in frame.named
        ]
        assumptions = selectors + [selector for _name, selector in named_live]
        with trace_span("search"):
            answer = self._solver.solve(
                conflict_limit=self._conflict_limit,
                assumptions=assumptions,
                deadline=self._deadline,
                interrupt=self._interrupt,
            )
        delta = metrics.delta(before)

        def outcome(
            kind: str,
            reason: Optional[str] = None,
            model: Optional[dict[str, Constant]] = None,
            fun_interps: Optional[dict[str, FunctionInterpretation]] = None,
            proof: Optional[Proof] = None,
            unsat_core: Optional[tuple[str, ...]] = None,
        ) -> CheckSatResult:
            return CheckSatResult(
                kind,
                model=model,
                fun_interps=fun_interps,
                assertions=active_prepared,
                reason=reason,
                expected=expected,
                metrics=delta,
                proof=proof,
                unsat_core=unsat_core,
            )

        if answer == UNSAT:
            failed = self._solver.failed_assumptions or ()
            core: Optional[tuple[str, ...]] = None
            if self._produce_cores:
                failed_set = set(failed)
                core = tuple(
                    name for name, selector in named_live if selector in failed_set
                )
            proof: Optional[Proof] = None
            if self._solver.proof is not None:
                # The conclusion is the negated failed-assumption core —
                # exactly the solver's concluding RUP step, so the
                # snapshot is checkable as-is.
                with trace_span("proof"):
                    proof = self._solver.proof.snapshot(
                        tuple(-lit for lit in failed)
                    )
            return outcome("unsat", proof=proof, unsat_core=core)
        if answer == UNKNOWN:
            return outcome(
                "unknown", reason=self._solver.stop_reason or "conflict-limit"
            )
        assert answer == SAT
        if unowned:
            return outcome("unknown", reason="abstracted-atoms")

        with trace_span("model"):
            model, fun_interps, failure = self._build_model(theory, active_atoms)
        if failure is not None:
            return outcome("unknown", reason=failure)
        assert model is not None
        with trace_span("validate"):
            try:
                for term in active_prepared:
                    if evaluate(term, model, fun_interps) is not TRUE:
                        return outcome("unknown", reason="model-validation-failed")
            except EvaluationError:
                return outcome("unknown", reason="model-validation-failed")
        return outcome("sat", model=model, fun_interps=fun_interps)

    def _trivial_unsat_artifacts(
        self,
    ) -> tuple[Optional[Proof], Optional[tuple[str, ...]]]:
        """Proof and core for a check short-circuited by a ``FALSE``
        assertion (nothing was encoded or solved).

        The shared incremental proof log is left untouched — a popped
        ``FALSE`` frame must not poison later checks' proofs — so the
        proof is a standalone one-step argument: the simplified assertion
        *is* the empty clause.  The core is the first ``FALSE`` named
        assertion's label, or empty when an unnamed assertion is already
        ``FALSE`` on its own (the background alone is unsat)."""
        proof: Optional[Proof] = None
        if self._solver.proof is not None:
            proof = Proof(
                (ProofStep(INPUT, (), source="assert-false"),), conclusion=()
            )
        if not self._produce_cores:
            return proof, None
        named_false: Optional[str] = None
        for frame in self._frames:
            for index, term in enumerate(frame.simplified):
                if term is not FALSE:
                    continue
                name = frame.names[index]
                if name is None:
                    return proof, ()
                if named_false is None:
                    named_false = name
        return proof, (named_false,) if named_false is not None else ()

    def _build_model(
        self,
        theory: Optional[Theory],
        active_atoms: list[Term],
    ) -> tuple[
        Optional[dict[str, Constant]],
        dict[str, FunctionInterpretation],
        Optional[str],
    ]:
        """Assemble the script-level model from the SAT assignment, the
        theory's congruence classes and per-sort default values."""
        sat_model = self._solver.model
        assert sat_model is not None
        atom_vars = self._registry.atom_vars
        model: dict[str, Constant] = {}
        for atom in active_atoms:
            if isinstance(atom, Symbol) and atom.sort == BOOL:
                model[atom.name] = bool_const(sat_model[atom_vars[atom]])
        allocator = SortValueAllocator()
        free: dict[str, Sort] = {}
        for frame in self._frames:
            for term in frame.prepared:
                free.update(term.free_symbols())
        # Bit-vector symbols live in the model as their blasted bits;
        # decode them to word values (and drop the bits) before anything
        # defaults them.  Reserving the decoded constants keeps values
        # minted for other symbols of the same sort distinct from them.
        declared = {
            name for frame in self._frames for name in frame.consts
        }
        decoded: dict[str, Constant] = {}
        for name, value in self._bv.decode(model).items():
            if name in free or name in declared:
                decoded[name] = value
                allocator.reserve(value)
        for name in list(model):
            if self._bv.is_bit(name):
                del model[name]
        fun_interps: dict[str, FunctionInterpretation] = {}
        if theory is not None:
            theory_model = theory.model(allocator)
            if theory_model is None:
                reason = theory.incomplete_reason() or "model-construction-failed"
                return None, {}, reason
            model.update(theory_model.values)
            fun_interps = theory_model.functions
        # Decoded words override any congruence-class value for the same
        # symbol: the bits are hard SAT constraints, and validation will
        # catch a genuine circuit/e-graph disagreement.
        model.update(decoded)
        # A declared function whose every occurrence simplified away (a
        # trivial atom such as (= (f a) (f a))) never reaches the theory,
        # yet validation evaluates the *prepared* assertions, which still
        # apply it: give it an unconstrained default interpretation.
        for frame in self._frames:
            for name, signature in frame.funs.items():
                if name in fun_interps:
                    continue
                if signature.result == BOOL:
                    default: Optional[Constant] = FALSE
                else:
                    default = allocator.fresh(signature.result)
                    if default is None:
                        return None, {}, "model-construction-failed"
                fun_interps[name] = FunctionInterpretation({}, default)
        # The builtin ``select`` can drop out the same way (every read
        # sat inside a trivial atom): validation still evaluates it, so
        # back it with an unconstrained graph over the element sort.
        if "select" not in fun_interps:
            for frame in self._frames:
                for term in frame.prepared:
                    for node in term.walk():
                        if (
                            isinstance(node, Apply)
                            and node.op == "select"
                            and not node.indices
                        ):
                            if node.sort == BOOL:
                                select_default: Optional[Constant] = FALSE
                            else:
                                select_default = allocator.fresh(node.sort)
                            if select_default is not None:
                                fun_interps["select"] = FunctionInterpretation(
                                    {}, select_default
                                )
                            break
                    if "select" in fun_interps:
                        break
                if "select" in fun_interps:
                    break
        for name, sort in free.items():
            if name in model:
                continue
            if self._bv.is_bit(name):
                continue
            if sort == BOOL:
                model[name] = FALSE
                continue
            value = allocator.fresh(sort)
            if value is None:
                return None, {}, "model-construction-failed"
            model[name] = value
        # Declared-but-unused constants are don't-cares; give them values
        # anyway so (get-model) is total over the declarations.
        for frame in self._frames:
            for name, sort in frame.consts.items():
                if name in model:
                    continue
                if sort == BOOL:
                    model[name] = FALSE
                else:
                    value = allocator.fresh(sort)
                    if value is not None:
                        model[name] = value
        return model, fun_interps, None

    # -- model queries ------------------------------------------------------

    def _get_model(self) -> str:
        if self._last is None or self._last.model is None:
            return '(error "no model available: last check-sat was not sat")'
        lines = ["(model"]
        for name in sorted(self._last.model):
            value = self._last.model[name]
            lines.append(
                f"  (define-fun {symbol_to_smtlib(name)} ()"
                f" {sort_to_smtlib(value.sort)} {constant_to_smtlib(value)})"
            )
        for name in sorted(self._last.fun_interps or ()):
            rendered = self._render_interpretation(
                name, (self._last.fun_interps or {})[name]
            )
            if rendered is not None:
                lines.append(rendered)
        lines.append(")")
        return "\n".join(lines)

    def _render_interpretation(
        self, name: str, interp: FunctionInterpretation
    ) -> Optional[str]:
        signature = None
        for frame in self._frames:
            signature = frame.funs.get(name, signature)
        if signature is None:
            return None
        params = [f"x!{index}" for index in range(len(signature.params))]
        header = " ".join(
            f"({param} {sort_to_smtlib(sort)})"
            for param, sort in zip(params, signature.params)
        )
        body = constant_to_smtlib(interp.default)
        entries = sorted(
            interp.entries.items(),
            key=lambda item: tuple(constant_to_smtlib(c) for c in item[0]),
            reverse=True,
        )
        for key, value in entries:
            tests = [
                f"(= {param} {constant_to_smtlib(constant)})"
                for param, constant in zip(params, key)
            ]
            condition = tests[0] if len(tests) == 1 else "(and {})".format(" ".join(tests))
            body = f"(ite {condition} {constant_to_smtlib(value)} {body})"
        return (
            f"  (define-fun {symbol_to_smtlib(name)} ({header})"
            f" {sort_to_smtlib(signature.result)} {body})"
        )

    def _get_unsat_core(self) -> str:
        if not self._produce_cores:
            return (
                '(error "unsat cores are not enabled:'
                ' (set-option :produce-unsat-cores true)")'
            )
        if (
            self._last is None
            or self._last.answer != "unsat"
            or self._last.unsat_core is None
        ):
            return '(error "no unsat core available: last check-sat was not unsat")'
        return "({})".format(
            " ".join(symbol_to_smtlib(name) for name in self._last.unsat_core)
        )

    def _get_value(self, terms: tuple[Term, ...]) -> str:
        if self._last is None or self._last.model is None:
            return '(error "no model available: last check-sat was not sat")'
        definitions: dict[str, DefineFun] = {}
        for frame in self._frames:
            definitions.update(frame.definitions)
        inline_memo: dict[tuple[Term, frozenset[str]], Term] = {}
        let_memo: dict[Term, Term] = {}
        pairs = []
        for term in terms:
            prepared = expand_lets(
                inline_definitions(term, definitions, frozenset(), inline_memo),
                let_memo,
            )
            try:
                value = evaluate(prepared, self._last.model, self._last.fun_interps)
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                return f'(error "cannot evaluate {term_to_smtlib(term)}: {exc}")'
            pairs.append(f"({term_to_smtlib(term)} {constant_to_smtlib(value)})")
        return "({})".format(" ".join(pairs))


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------


def run_script(
    source: Union[str, Script],
    conflict_limit: Optional[int] = None,
    *,
    obs: Optional[Observability] = None,
    trace: Optional[Union[str, "EventLog"]] = None,
    produce_proofs: bool = False,
    produce_unsat_cores: bool = False,
    config: Optional[SolverConfig] = None,
    timeout: Optional[float] = None,
    portfolio: Optional[int] = None,
) -> ScriptResult:
    """Parse (when given text) and execute a script; return the full
    :class:`ScriptResult` including printable output.

    ``obs`` supplies an observability bundle (see :class:`Engine`);
    ``trace`` is a convenience: a path (an :class:`EventLog` is opened,
    written and closed around the run) or an open log (shared across
    calls, left open).  Passing ``trace`` without ``obs`` also turns
    span tracing on, so ``ScriptResult.phases`` and each check's
    ``phases`` are populated alongside the JSONL events.
    ``produce_proofs``/``produce_unsat_cores`` enable certification
    artifacts from the outside, exactly like the corresponding
    ``set-option`` commands at the top of the script.

    ``config`` and ``timeout`` pass through to :class:`Engine`.
    ``portfolio`` (≥ 2) instead races that many diversified solver
    processes and returns the winner's result (see
    :func:`repro.portfolio.solve_portfolio`).  ``trace`` and ``config``
    are sequential-only and rejected under ``portfolio``.
    """
    if portfolio is not None and portfolio > 1:
        if trace is not None or config is not None:
            raise ValueError(
                "trace= and config= are sequential-only; the portfolio "
                "runner manages per-worker configs and observability"
            )
        from ..portfolio import solve_portfolio

        return solve_portfolio(
            source,
            workers=portfolio,
            conflict_limit=conflict_limit,
            timeout=timeout,
            obs=obs,
            produce_proofs=produce_proofs,
            produce_unsat_cores=produce_unsat_cores,
        ).result
    own_log: Optional[EventLog] = None
    if trace is not None:
        if isinstance(trace, EventLog):
            log = trace
        else:
            log = own_log = EventLog(trace)
        if obs is None:
            obs = Observability.tracing(events=log)
        elif obs.events is None:
            obs.events = log
    engine = Engine(
        conflict_limit=conflict_limit,
        obs=obs,
        produce_proofs=produce_proofs,
        produce_unsat_cores=produce_unsat_cores,
        config=config,
        timeout=timeout,
    )
    tracer = engine.obs.tracer
    previous = set_current_tracer(tracer) if tracer is not None else None
    try:
        if isinstance(source, str):
            with trace_span("parse"):
                script = parse_script(source)
        else:
            script = source
        result = engine.run(script)
    finally:
        if tracer is not None:
            set_current_tracer(previous)
        if own_log is not None:
            own_log.close()
    if tracer is not None:
        result.phases = {
            path: row["ns"] for path, row in phase_totals(tracer).items()
        }
    return result


def solve_script(
    source: Union[str, Script],
    conflict_limit: Optional[int] = None,
    *,
    obs: Optional[Observability] = None,
    trace: Optional[Union[str, "EventLog"]] = None,
    produce_proofs: bool = False,
    produce_unsat_cores: bool = False,
    config: Optional[SolverConfig] = None,
    timeout: Optional[float] = None,
    portfolio: Optional[int] = None,
) -> list[CheckSatResult]:
    """Execute a script and return one :class:`CheckSatResult` per
    ``(check-sat)``, in script order.  Keyword arguments as in
    :func:`run_script`."""
    return run_script(
        source,
        conflict_limit=conflict_limit,
        obs=obs,
        trace=trace,
        produce_proofs=produce_proofs,
        produce_unsat_cores=produce_unsat_cores,
        config=config,
        timeout=timeout,
        portfolio=portfolio,
    ).check_results


__all__ = ["Engine", "run_script", "solve_script"]
