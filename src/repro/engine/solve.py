"""The incremental CDCL(T) solve loop.

:class:`Engine` executes a script command by command.  Unlike the PR-3
monolith it keeps **one** SAT solver and **one** Tseitin encoder alive for
the whole run:

* An assertion ships as its *root clauses* — a root conjunction splits,
  a disjunction is one clause, a boolean ``=`` two, anything else the
  unit of its Tseitin literal — plus Tseitin gates for the structure
  below them, so a CNF script reaches the SAT core as its own CNF.
* The base frame can never be popped, so its unnamed assertions ship
  their root clauses bare, as permanent facts.  Every pushed frame ``i``
  owns a *selector* variable: its root clauses ship as
  ``(¬sel_i ∨ clause)`` and every ``check-sat`` solves under the
  assumptions ``sel_1 … sel_k`` of the live frames.  ``pop`` retires a
  frame by adding the permanent unit ``¬sel_i`` — its clauses become
  vacuous, while learned clauses (which may mention selectors) stay
  valid and keep pruning later checks.  A named assertion is guarded by
  its own selector instead, in any frame, so cores map back to labels.
* The encoder's node → literal memo is keyed on hash-consed terms, so a
  ``check-sat`` after ``push``/``pop`` re-encodes **nothing** for
  unchanged assertions (the check's ``engine.tseitin_new_vars`` metric
  is 0).
* Theory reasoning is layered in through one :class:`repro.sat.TheoryHook`
  that drives the plugin tuple itself — linear arithmetic
  (:class:`~repro.theory.ArithTheory`) routed ahead of congruence
  closure with arrays (:class:`~repro.theory.EufTheory`).  It maps each
  trail literal straight to ``(plugin, atom, polarity)``, takes one
  checkpoint on every plugin per batch of trail literals it syncs
  (``push`` per batch, ``pop`` on backtrack) and translates theory
  conflicts into blocking clauses over the atom variables.  The
  plugins, the hook and the plugins' metrics sources are built once per
  run; each ``check-sat`` routes its live atoms (and the live atoms of
  earlier checks' lemmas) and pops the plugins back to empty, while
  plugin caches (compiled atoms, the tableau, emitted array lemmas and
  integer splits) carry over.

Answer semantics stay *sound*:

* ``unsat`` — the shipped CNF plus theory lemmas is unsatisfiable under
  the live selectors.  Atoms no theory owns are abstracted (an
  over-approximation), so propositional unsatisfiability implies real
  unsatisfiability.
* ``sat`` — only when every atom of the live assertions is either a
  boolean symbol (decided by the SAT core) or owned by a theory plugin,
  *and* the assembled model — boolean values, rational/integer simplex
  values, congruence-class values and uninterpreted-function graphs —
  makes
  :func:`~repro.smtlib.evaluate.evaluate` return ``true`` on every live
  assertion as asserted (through the live ``define-fun``s, so the check
  audits preparation and simplification too).  The validation runs
  inside the engine; a model that cannot be built or checked demotes the
  answer to ``unknown``.
* anything else — ``unknown`` with a reason (``abstracted-atoms``,
  ``conflict-limit``, ``timeout``, ``cancelled``,
  ``branch-budget-exhausted``, ``model-construction-failed``,
  ``model-validation-failed``).
"""

from __future__ import annotations

from time import monotonic
from typing import Callable, Iterable, Optional, Sequence, Union

from ..errors import EvaluationError, SolverError, error_response
from ..limits import ensure_recursion_limit
from ..obs import Observability
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.profile import phase_totals
from ..obs.spans import get_current_tracer, set_current_tracer, trace_span
from ..proof.log import INPUT, Proof, ProofLog, ProofStep
from ..sat import SAT, UNKNOWN, UNSAT, Solver, SolverConfig, TheoryHook, TheoryLemma
from ..sat.dimacs import to_dimacs
from ..smtlib.cnf import TseitinEncoder
from ..smtlib.evaluate import Evaluator, FunctionInterpretation
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
from ..smtlib.sorts import BOOL, Sort, is_bitvec
from ..smtlib.terms import (
    FALSE,
    TRUE,
    Constant,
    Symbol,
    Term,
    bool_const,
    intern_stats,
)
from ..theory import (
    ArithTheory,
    BvBlaster,
    EufTheory,
    SortValueAllocator,
    Theory,
)
from ..theory.euf import WITNESS_MARKER
from .context import Frame, Preparation
from .result import CheckSatResult, ScriptResult


#: Where a trail literal goes: the plugin owning its atom, the atom, and
#: the polarity the literal asserts.
_Route = tuple[Theory, Term, bool]


class _TheorySync(TheoryHook):
    """The one adapter between the SAT trail and the theory plugins.

    ``plugins`` is the priority order: an atom belongs to the first plugin
    whose ``owns_atom`` accepts it (:meth:`owner`, cached for the run).
    A route maps a trail literal, by variable *and* sign, straight to
    ``(plugin, atom, polarity)``.  An atom's literal need not be positive
    — a lowered bit-vector atom is bound to its circuit literal, and a
    1-bit ``=`` is a negated ``xor``.

    A callback that finds new trail literals takes one checkpoint on every
    plugin, records the trail position it took it at, and asserts the
    batch's routed literals.  After a rewind it first pops every
    checkpoint whose batch the rewind cut or passed; the literals of a
    cut batch that are still on the trail are asserted again in the new
    batch.  A :class:`~repro.theory.TheoryConflict` becomes a blocking
    clause over the atom literals.  One hook serves a whole run;
    :meth:`restart` begins each check.
    """

    def __init__(
        self,
        plugins: tuple[Theory, ...],
        literals: dict[Term, int],
        encode_atom: Callable[[Term], int],
        events: Optional[EventLog] = None,
    ) -> None:
        self._plugins = plugins
        self._owners: dict[Term, Optional[Theory]] = {}
        self._routes: dict[int, _Route] = {}
        self._literals = literals
        self._encode_atom = encode_atom
        self._events = events
        #: The trail position of each open checkpoint, oldest first.
        self._marks: list[int] = []
        #: How many trail literals the plugins have been handed.
        self._synced = 0

    def owner(self, atom: Term) -> Optional[Theory]:
        """The first plugin that owns ``atom``, or ``None``; ownership is
        static, so the answer is cached for the run."""
        owners = self._owners
        if atom in owners:
            return owners[atom]
        owner = next((plugin for plugin in self._plugins if plugin.owns_atom(atom)), None)
        owners[atom] = owner
        return owner

    def route(self, atom: Term, lit: int) -> bool:
        """Route ``lit`` and ``-lit``, the literals of ``atom``, to the
        atom's owner; false when no plugin owns it."""
        plugin = self.owner(atom)
        if plugin is None:
            return False
        self._routes[lit] = (plugin, atom, True)
        self._routes[-lit] = (plugin, atom, False)
        return True

    def restart(self) -> None:
        """Begin a check with no routes: pop the plugins back to empty, so
        the first callback re-syncs the whole trail — the state fresh
        plugins would start from.  Lemmas still queued go too: a final
        check that queued lemmas and found a conflict may have ended the
        last search, and its lemmas may mention popped symbols."""
        levels = len(self._marks)
        for plugin in self._plugins:
            plugin.pop(levels)
            plugin.pending_lemmas()
        self._marks.clear()
        self._synced = 0
        self._routes = {}

    def on_check(self, solver: Solver, final: bool) -> Iterable[Sequence[int]]:
        # One merged span per search: the hook fires at every
        # decision-level fixpoint, so distinct spans would explode.
        with trace_span("theory-check", merge=True):
            return self._sync_and_check(solver, final)

    def _sync_and_check(
        self, solver: Solver, final: bool
    ) -> Iterable[Sequence[int]]:
        trail = solver.trail
        plugins = self._plugins
        marks = self._marks
        synced = self._synced
        # The solver's low watermark bounds how far the trail can have
        # been rewound since the last callback, so synchronization costs
        # O(popped + appended), not a prefix rescan per fixpoint.
        watermark = solver.trail_watermark()
        if watermark < synced:
            levels = 0
            while synced > watermark:
                synced = marks.pop()
                levels += 1
            for plugin in plugins:
                plugin.pop(levels)
        conflict = None
        if synced < len(trail):
            marks.append(synced)
            for plugin in plugins:
                plugin.push()
            routes = self._routes
            start, synced = synced, len(trail)
            for index in range(start, synced):
                route = routes.get(trail[index])
                if route is not None:
                    owner, atom, positive = route
                    conflict = owner.assert_literal(atom, positive)
                    if conflict is not None:
                        synced = index + 1
                        break
        self._synced = synced
        if conflict is None and final:
            for owner in plugins:
                conflict = owner.check()
                if conflict is not None:
                    break
            else:
                # Lazy instantiation: valid clauses the plugins want the
                # SAT core to case-split on (new atoms encode on the fly).
                return self._lemma_clauses()
        if conflict is None:
            return ()
        literals = self._literals
        clause = []
        for atom, positive in conflict.literals:
            lit = literals[atom]
            clause.append(-lit if positive else lit)
        source = conflict.source or owner.name
        if self._events is not None:
            self._events.emit("theory-conflict", plugin=source, size=len(clause))
        # TheoryLemma tags the clause with its plugin so proof logging
        # records the lemma's provenance (a plain list works identically
        # when no proof log is attached).
        return (TheoryLemma(clause, source=source),)

    def _lemma_clauses(self) -> list[TheoryLemma]:
        clauses: list[TheoryLemma] = []
        routes = self._routes
        for plugin in self._plugins:
            for lemma in plugin.pending_lemmas():
                clause = []
                for atom, positive in lemma.literals:
                    lit = self._encode_atom(atom)
                    if lit not in routes:
                        # Future syncs must route the atom's trail literals
                        # back to its owner: a new atom, or a lowered
                        # bit-vector atom that reached the theory first here.
                        self.route(atom, lit)
                    clause.append(lit if positive else -lit)
                clauses.append(TheoryLemma(clause, source=lemma.source or plugin.name))
        return clauses


class Engine:
    """Executes scripts.  Each :meth:`run` builds its own run state (SAT
    core, encoder, blaster, theory plugins and their metric sources), so
    one engine may run several scripts in turn.

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

    def _reset(self) -> None:
        """Build the state of one run; :meth:`run` calls it first."""
        self._frames: list[Frame] = [Frame()]
        self._solver = Solver(config=self._config)
        self._solver.events = self._obs.events
        # One Tseitin encoder for the whole run: its node → literal memo
        # and variable counter survive across checks, so re-encoding an
        # unchanged assertion is a dictionary hit, and its clause list is
        # drained from a cursor (see _drain_clauses).  Frame selectors come
        # from the same counter.
        self._encoder = TseitinEncoder()
        self._clause_cursor = 0
        # The blaster and the theory plugins outlive individual checks:
        # blasted circuits are memoized on hash-consed terms, and emitted
        # case-split lemmas are permanent clauses that must not re-ship.
        # The blaster draws its bit and gate variables from the encoder,
        # so there is one variable numbering.  The plugin tuple is the
        # routing priority: arithmetic ahead of congruence closure, so a
        # numeric comparison is never uninterpreted structure.
        self._bv = BvBlaster(self._encoder)
        self._plugins: tuple[Theory, ...] = (ArithTheory(), EufTheory())
        self._sync = _TheorySync(
            self._plugins,
            self._encoder.literals,
            self._encode_lemma_atom,
            self._obs.events,
        )
        #: Every atom a theory lemma mentioned, in first-use order, with
        #: its symbols once a later check needed them (_route_lemma_atoms).
        self._lemma_atoms: dict[Term, Optional[tuple[Symbol, ...]]] = {}
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
        metrics.register_source("theory.bv", lambda: self._bv.stats)
        for plugin in self._plugins:
            metrics.register_source(
                f"theory.{plugin.name}", lambda plugin=plugin: plugin.stats
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
            "vars": self._encoder.formula.num_vars,
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
        """The SAT core of the current or last :meth:`run` (live across
        its ``check-sat`` calls)."""
        return self._solver

    def dimacs(self, comments: Iterable[str] = ()) -> str:
        """The current solver CNF (root clauses, bare or guarded, gates,
        facts and theory lemmas) in DIMACS format."""
        num_vars, clauses = self._solver.export_cnf()
        return to_dimacs(max(num_vars, self._encoder.formula.num_vars), clauses, comments)

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

    def _definitions(self) -> dict[str, DefineFun]:
        """The ``define-fun``s of every live frame, by name."""
        definitions: dict[str, DefineFun] = {}
        for frame in self._frames:
            definitions.update(frame.definitions)
        return definitions

    def _prepare_frames(self) -> None:
        """Prepare the assertions added since the last check, in one round."""
        walk = Preparation(self._definitions())
        for frame in self._frames:
            while len(frame.prepared) < len(frame.assertions):
                frame.prepared.append(walk.prepare(frame.assertions[len(frame.prepared)], frame))

    def _encode_frames(self) -> None:
        """Encode assertions added since the last check, counting
        ``engine.encoded_assertions``, ``engine.tseitin_new_vars`` and
        ``engine.tseitin_new_clauses``.

        Each assertion is encoded by one encoder walk
        (:meth:`~repro.smtlib.cnf.TseitinEncoder.clausify`), which returns
        its root clauses and its theory atoms for ``frame.atom_lists``.
        Only the boolean skeleton is Tseitin-encoded: the walk hands each
        atom to :meth:`~repro.theory.bv.BvBlaster.lower`, which binds a
        bit-vector atom to its circuit literal in the encoder memo, so it
        stays out of ``frame.atom_lists``.  Each assertion contributes its
        drained gate clauses (circuit and Tseitin gates) and its root
        clauses; the whole check ships in one
        :meth:`~repro.sat.Solver.add_clauses` batch.  The base frame can
        never be popped, so it gets no selector: its unnamed assertions
        ship their root clauses bare, as permanent facts.  A pushed
        frame's root clauses carry ``¬sel`` and a named assertion's carry
        its own ``¬named_sel``; ``engine.guard_clauses`` counts those
        guarded root clauses.  ``tseitin_new_clauses`` counts only the
        drained gate clauses.
        """
        vars_before = self._encoder.formula.num_vars
        batch: list[tuple[int, ...]] = []
        for depth, frame in enumerate(self._frames):
            if depth and frame.selector is None:
                frame.selector = self._encoder.new_var()
            while frame.encoded < len(frame.prepared):
                index = frame.encoded
                term = frame.prepared[index]
                frame.encoded += 1
                if term is TRUE or term is FALSE:
                    # TRUE constrains nothing; FALSE short-circuits in
                    # _check_sat before the solver ever runs.
                    frame.atom_lists.append(())
                    continue
                roots, atoms = self._encoder.clausify(term, self._bv.lower)
                frame.atom_lists.append(tuple(atoms))
                self._encoded_assertions += 1
                gates = self._drain_clauses()
                self._tseitin_new_clauses += len(gates)
                batch.extend(gates)
                name = frame.names[index]
                guard = frame.selector
                if name is not None:
                    # A named assertion is guarded by its own selector,
                    # assumed alongside the frame selectors, so the failed
                    # assumptions of an unsat answer name the core exactly.
                    guard = self._encoder.new_var()
                    frame.named.append((name, guard))
                if guard is not None:
                    self._guard_clauses += len(roots)
                    roots = [(-guard,) + clause for clause in roots]
                batch.extend(roots)
        self._solver.ensure_vars(self._encoder.formula.num_vars)
        if batch:
            self._clauses_shipped += len(batch)
            self._solver.add_clauses(batch)
        self._tseitin_new_vars += self._encoder.formula.num_vars - vars_before

    def _drain_clauses(self) -> list[tuple[int, ...]]:
        """The gate clauses the encoder produced since the previous drain
        (circuit gates of lowered bit-vector atoms and Tseitin gates)."""
        clauses = self._encoder.formula.clauses
        fresh = clauses[self._clause_cursor :]
        self._clause_cursor = len(clauses)
        return fresh

    def _encode_lemma_atom(self, atom: Term) -> int:
        """The literal of an atom in a theory lemma shipped mid-search,
        recording the atom for later checks.
        Lemma atoms are always leaves (equalities, predicate
        applications): one the engine has not seen allocates a variable
        and no gate clauses; the assertion guards that invariant.  So
        the walk gets no lowering hook: a bit-vector equality between
        array indices stays a plain variable, and an atom an assertion
        lowered keeps its bound circuit literal."""
        lit = self._encoder.literals.get(atom)
        if lit is None:
            lit = self._encoder.encode(atom)
            gates = self._drain_clauses()
            assert not gates, "theory lemmas must range over atomic literals"
            self._solver.ensure_vars(self._encoder.formula.num_vars)
        self._lemma_atoms.setdefault(atom, None)
        return lit

    def _route_lemma_atoms(self) -> None:
        """Route the atoms of earlier checks' theory lemmas whose symbols
        are all live.  A lemma clause is permanent and its plugin ships it
        once per run, so an atom no live assertion mentions would
        otherwise be assigned behind the plugins' backs.  Live means the
        name *and* sort of a declaration in a live frame or of a symbol
        free in a live assertion: a popped symbol must not reach the
        plugins, nor a later ``(get-model)``.  EUF's extensionality
        witnesses (``@arr!N``) count as live: no frame declares them, and
        they never reach a model."""
        if not self._lemma_atoms:
            return
        live = self._live_symbols()
        literals, lemma_atoms = self._encoder.literals, self._lemma_atoms
        for atom, symbols in lemma_atoms.items():
            if symbols is None:
                symbols = lemma_atoms[atom] = tuple(
                    node for node in atom.dag_walk() if isinstance(node, Symbol)
                )
            if all(
                live.get(symbol.name) == symbol.sort or symbol.name.startswith(WITNESS_MARKER)
                for symbol in symbols
            ):
                self._sync.route(atom, literals[atom])

    def _live_symbols(self) -> dict[str, Sort]:
        """The live symbols, name → sort: free in a live assertion, as the
        preparation walk recorded them (a script built without
        declarations may have no others), then declared in a live frame."""
        live: dict[str, Sort] = {}
        for frame in self._frames:
            live.update(frame.symbols)
        for frame in self._frames:
            live.update(frame.consts)
        return live

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
            term is FALSE for frame in self._frames for term in frame.prepared
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

        # Theory dispatch: each atom goes to the first plugin owning it.
        sync = self._sync
        sync.restart()
        literals = self._encoder.literals
        owned = unowned = False
        for atom in active_atoms:
            if isinstance(atom, Symbol) and atom.sort == BOOL:
                continue  # the SAT core owns plain boolean symbols
            if sync.route(atom, literals[atom]):
                owned = True
            else:
                unowned = True
        if owned:
            self._route_lemma_atoms()
            self._solver.theory = sync
            self._solver.theory_eager = self._theory_eager
        else:
            self._solver.theory = None

        # _encode_frames allocated a selector for every pushed frame; the
        # base frame has none (its unnamed assertions ship unguarded).
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
            model, fun_interps = self._build_model(owned, active_atoms)
        failure: Optional[str] = None
        if model is None:
            failure = "model-construction-failed"
        else:
            # Validate the terms as asserted, through one evaluator.
            evaluator = Evaluator(model, fun_interps, self._definitions())
            with trace_span("validate"):
                try:
                    if not all(
                        evaluator(term) is TRUE
                        for frame in self._frames
                        for term in frame.assertions
                    ):
                        failure = "model-validation-failed"
                except EvaluationError:
                    failure = "model-validation-failed"
        if failure is not None:
            # An incomplete plugin (an exhausted budget) explains a model
            # that could not be built or did not validate.
            if owned:
                failure = next(
                    filter(None, (plugin.incomplete_reason() for plugin in self._plugins)),
                    failure,
                )
            return outcome("unknown", reason=failure)
        return outcome("sat", model=model, fun_interps=fun_interps)

    def _trivial_unsat_artifacts(
        self,
    ) -> tuple[Optional[Proof], Optional[tuple[str, ...]]]:
        """Proof and core for a check short-circuited by a ``FALSE``
        assertion (nothing was encoded or solved).

        The shared incremental proof log is left untouched — a popped
        ``FALSE`` frame must not poison later checks' proofs — so the
        proof is a standalone one-step argument: the prepared assertion
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
            for index, term in enumerate(frame.prepared):
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
        owned: bool,
        active_atoms: list[Term],
    ) -> tuple[Optional[dict[str, Constant]], dict[str, FunctionInterpretation]]:
        """Assemble the script-level model from the SAT assignment, the
        plugins' models (when ``owned`` atoms were routed to them) and
        per-sort default values; ``None`` for the model when a plugin
        cannot realize one.  Symbols and functions no assertion
        constrains get :meth:`~repro.theory.SortValueAllocator.default`
        values, which may repeat, so the model is total over the live
        declarations."""
        sat_model = self._solver.model
        assert sat_model is not None
        atom_vars = self._encoder.formula.atom_vars
        model: dict[str, Constant] = {}
        for atom in active_atoms:
            if isinstance(atom, Symbol) and atom.sort == BOOL:
                model[atom.name] = bool_const(sat_model[atom_vars[atom]])
        allocator = SortValueAllocator()
        live = self._live_symbols()
        # Decode the words of the live bit-vector symbols from their bit
        # variables before anything defaults them.  Reserving the decoded
        # constants keeps values minted for other symbols of the same sort
        # distinct from them.
        decoded = self._bv.decode(
            sat_model,
            (Symbol(name, sort) for name, sort in live.items() if is_bitvec(sort)),
        )
        for value in decoded.values():
            allocator.reserve(value)
        fun_interps: dict[str, FunctionInterpretation] = {}
        if owned:
            # The plugins' models merge in priority order (an earlier
            # plugin's value wins) through the one allocator, so values
            # minted by different plugins stay distinct per sort.
            values: dict[str, Constant] = {}
            for plugin in self._plugins:
                partial = plugin.model(allocator)
                if partial is None:
                    return None, {}
                for name, value in partial.values.items():
                    values.setdefault(name, value)
                for name, interpretation in partial.functions.items():
                    fun_interps.setdefault(name, interpretation)
            model.update(values)
        # Decoded words override any congruence-class value for the same
        # symbol: the bits are hard SAT constraints, and validation will
        # catch a genuine circuit/e-graph disagreement.
        model.update(decoded)
        # A declared function whose every occurrence simplified away (a
        # trivial atom such as (= (f a) (f a))) never reaches the theory,
        # yet validation evaluates the asserted terms, which still apply
        # it: give it an unconstrained default interpretation.
        for frame in self._frames:
            for name, signature in frame.funs.items():
                if name not in fun_interps:
                    fun_interps[name] = FunctionInterpretation(
                        {}, allocator.default(signature.result)
                    )
        # The builtin ``select`` can drop out the same way (every read
        # sat inside a trivial atom): validation still evaluates it, so
        # back it with an unconstrained graph over the element sort the
        # preparation walk recorded.
        if "select" not in fun_interps:
            read_sort = next(
                (frame.read_sort for frame in self._frames if frame.read_sort is not None),
                None,
            )
            if read_sort is not None:
                fun_interps["select"] = FunctionInterpretation(
                    {}, allocator.default(read_sort)
                )
        # Live symbols nothing valued (free in an assertion the theories
        # never saw, or declared and unused) are don't-cares, valued so
        # (get-model) is total over the declarations.
        for name, sort in live.items():
            if name not in model:
                model[name] = allocator.default(sort)
        return model, fun_interps

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
        evaluator = Evaluator(
            self._last.model, self._last.fun_interps or {}, self._definitions()
        )
        pairs = []
        for term in terms:
            try:
                value = evaluator(term)
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                return error_response(f"cannot evaluate {term_to_smtlib(term)}: {exc}")
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
