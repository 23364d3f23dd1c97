"""EUF and arrays: congruence closure over the hash-consed term DAG.

One :class:`~repro.theory.core.Theory` plugin decides the quantifier-free
theory of equality with uninterpreted functions and, on the same
e-graph, the extensional theory of arrays (``select``/``store``): the
index equalities that drive read-over-write reasoning land in the
union-find that closes ``select`` congruences.  The closure is the
classic loop (Downey–Sethi–Tarjan signatures, Nieuwenhuis–Oliveras
proof forest):

* **Union-find** — every registered term node is in a class; ``find``
  walks parent pointers (union by rank, no path compression so rollback
  is a pure log replay).
* **Congruence table** — each application is keyed by its *signature*
  ``(op, indices, find(arg1), ..., find(argn))``; two applications whose
  signatures collide are congruent and their classes merge.  Merging
  re-signs the smaller side's use-list, so closure cost follows the
  classes that actually changed.
* **Proof forest** — every union adds an edge labelled with its cause: an
  asserted literal or a congruence between two applications.
  :meth:`EufTheory.explain` walks the forest (recursing through
  congruence labels) to produce the *subset* of asserted literals that
  forces an equality — the explanations that become SAT-level blocking
  clauses.
* **Disequalities** — negated equalities are indexed per class and
  checked on every union; asserting or deriving ``a = b`` against a
  recorded ``a ≠ b`` raises a conflict explained by the disequality
  literal plus the equality's proof.
* **Distinguished constants** — literal constants (numerals, strings,
  bit-vectors, ``true``/``false``) denote pairwise-distinct individuals;
  each class tracks at most one, and merging two is a conflict.  This
  lets EUF refute e.g. ``x = 1 ∧ x = 2`` with no arithmetic at all.
* **Predicates** — a boolean-sorted uninterpreted application asserted
  positively (negatively) merges with the ``true`` (``false``) constant,
  so predicate congruence ``x = y ∧ p(x) → p(y)`` falls out of the
  constant machinery.

An application is *uninterpreted* when its operator is not in the
signature table (:func:`~repro.smtlib.typecheck.is_builtin_operator`) —
a parsed script can apply nothing else — so ownership is a static
property of the atom.

The array axioms are instantiated *lazily*, three ways:

* **RoW-1, always** — registering ``(store a i v)`` immediately asserts
  the valid instance ``(select (store a i v) i) = v`` internally.
* **RoW-2, ground** — at :meth:`~EufTheory.check`, for every registered
  read ``(select x j)`` and congruent write ``(store a i v) ~ x``: when
  ``i`` and ``j`` sit in classes pinned to *distinct* literal constants
  the valid consequence ``(select (store a i v) j) = (select a j)`` is
  asserted internally, with the equalities pinning the indices recorded
  as its provenance.
* **RoW-2, symbolic** — when the solver has not determined ``i = j``,
  the plugin emits a *case-split lemma pair* through
  :meth:`~EufTheory.pending_lemmas` (see
  :class:`~repro.theory.core.TheoryClause`): ``i = j → select(st, j) =
  v`` and ``i ≠ j → select(st, j) = select(a, j)``.  Both clauses are
  valid, so the engine adds them to the SAT core permanently and the
  boolean search performs the case split.

**Extensionality** is instantiated on demand: asserting ``a ≠ b`` over an
array sort asserts ``(select a w) ≠ (select b w)`` for a fresh witness
index ``w`` — two arrays differ only if they differ at some index.

Internal axiom instances never leak into explanations: every internally
asserted literal carries a *provenance* (the external literals that
justify it — empty for unconditionally valid instances), and conflicts
are rewritten through that map before the engine turns them into
blocking clauses.

Every assignment-dependent mutation is written through the undo log of
:class:`~repro.theory.core.UndoLogTheory`, whose ``push`` and ``pop``
give the engine one checkpoint per batch of trail literals it syncs.
Valid artifacts — the emitted case splits and the extensionality
witnesses — stay outside the log: the plugin lives for the whole engine
run, so a later check re-ships nothing.

Cooperation with arithmetic over indices is *incomplete* (an index
equality forced by simplex bounds is invisible here); the engine's model
validation demotes any such ``sat`` to ``unknown``, so answers stay
sound — see ``docs/THEORIES.md``.
"""

from __future__ import annotations

from typing import Optional

from ..obs.spans import trace_span
from ..smtlib.evaluate import FunctionInterpretation, is_distinguished
from ..smtlib.sorts import BOOL, Sort, is_array
from ..smtlib.terms import FALSE, TRUE, Apply, Constant, Symbol, Term
from ..smtlib.typecheck import is_builtin_operator
from .core import (
    SortValueAllocator,
    TheoryClause,
    TheoryConflict,
    TheoryModel,
    UndoLogTheory,
)

#: Proof-forest edge labels.
_Reason = tuple  # ("lit", atom, positive) | ("cong", app1, app2)

#: The external literals justifying an internally asserted literal.
_Provenance = tuple[tuple[Term, bool], ...]

#: Witness-symbol name marker (kept out of models and scripts).
WITNESS_MARKER = "@arr!"

#: Cap on case-split lemmas per plugin (one engine run); exceeding it
#: stops instantiation and reports ``array-lemma-budget`` instead of
#: looping.
LEMMA_BUDGET = 10_000


class EufTheory(UndoLogTheory):
    """Congruence closure with proof-producing explanations, extended
    with lazily instantiated array axioms (see the module docstring)."""

    name = "euf"

    def __init__(self) -> None:
        super().__init__()
        self._rank: dict[Term, int] = {}
        self._parent: dict[Term, Term] = {}  # non-roots only
        self._sigs: dict[tuple, Apply] = {}
        self._use: dict[Term, list[Apply]] = {}  # representative -> apps to re-sign
        self._const: dict[Term, Constant] = {}  # representative -> distinguished constant
        self._diseqs: dict[Term, list[tuple[Term, Term, Term]]] = {}
        self._proof: dict[Term, tuple[Term, _Reason]] = {}
        self._stores: list[Apply] = []  # registered stores, in registration order
        #: ``(store, index)`` pairs whose case-split lemmas have shipped.
        self._emitted: set[tuple[Term, Term]] = set()
        #: negated array equality → its stable witness symbol.
        self._witnesses: dict[Term, Symbol] = {}
        #: internally asserted literal → the external literals justifying
        #: it (empty for valid instances); used to rewrite explanations.
        self._provenance: dict[tuple[Term, bool], _Provenance] = {}
        #: axioms queued during registration, drained after each mutation.
        self._queue: list[tuple[Term, bool, _Provenance]] = []
        self._budget_exhausted = False
        #: :meth:`is_euf_term` answers, so a shared subterm is classified once.
        self._euf_terms: dict[Term, bool] = {}
        self.stats = {
            "literals": 0,
            "merges": 0,
            "conflicts": 0,
            "explains": 0,
            "row1_instances": 0,
            "row2_ground": 0,
            "lemmas": 0,
            "witnesses": 0,
        }

    # -- fragment membership -------------------------------------------------

    def is_euf_term(self, term: Term) -> bool:
        """True for terms the e-graph reasons about: distinguished
        constants, non-boolean symbols, uninterpreted applications over
        such terms (argument positions must be non-boolean — boolean
        structure belongs to the SAT core), and ``select``/``store`` over
        such terms, whose boolean positions admit only the constants
        ``true`` and ``false`` (a boolean-symbol element would smuggle SAT
        structure into the e-graph)."""
        known = self._euf_terms.get(term)
        if known is not None:
            return known
        if isinstance(term, Constant):
            known = is_distinguished(term)
        elif isinstance(term, Symbol):
            known = term.sort != BOOL
        elif isinstance(term, Apply) and not term.indices:
            array_op = term.op == "select" or term.op == "store"
            known = array_op or not is_builtin_operator(term.op)
            for arg in term.args:
                if not known:
                    break
                if arg.sort == BOOL:
                    known = array_op and (arg is TRUE or arg is FALSE)
                else:
                    known = self.is_euf_term(arg)
        else:
            known = False
        self._euf_terms[term] = known
        return known

    def owns_atom(self, atom: Term) -> bool:
        """Binary non-boolean equalities over e-graph terms, boolean reads
        ``(select a i)``, and boolean-sorted uninterpreted applications
        (predicates)."""
        if not isinstance(atom, Apply):
            return False
        if atom.op == "=" and len(atom.args) == 2 and atom.args[0].sort != BOOL:
            return self.is_euf_term(atom.args[0]) and self.is_euf_term(atom.args[1])
        if atom.sort != BOOL:
            return False
        if atom.op == "select":
            return self.is_euf_term(atom)
        if atom.indices or is_builtin_operator(atom.op):
            return False
        for arg in atom.args:
            if arg.sort == BOOL or not self.is_euf_term(arg):
                return False
        return True

    # -- conflicts -------------------------------------------------------------

    def _set_conflict(self, conflict: TheoryConflict) -> None:
        if self._provenance:
            # Rewrite internal axiom literals to their external provenance
            # before the conflict becomes a blocking clause.  The rewrite
            # reorders the literals, so it waits for the first axiom
            # instance: a pure congruence conflict keeps its explanation
            # order, which steers the SAT core's conflict analysis.
            literals: list[tuple[Term, bool]] = []
            seen: set[tuple[Term, bool]] = set()
            stack = list(conflict.literals)
            while stack:
                literal = stack.pop()
                if literal in seen:
                    continue
                seen.add(literal)
                provenance = self._provenance.get(literal)
                if provenance is not None:
                    stack.extend(provenance)
                else:
                    literals.append(literal)
            conflict = TheoryConflict(tuple(literals), source=self.name)
        super()._set_conflict(conflict)

    # -- union-find ----------------------------------------------------------

    def find(self, term: Term) -> Term:
        """The class representative of a registered term."""
        parent = self._parent
        node = parent.get(term)
        while node is not None:
            term = node
            node = parent.get(term)
        return term

    def same_class(self, a: Term, b: Term) -> bool:
        """True when both terms are currently known equal."""
        return self.find(a) is self.find(b)

    # -- registration --------------------------------------------------------

    def _signature(self, app: Apply) -> tuple:
        parts: list = [app.op, app.indices]
        for arg in app.args:
            parts.append(self.find(arg))
        return tuple(parts)

    def _register(self, term: Term) -> None:
        """Enter ``term`` (and its subterms) into the closure structures."""
        if term in self._rank:
            return
        if isinstance(term, Apply):
            for arg in term.args:
                self._register(arg)
        self._save(self._rank, term)
        self._rank[term] = 0
        if isinstance(term, Constant) and is_distinguished(term):
            self._save(self._const, term)
            self._const[term] = term
        if isinstance(term, Apply):
            for rep in dict.fromkeys([self.find(arg) for arg in term.args]):
                use = self._use.setdefault(rep, [])
                self._save_len(use)
                use.append(term)
            signature = self._signature(term)
            existing = self._sigs.get(signature)
            if existing is None:
                self._save(self._sigs, signature)
                self._sigs[signature] = term
            elif self.find(existing) is not self.find(term):
                self._merge(term, existing, ("cong", term, existing))
            if term.op == "store" and not term.indices and len(term.args) == 3:
                self._save_len(self._stores)
                self._stores.append(term)
                # RoW-1: select(store(a, i, v), i) = v, valid unconditionally.
                _a, index, value = term.args
                read = Apply("select", (term, index), term.sort.element(1))
                self.stats["row1_instances"] += 1
                if value.sort == BOOL:
                    self._queue.append((read, value is TRUE, ()))
                else:
                    self._queue.append((Apply("=", (read, value), BOOL), True, ()))

    # -- merging -------------------------------------------------------------

    def _merge(self, a: Term, b: Term, reason: _Reason) -> None:
        pending: list[tuple[Term, Term, _Reason]] = [(a, b, reason)]
        while pending and self._conflict is None:
            x, y, why = pending.pop()
            root_x, root_y = self.find(x), self.find(y)
            if root_x is root_y:
                continue
            if self._rank[root_x] > self._rank[root_y]:
                x, y = y, x
                root_x, root_y = root_y, root_x
            self._proof_link(x, y, why)
            self._save(self._parent, root_x)
            self._parent[root_x] = root_y
            if self._rank[root_x] == self._rank[root_y]:
                self._save(self._rank, root_y)
                self._rank[root_y] += 1
            self.stats["merges"] += 1
            # Distinguished constants: at most one per class.
            const_x = self._const.get(root_x)
            const_y = self._const.get(root_y)
            if const_x is not None:
                if const_y is not None:
                    if const_x is not const_y:
                        self._set_conflict(
                            TheoryConflict(tuple(self.explain(const_x, const_y)), source=self.name)
                        )
                        return
                else:
                    self._save(self._const, root_y)
                    self._const[root_y] = const_x
            # Disequalities recorded against the absorbed class.
            entries = self._diseqs.get(root_x)
            if entries:
                merged = self._diseqs.setdefault(root_y, [])
                self._save_len(merged)
                for entry in entries:
                    lhs, rhs, atom = entry
                    if self.find(lhs) is self.find(rhs):
                        literals = [(atom, False)]
                        literals.extend(self.explain(lhs, rhs))
                        self._set_conflict(TheoryConflict(tuple(literals), source=self.name))
                        return
                    merged.append(entry)
            # Congruence: re-sign the absorbed class's use-list.
            uses = self._use.get(root_x)
            if uses:
                target = self._use.setdefault(root_y, [])
                self._save_len(target)
                for app in uses:
                    target.append(app)
                    signature = self._signature(app)
                    existing = self._sigs.get(signature)
                    if existing is None:
                        self._save(self._sigs, signature)
                        self._sigs[signature] = app
                    elif self.find(existing) is not self.find(app):
                        pending.append((app, existing, ("cong", app, existing)))

    # -- proof forest ----------------------------------------------------------

    def _proof_link(self, a: Term, b: Term, reason: _Reason) -> None:
        """Record the edge ``a — b`` by making ``a`` the root of its proof
        tree (reversing the path above it) and pointing it at ``b``."""
        path: list[tuple[Term, tuple[Term, _Reason]]] = []
        node = a
        while True:
            edge = self._proof.get(node)
            if edge is None:
                break
            path.append((node, edge))
            node = edge[0]
        for child, (parent, why) in path:
            self._save(self._proof, parent)
        for child, (parent, why) in path:
            self._proof[parent] = (child, why)
        self._save(self._proof, a)
        self._proof[a] = (b, reason)

    def explain(self, a: Term, b: Term) -> list[tuple[Term, bool]]:
        """The asserted literals forcing ``a = b``, as ``(atom, positive)``
        pairs — a (deduplicated) subset of the asserted set."""
        self.stats["explains"] += 1
        out: list[tuple[Term, bool]] = []
        seen_pairs: set[frozenset] = set()
        seen_literals: set[tuple[Term, bool]] = set()
        self._explain_pair(a, b, out, seen_pairs, seen_literals)
        return out

    def _explain_pair(
        self,
        a: Term,
        b: Term,
        out: list[tuple[Term, bool]],
        seen_pairs: set[frozenset],
        seen_literals: set[tuple[Term, bool]],
    ) -> None:
        if a is b:
            return
        key = frozenset((a, b))
        if key in seen_pairs:
            return
        seen_pairs.add(key)
        # Nearest common ancestor in the proof tree both terms share.
        ancestors = {a}
        node = a
        while True:
            edge = self._proof.get(node)
            if edge is None:
                break
            node = edge[0]
            ancestors.add(node)
        lca = b
        while lca not in ancestors:
            edge = self._proof.get(lca)
            assert edge is not None, "explain() on terms not known equal"
            lca = edge[0]
        for start in (a, b):
            node = start
            while node is not lca:
                node, why = self._proof[node]
                if why[0] == "lit":
                    literal = (why[1], why[2])
                    if literal not in seen_literals:
                        seen_literals.add(literal)
                        out.append(literal)
                else:
                    left, right = why[1], why[2]
                    for arg_l, arg_r in zip(left.args, right.args):
                        self._explain_pair(
                            arg_l, arg_r, out, seen_pairs, seen_literals
                        )

    # -- asserting -------------------------------------------------------------

    def _assert(self, atom: Apply, positive: bool) -> None:
        """Assert one literal on the e-graph: a trail literal or an internal
        axiom instance.  An equality merges or separates its sides; any
        other atom is a predicate, merged with ``true`` or ``false``."""
        if atom.op == "=" and len(atom.args) == 2:
            lhs, rhs = atom.args
            equal = positive
        else:
            lhs, rhs = atom, TRUE if positive else FALSE
            equal = True
        self._register(lhs)
        self._register(rhs)
        if self._conflict is not None:
            return
        if equal:
            self._merge(lhs, rhs, ("lit", atom, positive))
        elif self.find(lhs) is self.find(rhs):
            literals = [(atom, False)]
            literals.extend(self.explain(lhs, rhs))
            self._set_conflict(TheoryConflict(tuple(literals), source=self.name))
        else:
            for end in (lhs, rhs):
                entries = self._diseqs.setdefault(self.find(end), [])
                self._save_len(entries)
                entries.append((lhs, rhs, atom))

    def _drain_queue(self) -> None:
        """Assert the queued axiom instances, each tagged with the external
        literals that justify it."""
        while self._queue and self._conflict is None:
            atom, positive, provenance = self._queue.pop()
            self._provenance[(atom, positive)] = provenance
            self._assert(atom, positive)
        if self._conflict is not None:
            # Entries queued by registrations the solver is about to roll
            # back; re-registration after backtracking re-queues them.
            self._queue.clear()

    def _instantiate_extensionality(self, atom: Apply) -> None:
        """``a ≠ b`` ⇒ ``(select a w) ≠ (select b w)`` for a fresh
        stable witness ``w`` — justified by the disequality itself."""
        lhs, rhs = atom.args
        sort: Sort = lhs.sort
        witness = self._witnesses.get(atom)
        if witness is None:
            witness = Symbol(
                f"{WITNESS_MARKER}{len(self._witnesses)}", sort.element(0)
            )
            self._witnesses[atom] = witness
        element = sort.element(1)
        read_l = Apply("select", (lhs, witness), element)
        read_r = Apply("select", (rhs, witness), element)
        self.stats["witnesses"] += 1
        self._queue.append(
            (Apply("=", (read_l, read_r), BOOL), False, ((atom, False),))
        )

    # -- the Theory interface --------------------------------------------------

    def assert_literal(self, atom: Term, positive: bool) -> Optional[TheoryConflict]:
        if self._conflict is not None:
            return self._conflict
        self.stats["literals"] += 1
        assert isinstance(atom, Apply), f"not an EUF atom: {atom!r}"
        self._assert(atom, positive)
        if (
            not positive
            and self._conflict is None
            and atom.op == "="
            and is_array(atom.args[0].sort)
        ):
            self._instantiate_extensionality(atom)
        if self._queue:
            self._drain_queue()
        return self._conflict

    def check(self) -> Optional[TheoryConflict]:
        # The closure is maintained eagerly; only reads over writes wait
        # for a full assignment.
        self._budget_exhausted = False
        if self._conflict is None and self._stores:
            with trace_span("instantiate", merge=True):
                changed = True
                while changed and self._conflict is None:
                    changed = self._instantiate_read_over_write()
                    self._drain_queue()
        return self._conflict

    def incomplete_reason(self) -> Optional[str]:
        if self._budget_exhausted:
            return "array-lemma-budget"
        return None

    # -- read-over-write propagation -------------------------------------------

    def _reads(self) -> list[Apply]:
        """The registered reads, in registration order."""
        return [
            term
            for term in self._rank
            if isinstance(term, Apply) and term.op == "select" and not term.indices
        ]

    def _instantiate_read_over_write(self) -> bool:
        reads = self._reads()
        by_class: dict[Term, list[Apply]] = {}
        by_base: dict[Term, list[Apply]] = {}
        for store in self._stores:
            by_class.setdefault(self.find(store), []).append(store)
            by_base.setdefault(self.find(store.args[0]), []).append(store)
        changed = False
        for read in reads:
            if self._conflict is not None:
                break
            array, j = read.args
            for store in by_class.get(self.find(array), ()):
                if self._propagate_pair(read, store, j):
                    changed = True
                if self._conflict is not None:
                    break
            if self._conflict is not None:
                break
            # Lift the read over stores written on top of this array:
            # registering select(store(a,i,v), j) lets congruence chain
            # select(a, j) to reads on every array merged with the store
            # (the next pass case-splits the lifted read as usual).
            for store in by_base.get(self.find(array), ()):
                lifted = Apply("select", (store, j), read.sort)
                if lifted not in self._rank:
                    self._register(lifted)
                    changed = True
        return changed

    def _propagate_pair(self, read: Apply, store: Apply, j: Term) -> bool:
        base, i, value = store.args
        element = read.sort
        if self.find(i) is self.find(j):
            # Congruent indices: registering select(store, j) lets plain
            # congruence (j ~ i) connect it to the RoW-1 instance.
            direct = Apply("select", (store, j), element)
            if direct not in self._rank:
                self._register(direct)
                return True
            return False
        const_i = self._const.get(self.find(i))
        const_j = self._const.get(self.find(j))
        direct = Apply("select", (store, j), element)
        shifted = Apply("select", (base, j), element)
        if const_i is not None and const_j is not None:
            # Distinct literal indices: the read bypasses the write, with
            # the equalities pinning both indices as provenance.
            if direct in self._rank and self.same_class(direct, shifted):
                return False
            provenance: list[tuple[Term, bool]] = []
            provenance.extend(self.explain(i, const_i))
            provenance.extend(self.explain(j, const_j))
            self.stats["row2_ground"] += 1
            self._queue.append(
                (Apply("=", (direct, shifted), BOOL), True, tuple(provenance))
            )
            return True
        # Symbolic indices: hand the case split to the SAT core.
        key = (store, j)
        if key in self._emitted:
            return False
        if len(self._emitted) >= LEMMA_BUDGET:
            self._budget_exhausted = True
            return False
        self._emitted.add(key)
        self.stats["lemmas"] += 1
        index_eq = Apply("=", (i, j), BOOL)
        if element == BOOL:
            hit = (direct, value is TRUE)
            cases = [
                ((index_eq, False), hit),
                ((index_eq, True), (direct, False), (shifted, True)),
                ((index_eq, True), (direct, True), (shifted, False)),
            ]
        else:
            cases = [
                ((index_eq, False), (Apply("=", (direct, value), BOOL), True)),
                ((index_eq, True), (Apply("=", (direct, shifted), BOOL), True)),
            ]
        # The source tag keeps array case splits apart from congruence
        # conflicts in proof comments and event logs.
        self._lemmas.extend(TheoryClause(case, source="arrays") for case in cases)
        return True

    # -- models ----------------------------------------------------------------

    def model(self, allocator: SortValueAllocator) -> Optional[TheoryModel]:
        """Assign every class a value: its distinguished constant when it
        has one, otherwise a fresh value distinct from every other class
        of the sort.  Distinctness is always sound for pure EUF — classes
        are merged exactly when equality is forced — but merged store
        chains force equalities the e-graph never saw, which
        :meth:`_model_repair` restores.  Extensionality witnesses are
        internal vocabulary and stay out of the values."""
        if self._conflict is not None:
            return None
        classes: dict[Term, list[Term]] = {}
        for term in self._rank:
            classes.setdefault(self.find(term), []).append(term)
        class_map, select_rows = self._model_repair(classes)
        group_constant: dict[Term, Constant] = {}
        for representative in classes:
            constant = self._const.get(representative)
            if constant is not None:
                allocator.reserve(constant)
                group_constant[class_map.get(representative, representative)] = constant
        values: dict[Term, Constant] = {}
        group_value: dict[Term, Constant] = {}
        for representative in classes:
            root = class_map.get(representative, representative)
            constant = group_value.get(root)
            if constant is None:
                constant = group_constant.get(root)
                if constant is None:
                    constant = allocator.fresh(representative.sort)
                    if constant is None:
                        return None  # finite sort exhausted: no distinct model
                group_value[root] = constant
            values[representative] = constant
        model = TheoryModel()
        functions: dict[str, dict[tuple[Constant, ...], Constant]] = {}
        results: dict[str, Constant] = {}
        for array_rep, index_rep, value_rep in select_rows:
            key = (values[array_rep], values[index_rep])
            functions.setdefault("select", {})[key] = values[value_rep]
            results.setdefault("select", values[value_rep])
        for representative, members in classes.items():
            value = values[representative]
            for term in members:
                if isinstance(term, Symbol):
                    if not term.name.startswith(WITNESS_MARKER):
                        model.values[term.name] = value
                elif isinstance(term, Apply):
                    key = tuple(values[self.find(arg)] for arg in term.args)
                    functions.setdefault(term.op, {})[key] = value
                    results.setdefault(term.op, value)
        for op, entries in functions.items():
            result_sort = next(iter(entries.values())).sort
            if result_sort == BOOL:
                default: Optional[Constant] = FALSE
            else:
                default = allocator.fresh(result_sort)
            if default is None:
                default = results[op]
            model.functions[op] = FunctionInterpretation(entries, default)
        return model

    def _model_repair(
        self, classes: dict[Term, list[Term]]
    ) -> tuple[dict[Term, Term], tuple[tuple[Term, Term, Term], ...]]:
        """Weak-equivalence repair of the candidate model.

        Returns ``(class_map, select_rows)``: classes mapped to a common
        root share one model value (instead of the default one-value-per-
        class assignment), and every ``(array_rep, index_rep, value_rep)``
        row is materialised as a ``select`` graph entry.  Without stores
        both are empty.

        Congruence closure assigns *distinct* values to distinct classes,
        which over-separates arrays two ways:

        * When two store chains are merged (``store(b,i,v) ~
          store(a,i,w)``) their bases must agree at every row except the
          write index, but nothing at the e-graph level says so.  The
          repair closes the select rows under store edges — copying rows
          between a store term and its base everywhere off the write
          index, merging the value classes of rows forced equal and
          materialising rows one side lacks.
        * An extensionality witness seated in its own index class may be
          *provably generic*: if the two arrays agree off some write
          index ``i``, the only place they can differ is ``i`` itself.
          When the closure forces the witness reads equal against the
          witness disequality, the repair retries with the witness index
          re-seated onto a candidate write-index class.

        The repair is best-effort: if every attempt collides with a
        pinned constant or a non-witness disequality it returns the
        identity plan, and the engine's model validation demotes the
        answer to a sound ``unknown``."""
        if not self._stores:
            return {}, ()
        stores = self._stores
        selects = self._reads()
        write_indices: list[Term] = []
        for store in stores:
            rep = self.find(store.args[1])
            if rep not in write_indices:
                write_indices.append(rep)
        attempts: list[tuple[tuple[Term, Term], ...]] = [()]
        tried = 0
        while attempts and tried < 32:
            seeds = attempts.pop(0)
            tried += 1
            outcome = self._repair_attempt(classes, stores, selects, seeds)
            if outcome is None:
                continue
            if outcome[0] == "ok":
                return outcome[1], outcome[2]
            # Witness-row conflict: retry with the witness index merged
            # onto each candidate write-index class in turn.
            witness_rep = outcome[1]
            for candidate in write_indices:
                if candidate is not witness_rep:
                    attempts.append(seeds + ((witness_rep, candidate),))
        return {}, ()

    def _repair_attempt(self, classes, stores, selects, seeds):
        parent: dict[Term, Term] = {}

        def find(item: Term) -> Term:
            root = item
            while parent.get(root, root) is not root:
                root = parent[root]
            while parent.get(item, item) is not item:
                parent[item], item = root, parent[item]
            return root

        merged = False

        def union(left: Term, right: Term) -> None:
            nonlocal merged
            root_l, root_r = find(left), find(right)
            if root_l is not root_r:
                parent[root_r] = root_l
                merged = True

        for left, right in seeds:
            union(left, right)

        # Fixpoint: rebuild the row map whenever a merge shifts group
        # keys; each pass either merges classes or reaches closure.
        rows: dict[tuple[Term, Term], Term] = {}
        for _ in range(len(classes) + len(stores) + 8):
            merged = False
            rows = {}
            for read in selects:
                array, j = read.args
                key = (find(self.find(array)), find(self.find(j)))
                existing = rows.get(key)
                if existing is None:
                    rows[key] = find(self.find(read))
                else:
                    union(existing, self.find(read))
            grew = True
            while grew and not merged:
                grew = False
                for store in stores:
                    base, i, _value = store.args
                    store_rep = find(self.find(store))
                    base_rep = find(self.find(base))
                    i_rep = find(self.find(i))
                    if store_rep is base_rep:
                        continue
                    for (array, k), row in list(rows.items()):
                        if k is i_rep:
                            continue
                        if array is store_rep:
                            other = (base_rep, k)
                        elif array is base_rep:
                            other = (store_rep, k)
                        else:
                            continue
                        existing = rows.get(other)
                        if existing is None:
                            rows[other] = find(row)
                            grew = True
                        else:
                            union(existing, row)
            if not merged:
                break

        # Veto 1: a group may carry at most one distinguished constant.
        pinned: dict[Term, Constant] = {}
        for representative in classes:
            constant = self._const.get(representative)
            if constant is None:
                continue
            root = find(representative)
            existing = pinned.get(root)
            if existing is not None and existing != constant:
                return None
            pinned[root] = constant
        # Veto 2: no merge may cross an asserted disequality.  A crossed
        # *witness* disequality is recoverable: report the witness index
        # class so the caller can re-seat it.
        for entries in self._diseqs.values():
            for lhs, rhs, _atom in entries:
                if find(self.find(lhs)) is not find(self.find(rhs)):
                    continue
                witness_rep = self._witness_index(lhs, rhs, seeds)
                if witness_rep is not None:
                    return ("reseat", witness_rep)
                return None

        class_map: dict[Term, Term] = {}
        for representative in classes:
            root = find(representative)
            if root is not representative:
                class_map[representative] = root
        select_rows = tuple(
            (array, k, find(row)) for (array, k), row in rows.items()
        )
        return ("ok", class_map, select_rows)

    def _witness_index(self, lhs, rhs, seeds):
        """The index class of a witness-select disequality, if `lhs`/`rhs`
        are the two reads of an extensionality instance whose witness has
        not been re-seated yet in this attempt."""
        for side in (lhs, rhs):
            if not (
                isinstance(side, Apply)
                and not side.indices
                and side.op == "select"
            ):
                return None
        index = lhs.args[1]
        if not (
            isinstance(index, Symbol)
            and index.name.startswith(WITNESS_MARKER)
        ):
            return None
        rep = self.find(index)
        if any(left is rep for left, _right in seeds):
            return None
        return rep


__all__ = ["EufTheory", "WITNESS_MARKER", "LEMMA_BUDGET"]
