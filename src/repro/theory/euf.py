"""EUF: congruence closure over the hash-consed term DAG.

The first concrete :class:`~repro.theory.core.Theory` plugin decides the
quantifier-free theory of equality with uninterpreted functions.  The
implementation is the classic congruence-closure loop (Downey–Sethi–Tarjan
signatures, Nieuwenhuis–Oliveras proof forest):

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

Every mutation is written through an undo log; :meth:`~EufTheory.push`
records a watermark and :meth:`~EufTheory.pop` replays the log backward,
giving the per-literal checkpoints the DPLL(T) trail synchronization
needs.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, Union

from ..smtlib.sorts import BOOL
from ..smtlib.terms import FALSE, TRUE, Apply, Constant, Symbol, Term
from ..smtlib.evaluate import FunctionInterpretation
from .core import SortValueAllocator, Theory, TheoryConflict, TheoryModel

_MISSING = object()

#: Proof-forest edge labels.
_Reason = tuple  # ("lit", atom, positive) | ("cong", app1, app2)


def _distinguished(constant: Constant) -> bool:
    """Literal constants denoting pairwise-distinct individuals (mirrors
    the evaluator's notion of a decidable literal)."""
    from ..smtlib.sorts import is_finite_field

    return (
        not constant.qualifier
        or is_finite_field(constant.sort)
        or constant.qualifier.startswith("@")
    )


class EufTheory(Theory):
    """Congruence closure with proof-producing explanations.

    ``uninterpreted`` names the script's declared functions (a collection
    of names or a predicate) — applications of anything else are treated
    as interpreted and stay outside the EUF fragment.
    """

    name = "euf"

    def __init__(
        self,
        uninterpreted: Union[Callable[[str], bool], Collection[str]] = (),
    ) -> None:
        super().__init__()
        self._is_uninterpreted: Callable[[str], bool]
        if callable(uninterpreted):
            self._is_uninterpreted = uninterpreted
        else:
            names = frozenset(uninterpreted)
            self._is_uninterpreted = names.__contains__
        self._rank: dict[Term, int] = {}
        self._parent: dict[Term, Term] = {}  # non-roots only
        self._sigs: dict[tuple, Apply] = {}
        self._use: dict[Term, list[Apply]] = {}  # representative -> apps to re-sign
        self._const: dict[Term, Constant] = {}  # representative -> distinguished constant
        self._diseqs: dict[Term, list[tuple[Term, Term, Term]]] = {}
        self._proof: dict[Term, tuple[Term, _Reason]] = {}
        self._conflict: Optional[TheoryConflict] = None
        self._trail: list[tuple] = []
        self._marks: list[int] = []
        self.stats = {"literals": 0, "merges": 0, "conflicts": 0, "explains": 0}

    # -- fragment membership -------------------------------------------------

    def is_euf_term(self, term: Term) -> bool:
        """True for terms EUF reasons about: distinguished constants,
        non-boolean symbols, and uninterpreted applications over such
        terms (argument positions must be non-boolean — boolean structure
        belongs to the SAT core)."""
        if isinstance(term, Constant):
            return _distinguished(term)
        if isinstance(term, Symbol):
            return term.sort != BOOL
        if isinstance(term, Apply):
            if term.indices or not self._is_uninterpreted(term.op):
                return False
            for arg in term.args:
                if arg.sort == BOOL or not self.is_euf_term(arg):
                    return False
            return True
        return False

    def owns_atom(self, atom: Term) -> bool:
        """EUF atoms: binary non-boolean equalities over EUF terms, and
        boolean-sorted uninterpreted applications (predicates)."""
        if not isinstance(atom, Apply):
            return False
        if atom.op == "=" and len(atom.args) == 2 and atom.args[0].sort != BOOL:
            return self.is_euf_term(atom.args[0]) and self.is_euf_term(atom.args[1])
        if atom.sort == BOOL and not atom.indices and self._is_uninterpreted(atom.op):
            for arg in atom.args:
                if arg.sort == BOOL or not self.is_euf_term(arg):
                    return False
            return True
        return False

    # -- undo log ------------------------------------------------------------

    def push(self) -> None:
        self._marks.append(len(self._trail))

    def pop(self, levels: int = 1) -> None:
        for _ in range(levels):
            mark = self._marks.pop()
            trail = self._trail
            while len(trail) > mark:
                entry = trail.pop()
                kind = entry[0]
                if kind == "d":
                    _, mapping, key, old = entry
                    if old is _MISSING:
                        mapping.pop(key, None)
                    else:
                        mapping[key] = old
                elif kind == "l":
                    _, values, length = entry
                    del values[length:]
                else:  # "c": conflict flag
                    self._conflict = entry[1]

    def _save(self, mapping: dict, key) -> None:
        self._trail.append(("d", mapping, key, mapping.get(key, _MISSING)))

    def _save_len(self, values: list) -> None:
        self._trail.append(("l", values, len(values)))

    def _set_conflict(self, conflict: TheoryConflict) -> None:
        self._trail.append(("c", self._conflict))
        self._conflict = conflict
        self.stats["conflicts"] += 1

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
        if isinstance(term, Constant) and _distinguished(term):
            self._save(self._const, term)
            self._const[term] = term
        if isinstance(term, Apply):
            for rep in {self.find(arg) for arg in term.args}:
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

    # -- the Theory interface --------------------------------------------------

    def assert_literal(self, atom: Term, positive: bool) -> Optional[TheoryConflict]:
        if self._conflict is not None:
            return self._conflict
        self.stats["literals"] += 1
        assert isinstance(atom, Apply), f"not an EUF atom: {atom!r}"
        if atom.op == "=" and len(atom.args) == 2 and atom.args[0].sort != BOOL:
            lhs, rhs = atom.args
            self._register(lhs)
            self._register(rhs)
            if self._conflict is not None:
                return self._conflict
            if positive:
                self._merge(lhs, rhs, ("lit", atom, True))
            elif self.find(lhs) is self.find(rhs):
                literals = [(atom, False)]
                literals.extend(self.explain(lhs, rhs))
                self._set_conflict(TheoryConflict(tuple(literals), source=self.name))
            else:
                for end_a, end_b in ((lhs, rhs), (rhs, lhs)):
                    entries = self._diseqs.setdefault(self.find(end_a), [])
                    self._save_len(entries)
                    entries.append((lhs, rhs, atom))
            return self._conflict
        # Predicate atom: p(args) = true / false.
        self._register(atom)
        target = TRUE if positive else FALSE
        self._register(target)
        if self._conflict is not None:
            return self._conflict
        self._merge(atom, target, ("lit", atom, positive))
        return self._conflict

    def check(self) -> Optional[TheoryConflict]:
        # The closure is maintained eagerly, so the verdict is immediate.
        return self._conflict

    def _model_repair(
        self, classes: dict[Term, list[Term]]
    ) -> tuple[dict[Term, Term], tuple[tuple[Term, Term, Term], ...]]:
        """Hook for subclasses to adjust model construction.

        Returns ``(class_map, select_rows)``: classes mapped to a common
        root share one model value (instead of the default one-value-per-
        class assignment), and every ``(array_rep, index_rep, value_rep)``
        row is materialised as a ``select`` graph entry.  Pure EUF needs
        neither — distinctness is always sound here."""
        return {}, ()

    def model(self, allocator: SortValueAllocator) -> Optional[TheoryModel]:
        """Assign every class a value: its distinguished constant when it
        has one, otherwise a fresh value distinct from every other class
        of the sort.  Distinctness is always sound for EUF — classes are
        merged exactly when equality is forced — but subclasses with
        stronger semantics (arrays) can merge values via
        :meth:`_model_repair`."""
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


__all__ = ["EufTheory"]
