"""The hash-consed SMT-LIB term core.

Terms are immutable, *interned* DAG nodes: constructing a term that is
structurally equal to one that already exists returns the existing object
(one object per distinct term).  Five node kinds cover everything the
library needs:

* :class:`Constant` — literals (numerals, decimals, string literals,
  bit-vector literals, finite-field constants, ``true``/``false``) and
  *qualified constants* such as ``(as seq.empty (Seq Int))``.
* :class:`Symbol` — an occurrence of a declared function of arity zero
  (an SMT-LIB "variable") or of a quantified/let-bound variable.
* :class:`Apply` — application of an operator or declared function,
  optionally with numeral indices (``(_ extract 3 0)``, ``(_ divisible 3)``).
* :class:`Quantifier` — ``forall`` / ``exists`` with a list of bindings.
* :class:`Let` — parallel ``let`` bindings.

Hash-consing gives three guarantees the rest of the pipeline builds on:

* **O(1) equality** — structural equality coincides with object identity
  (``==`` is ``is``), so comparing two terms never walks their trees.
* **Identity hashing** — a node hashes by identity, in C, which interning
  makes consistent with ``==``.  Hash values, and so the iteration order
  of a set of terms, differ between runs and even between two executions
  in one process: no code may depend on them (iterate a list or a dict).
* **Fields are slots** — ``sort``, ``op``, ``args`` and every other field
  is a slot set once at construction; ``Quantifier`` stores ``Bool`` and
  ``Let`` its body's sort, so ``term.sort`` never recomputes anything.

The intern table is a plain dict of keyed weak references: a node dies
with its last reference and its entry leaves with it, so the table is
not a cache that outlives a script.  :func:`intern_stats` reports
hit/miss counters and the live-node count for the benchmark harness.
The table is process-global and not synchronised — the library is
single-threaded by design.

Every class constructor *is* the interning constructor (interning happens
in ``__new__``), so the parser, simplifier and tests all share the table
without calling anything special.  Construction does not re-check
well-sortedness; use :mod:`repro.smtlib.typecheck` for that.
"""

from __future__ import annotations

from _weakref import _remove_dead_weakref  # type: ignore[attr-defined]
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, TypeVar, Union

from .sorts import BOOL, INT, REAL, STRING, Sort, _KeyedRef

ConstantValue = Union[bool, int, Fraction, str]
_T = TypeVar("_T", bound="Term")


# ---------------------------------------------------------------------------
# The intern table.
# ---------------------------------------------------------------------------

_INTERN_TABLE: dict[tuple, _KeyedRef] = {}
_HITS = 0
_MISSES = 0


def _drop_dead(ref: _KeyedRef) -> None:
    """Remove a dead node's entry, unless a live node has taken its key."""
    _remove_dead_weakref(_INTERN_TABLE, ref.key)


def intern_stats() -> dict[str, int]:
    """Intern-table counters: ``hits`` (constructions that returned an
    existing node), ``misses`` (constructions that allocated) and ``live``
    (nodes currently reachable)."""
    return {"hits": _HITS, "misses": _MISSES, "live": len(_INTERN_TABLE)}


def reset_intern_stats() -> None:
    """Zero the hit/miss counters (the table itself is left alone)."""
    global _HITS, _MISSES
    _HITS = 0
    _MISSES = 0


class Term:
    """Base class of all term nodes.

    Instances are immutable and interned; see the module docstring.
    Subclasses allocate exclusively through :meth:`Term._intern`.
    """

    # ``_linear`` stays unset until :func:`repro.smtlib.linarith.linear_form`
    # caches the node's linear form (or ``None``) there.
    __slots__ = ("sort", "_linear", "__weakref__")

    sort: Sort

    @classmethod
    def _intern(cls: type[_T], key: tuple, sort: Sort, *fields: object) -> _T:
        """Return the canonical node for ``key``, allocating on first use;
        a new node's ``fields`` fill its class's own ``__slots__`` in order."""
        global _HITS, _MISSES
        ref = _INTERN_TABLE.get(key)
        if ref is not None:
            existing = ref()
            if existing is not None:
                _HITS += 1
                return existing
        _MISSES += 1
        node = object.__new__(cls)
        object.__setattr__(node, "sort", sort)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        ref = _KeyedRef(node, _drop_dead)
        ref.key = key
        _INTERN_TABLE[key] = ref
        return node

    # -- immutability / identity semantics ----------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"terms are immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"terms are immutable: cannot delete {name!r}")

    def __deepcopy__(self, memo: dict) -> "Term":
        return self  # immutable: no need to rebuild the DAG through ``__reduce__``

    # -- traversal ----------------------------------------------------------

    def children(self) -> tuple["Term", ...]:
        """Immediate sub-terms of this node."""
        return ()

    def walk(self) -> Iterator["Term"]:
        """Yield this node and every descendant, pre-order.

        Shared subterms are yielded once per *occurrence* (tree view); use
        :meth:`dag_walk` for the DAG view.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def dag_walk(self) -> Iterator["Term"]:
        """Yield every *distinct* node once, at its first occurrence in
        :meth:`walk` order — the DAG view, linear in :meth:`dag_size`."""
        seen: set[Term] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                yield node
                stack.extend(reversed(node.children()))

    def size(self) -> int:
        """Number of nodes in the term viewed as a tree (occurrences)."""
        return sum(1 for _ in self.walk())

    def dag_size(self) -> int:
        """Number of *distinct* nodes in the term viewed as a DAG.

        With hash-consing, structurally equal subterms are one object, so
        this counts unique objects — the real memory footprint.
        """
        return sum(1 for _ in self.dag_walk())

    def depth(self) -> int:
        """Height of the term tree (a leaf has depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    def free_symbols(self) -> dict[str, Sort]:
        """Free :class:`Symbol` occurrences, name → sort.

        Symbols bound by enclosing quantifiers or ``let`` bindings are not
        reported.
        """
        result: dict[str, Sort] = {}
        _collect_free_symbols(self, frozenset(), result, set())
        return result

    def operators(self) -> set[str]:
        """The set of operator names applied anywhere inside the term."""
        return {node.op for node in self.dag_walk() if isinstance(node, Apply)}

    # -- convenience --------------------------------------------------------

    def __str__(self) -> str:
        from .printer import term_to_smtlib

        return term_to_smtlib(self)


class Constant(Term):
    """A literal constant, e.g. ``3``, ``1.5``, ``"abc"``, ``#b1010``, ``true``.

    ``qualifier`` holds the symbolic name for qualified constants such as
    ``(as seq.empty (Seq Int))`` (qualifier = ``"seq.empty"``) and finite
    field literals ``(as ff3 (_ FiniteField 5))`` (qualifier = ``"ff3"``);
    it is empty for plain literals.
    """

    __slots__ = ("value", "qualifier")

    value: ConstantValue
    qualifier: str

    def __new__(cls, value: ConstantValue, sort: Sort, qualifier: str = "") -> "Constant":
        if sort is REAL and isinstance(value, int):
            value = Fraction(value)
        return cls._intern(("Constant", type(value).__name__, value, sort, qualifier), sort, value, qualifier)

    def __repr__(self) -> str:
        return f"Constant(value={self.value!r}, sort={self.sort!r}, qualifier={self.qualifier!r})"

    def __reduce__(self):
        return (Constant, (self.value, self.sort, self.qualifier))


class Symbol(Term):
    """An occurrence of a zero-arity function or a bound variable."""

    __slots__ = ("name",)

    name: str

    def __new__(cls, name: str, sort: Sort) -> "Symbol":
        return cls._intern(("Symbol", name, sort), sort, name)

    def __repr__(self) -> str:
        return f"Symbol(name={self.name!r}, sort={self.sort!r})"

    def __reduce__(self):
        return (Symbol, (self.name, self.sort))


class Apply(Term):
    """Application ``(op arg1 ... argn)``; ``indices`` for ``(_ op i ...)``."""

    __slots__ = ("op", "args", "indices")

    op: str
    args: tuple["Term", ...]
    indices: tuple[int, ...]

    def __new__(
        cls,
        op: str,
        args: Sequence[Term],
        sort: Sort,
        indices: Sequence[int] = (),
    ) -> "Apply":
        args = tuple(args)
        indices = tuple([int(i) for i in indices]) if indices else ()
        return cls._intern(("Apply", op, args, sort, indices), sort, op, args, indices)

    def children(self) -> tuple[Term, ...]:
        return self.args

    def __repr__(self) -> str:
        return (
            f"Apply(op={self.op!r}, args={self.args!r}, "
            f"sort={self.sort!r}, indices={self.indices!r})"
        )

    def __reduce__(self):
        return (Apply, (self.op, self.args, self.sort, self.indices))


class Quantifier(Term):
    """A ``forall`` or ``exists`` term; ``bindings`` are (name, sort) pairs.

    The sort is always ``Bool`` and is stored like any other node's.
    """

    __slots__ = ("kind", "bindings", "body")

    kind: str
    bindings: tuple[tuple[str, Sort], ...]
    body: "Term"

    def __new__(
        cls,
        kind: str,
        bindings: Sequence[tuple[str, Sort]],
        body: Term,
    ) -> "Quantifier":
        if kind not in ("forall", "exists"):
            raise ValueError(f"unknown quantifier kind: {kind}")
        bindings = tuple((n, s) for n, s in bindings)
        return cls._intern(("Quantifier", kind, bindings, body), BOOL, kind, bindings, body)

    def children(self) -> tuple[Term, ...]:
        return (self.body,)

    def __repr__(self) -> str:
        return f"Quantifier(kind={self.kind!r}, bindings={self.bindings!r}, body={self.body!r})"

    def __reduce__(self):
        return (Quantifier, (self.kind, self.bindings, self.body))


class Let(Term):
    """A parallel ``let`` term; ``bindings`` are (name, term) pairs.

    The sort is the body's sort, stored at construction.
    """

    __slots__ = ("bindings", "body")

    bindings: tuple[tuple[str, "Term"], ...]
    body: "Term"

    def __new__(cls, bindings: Sequence[tuple[str, Term]], body: Term) -> "Let":
        bindings = tuple((n, t) for n, t in bindings)
        return cls._intern(("Let", bindings, body), body.sort, bindings, body)

    def children(self) -> tuple[Term, ...]:
        return tuple(t for _, t in self.bindings) + (self.body,)

    def __repr__(self) -> str:
        return f"Let(bindings={self.bindings!r}, body={self.body!r})"

    def __reduce__(self):
        return (Let, (self.bindings, self.body))


# ---------------------------------------------------------------------------
# Binder-scope bookkeeping shared by the scope-threading passes.
# ---------------------------------------------------------------------------


def push_scope(bound: dict, bindings) -> list:
    """Enter binder ``bindings`` ((name, value) pairs) by mutating ``bound``;
    return the shadowed entries for :func:`pop_scope`.

    Mutate-and-restore keeps deep binder chains linear where copying the
    scope dict per level would be quadratic; the parser, the type checker,
    the evaluator and engine preparation thread their scopes through this
    pair.
    """
    saved = [(name, bound.get(name)) for name, _ in bindings]
    for name, value in bindings:
        bound[name] = value
    return saved


def pop_scope(bound: dict, saved: list) -> None:
    """Undo a :func:`push_scope`, restoring shadowed entries."""
    for name, old in saved:
        if old is None:
            bound.pop(name, None)
        else:
            bound[name] = old


# ---------------------------------------------------------------------------
# Free-symbol collection and substitution.
# ---------------------------------------------------------------------------


def _collect_free_symbols(
    term: Term, bound: frozenset[str], out: dict[str, Sort], seen: set
) -> None:
    # A (term, bound-set) pair always contributes the same names, so with
    # hash-consed sharing each distinct pair is visited once — keeping the
    # walk linear in DAG size rather than tree size.
    key = (term, bound)
    if key in seen:
        return
    seen.add(key)
    if isinstance(term, Symbol):
        if term.name not in bound:
            out.setdefault(term.name, term.sort)
        return
    if isinstance(term, Quantifier):
        inner = bound | {name for name, _ in term.bindings}
        _collect_free_symbols(term.body, inner, out, seen)
        return
    if isinstance(term, Let):
        for _, value in term.bindings:
            _collect_free_symbols(value, bound, out, seen)
        inner = bound | {name for name, _ in term.bindings}
        _collect_free_symbols(term.body, inner, out, seen)
        return
    for child in term.children():
        _collect_free_symbols(child, bound, out, seen)


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace free symbols by name according to ``mapping``.

    Bound occurrences (quantifier or ``let`` bindings) shadow the mapping.
    """
    return _substitute(term, dict(mapping))


def _substitute(term: Term, mapping: dict[str, Term]) -> Term:
    if not mapping:
        return term
    if isinstance(term, Constant):
        return term
    if isinstance(term, Symbol):
        return mapping.get(term.name, term)
    if isinstance(term, Apply):
        # Plain loop, not a genexpr, so deep chains substitute in linear time.
        rewritten = []
        for arg in term.args:
            rewritten.append(_substitute(arg, mapping))
        new_args = tuple(rewritten)
        if new_args == term.args:
            return term
        return Apply(term.op, new_args, term.sort, term.indices)
    if isinstance(term, Quantifier):
        shadowed = {k: v for k, v in mapping.items() if k not in {n for n, _ in term.bindings}}
        new_body = _substitute(term.body, shadowed)
        if new_body is term.body:
            return term
        return Quantifier(term.kind, term.bindings, new_body)
    if isinstance(term, Let):
        new_bindings = tuple((name, _substitute(value, mapping)) for name, value in term.bindings)
        shadowed = {k: v for k, v in mapping.items() if k not in {n for n, _ in term.bindings}}
        new_body = _substitute(term.body, shadowed)
        return Let(new_bindings, new_body)
    raise TypeError(f"unknown term node: {term!r}")


def negate(term: Term) -> Term:
    """Logical negation of a ``Bool`` term, without stacking ``not`` nodes.

    ``true``/``false`` flip, ``(not t)`` unwraps to ``t``, and anything else
    gains a single ``not``.  Engine preparation uses this so a negated
    equality never stacks ``not`` nodes.
    """
    if term is TRUE:
        return FALSE
    if term is FALSE:
        return TRUE
    if isinstance(term, Apply) and term.op == "not":
        return term.args[0]
    return Apply("not", (term,), BOOL)


def replace_subterm(term: Term, target: Term, replacement: Term) -> Term:
    """Return ``term`` with the first occurrence of ``target`` (by identity —
    which, with interning, *is* structural equality) replaced by
    ``replacement``.

    Structure-sharing: any node whose descendants are all unchanged is
    returned as-is (``is``-identical), so untouched siblings of the replaced
    occurrence never get rebuilt.
    """
    replaced = [False]

    def rewrite(node: Term) -> Term:
        if not replaced[0] and (node is target or node == target):
            replaced[0] = True
            return replacement
        if isinstance(node, Apply):
            new_args = tuple(rewrite(a) for a in node.args)
            if all(new is old for new, old in zip(new_args, node.args)):
                return node
            return Apply(node.op, new_args, node.sort, node.indices)
        if isinstance(node, Quantifier):
            new_body = rewrite(node.body)
            if new_body is node.body:
                return node
            return Quantifier(node.kind, node.bindings, new_body)
        if isinstance(node, Let):
            new_bindings = tuple((n, rewrite(v)) for n, v in node.bindings)
            new_body = rewrite(node.body)
            if new_body is node.body and all(
                new is old for (_, new), (_, old) in zip(new_bindings, node.bindings)
            ):
                return node
            return Let(new_bindings, new_body)
        return node

    return rewrite(term)


# ---------------------------------------------------------------------------
# Small constructors used pervasively in tests and generators.
# ---------------------------------------------------------------------------

TRUE = Constant(True, BOOL)
FALSE = Constant(False, BOOL)


def int_const(value: int) -> Constant:
    """An ``Int`` numeral."""
    return Constant(int(value), INT)


def real_const(value: Union[int, float, Fraction]) -> Constant:
    """A ``Real`` decimal (stored exactly as a :class:`~fractions.Fraction`)."""
    return Constant(Fraction(value).limit_denominator(10**9), REAL)


def string_const(value: str) -> Constant:
    """A ``String`` literal."""
    return Constant(str(value), STRING)


def bool_const(value: bool) -> Constant:
    """``true`` or ``false``."""
    return TRUE if value else FALSE


def bitvec_const(value: int, width: int) -> Constant:
    """A bit-vector literal of the given width (value is reduced mod 2^width)."""
    from .sorts import bitvec_sort

    return Constant(int(value) % (1 << width), bitvec_sort(width))


def ff_const(value: int, order: int) -> Constant:
    """A finite-field literal ``(as ffK (_ FiniteField order))``."""
    from .sorts import finite_field_sort

    reduced = int(value) % order
    return Constant(reduced, finite_field_sort(order), qualifier=f"ff{reduced}")


def qualified_constant(name: str, sort: Sort) -> Constant:
    """A qualified nullary constructor such as ``(as seq.empty (Seq Int))``."""
    return Constant(0, sort, qualifier=name)


def symbols(names: Sequence[str], sort: Sort) -> list[Symbol]:
    """Declare a batch of same-sorted symbols (convenience for tests)."""
    return [Symbol(name, sort) for name in names]


__all__ = [
    "Term",
    "Constant",
    "Symbol",
    "Apply",
    "Quantifier",
    "Let",
    "substitute",
    "negate",
    "replace_subterm",
    "intern_stats",
    "reset_intern_stats",
    "TRUE",
    "FALSE",
    "int_const",
    "real_const",
    "string_const",
    "bool_const",
    "bitvec_const",
    "ff_const",
    "qualified_constant",
    "symbols",
    "ConstantValue",
]
