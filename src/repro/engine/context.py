"""Assertion-stack frames and term preparation.

One :class:`Frame` per assertion-stack level holds the raw asserted
terms, their *prepared* and *simplified* forms (computed once, cached for
every later ``check-sat``), the declarations scoped to the level, and,
for a pushed level, the frame's SAT *selector* variable — the assumption
literal that activates the frame's clauses in the shared incremental
solver.  The base level can never be popped, so it has no selector.

Preparation is the term-level pipeline that runs **before** encoding:

1. :func:`inline_definitions` — beta-reduce ``define-fun`` applications.
2. :func:`expand_lets` — substitute ``let`` binders away (parallel
   semantics).
3. :func:`expand_equalities` — rewrite n-ary ``=`` / ``distinct`` over
   non-boolean terms into conjunctions of *binary* equalities (negated
   for ``distinct``), so the theory layer only ever sees binary equality
   atoms.  Boolean ``=``/``distinct`` are CNF connectives and stay as-is.
4. :func:`expand_arithmetic` — split pure-linear ``=`` into
   ``<=``/``>=`` bound pairs (NNF turns their negation into a
   disjunction of strict inequalities, so the SAT core case-splits
   disequalities for the convex simplex) and chained comparisons into
   binary conjunctions.

``define-fun`` expansion substitutes by name and is not capture-avoiding
against quantifiers inside definition bodies; the engine targets
quantifier-free skeletons, where no capture can occur.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..smtlib.linarith import difference_form
from ..smtlib.script import DefineFun, FunSignature
from ..smtlib.sorts import BOOL, INT, REAL, Sort
from ..smtlib.terms import (
    Apply,
    Constant,
    Let,
    Quantifier,
    Symbol,
    Term,
    negate,
    substitute,
)


class Frame:
    """One assertion-stack level: assertions, their cached prepared forms,
    scoped declarations and the frame's selector variable."""

    __slots__ = (
        "assertions",
        "names",
        "prepared",
        "simplified",
        "atom_lists",
        "encoded",
        "definitions",
        "consts",
        "funs",
        "selector",
        "named",
    )

    def __init__(self) -> None:
        self.assertions: list[Term] = []
        #: Parallel to ``assertions``: the ``:named`` label, or ``None``.
        self.names: list[Optional[str]] = []
        self.prepared: list[Term] = []
        self.simplified: list[Term] = []
        self.atom_lists: list[tuple[Term, ...]] = []
        self.encoded = 0
        self.definitions: dict[str, DefineFun] = {}
        self.consts: dict[str, Sort] = {}
        self.funs: dict[str, FunSignature] = {}
        #: The assumption literal guarding this frame's root clauses,
        #: allocated at the first ``check-sat`` after ``push``.  It stays
        #: ``None`` for the base frame, which can never be popped, so its
        #: unnamed assertions ship their root clauses unguarded.
        self.selector: Optional[int] = None
        #: ``(label, selector)`` per encoded named assertion.  Named
        #: assertions get their own selector in place of the frame's, so a
        #: failed-assumption core maps straight back to labels; popping
        #: the frame retires these selectors alongside the frame's own.
        self.named: list[tuple[str, int]] = []


# ---------------------------------------------------------------------------
# Definition inlining and let expansion.
# ---------------------------------------------------------------------------


def inline_definitions(
    term: Term,
    definitions: dict[str, DefineFun],
    shadowed: frozenset[str],
    memo: dict[tuple[Term, frozenset[str]], Term],
) -> Term:
    """Beta-reduce every application (or nullary occurrence) of a defined
    function.  ``shadowed`` holds binder names that hide same-named
    definitions below them."""
    if not definitions:
        return term
    key = (term, shadowed)
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = _inline_node(term, definitions, shadowed, memo)
    memo[key] = result
    return result


def _inline_node(
    term: Term,
    definitions: dict[str, DefineFun],
    shadowed: frozenset[str],
    memo: dict[tuple[Term, frozenset[str]], Term],
) -> Term:
    if isinstance(term, Constant):
        return term
    if isinstance(term, Symbol):
        definition = definitions.get(term.name)
        if definition is not None and not definition.params and term.name not in shadowed:
            return inline_definitions(definition.body, definitions, frozenset(), memo)
        return term
    if isinstance(term, Apply):
        rewritten = []
        for arg in term.args:
            rewritten.append(inline_definitions(arg, definitions, shadowed, memo))
        args = tuple(rewritten)
        definition = definitions.get(term.op)
        if definition is not None and not term.indices and term.op not in shadowed:
            body = inline_definitions(definition.body, definitions, frozenset(), memo)
            mapping = {name: arg for (name, _), arg in zip(definition.params, args)}
            return substitute(body, mapping)
        if args == term.args:
            return term
        return Apply(term.op, args, term.sort, term.indices)
    if isinstance(term, Quantifier):
        inner = shadowed | {name for name, _ in term.bindings}
        body = inline_definitions(term.body, definitions, inner, memo)
        if body is term.body:
            return term
        return Quantifier(term.kind, term.bindings, body)
    if isinstance(term, Let):
        bindings = tuple(
            (name, inline_definitions(value, definitions, shadowed, memo))
            for name, value in term.bindings
        )
        inner = shadowed | {name for name, _ in term.bindings}
        body = inline_definitions(term.body, definitions, inner, memo)
        return Let(bindings, body)
    raise TypeError(f"unknown term node: {term!r}")


def expand_lets(term: Term, memo: dict[Term, Term]) -> Term:
    """Substitute every ``let`` binder away (parallel-let semantics)."""
    cached = memo.get(term)
    if cached is not None:
        return cached
    if isinstance(term, (Constant, Symbol)):
        result: Term = term
    elif isinstance(term, Apply):
        rewritten = []
        for arg in term.args:
            rewritten.append(expand_lets(arg, memo))
        args = tuple(rewritten)
        result = term if args == term.args else Apply(term.op, args, term.sort, term.indices)
    elif isinstance(term, Quantifier):
        body = expand_lets(term.body, memo)
        result = term if body is term.body else Quantifier(term.kind, term.bindings, body)
    elif isinstance(term, Let):
        mapping = {
            name: expand_lets(value, memo) for name, value in term.bindings
        }
        body = expand_lets(term.body, memo)
        result = substitute(body, mapping)
    else:
        raise TypeError(f"unknown term node: {term!r}")
    memo[term] = result
    return result


# ---------------------------------------------------------------------------
# Equality expansion (theory preparation).
# ---------------------------------------------------------------------------


def _expand_bottom_up(
    term: Term,
    memo: dict[Term, Term],
    rewrite_apply: Callable[[Apply, tuple[Term, ...]], Term],
) -> Term:
    """The memoized bottom-up traversal shared by the expansion passes:
    children rewrite first, then ``rewrite_apply`` sees each ``Apply``
    node with its rewritten arguments; ``Quantifier``/``Let`` rebuild
    with structure sharing (unchanged nodes return ``is``-identical)."""
    cached = memo.get(term)
    if cached is not None:
        return cached
    if isinstance(term, (Constant, Symbol)):
        result: Term = term
    elif isinstance(term, Apply):
        rewritten = []
        for arg in term.args:
            rewritten.append(_expand_bottom_up(arg, memo, rewrite_apply))
        result = rewrite_apply(term, tuple(rewritten))
    elif isinstance(term, Quantifier):
        body = _expand_bottom_up(term.body, memo, rewrite_apply)
        result = term if body is term.body else Quantifier(term.kind, term.bindings, body)
    elif isinstance(term, Let):
        bindings = tuple(
            (name, _expand_bottom_up(value, memo, rewrite_apply))
            for name, value in term.bindings
        )
        body = _expand_bottom_up(term.body, memo, rewrite_apply)
        if body is term.body and all(
            new is old for (_, new), (_, old) in zip(bindings, term.bindings)
        ):
            result = term
        else:
            result = Let(bindings, body)
    else:
        raise TypeError(f"unknown term node: {term!r}")
    memo[term] = result
    return result


def _rebuild(term: Apply, args: tuple[Term, ...]) -> Term:
    return term if args == term.args else Apply(term.op, args, term.sort, term.indices)


def expand_arithmetic(term: Term, memo: dict[Term, Term]) -> Term:
    """Normalize arithmetic atoms for the simplex theory.

    * A binary ``=`` whose difference is linear over Int/Real symbols
      becomes ``(and (<= a b) (>= a b))`` — asserted positively the two
      bounds pin the value, and under negation NNF turns the conjunction
      into a disjunction of *strict* inequalities, letting the SAT core
      case-split disequalities so the (convex) simplex never sees them.
      Equalities that are not linear (uninterpreted applications,
      ``div``/``mod`` ...) are left for EUF.
    * A chained comparison ``(< a b c)`` becomes the conjunction of its
      adjacent binary pairs, so the theory's atom vocabulary is binary
      only (mirroring what :func:`expand_equalities` does for ``=``).

    Runs after :func:`expand_equalities` (which reduces n-ary ``=`` and
    ``distinct`` to binary equalities first).
    """
    return _expand_bottom_up(term, memo, _arithmetic_rule)


def _arithmetic_rule(term: Apply, args: tuple[Term, ...]) -> Term:
    if (
        term.op == "="
        and len(args) == 2
        and args[0].sort in (INT, REAL)
        and difference_form(args[0], args[1]) is not None
    ):
        return Apply(
            "and",
            (Apply("<=", args, BOOL), Apply(">=", args, BOOL)),
            BOOL,
        )
    if term.op in ("<", "<=", ">", ">=") and len(args) > 2:
        pairs = tuple(
            Apply(term.op, (left, right), BOOL)
            for left, right in zip(args, args[1:])
        )
        return Apply("and", pairs, BOOL)
    return _rebuild(term, args)


def expand_equalities(term: Term, memo: dict[Term, Term]) -> Term:
    """Rewrite n-ary ``=``/``distinct`` over non-boolean arguments into
    boolean structure over *binary* equalities.

    ``(= a b c)`` becomes ``(and (= a b) (= b c))``; ``(distinct a b c)``
    becomes the conjunction of ``(not (= x y))`` over all pairs; binary
    ``distinct`` becomes a single negated equality.  Logically equivalent
    in every theory, and it normalizes the atom vocabulary so the EUF
    plugin only handles binary equalities.
    """
    return _expand_bottom_up(term, memo, _equality_rule)


def _equality_rule(term: Apply, args: tuple[Term, ...]) -> Term:
    if (
        term.op in ("=", "distinct")
        and args
        and args[0].sort != BOOL
        and (len(args) > 2 or term.op == "distinct")
    ):
        if term.op == "=":
            parts = [
                Apply("=", (left, right), BOOL)
                for left, right in zip(args, args[1:])
            ]
        else:
            parts = [
                negate(Apply("=", (args[i], args[j]), BOOL))
                for i in range(len(args))
                for j in range(i + 1, len(args))
            ]
        return parts[0] if len(parts) == 1 else Apply("and", tuple(parts), BOOL)
    return _rebuild(term, args)


__all__ = [
    "Frame",
    "inline_definitions",
    "expand_lets",
    "expand_equalities",
    "expand_arithmetic",
]
