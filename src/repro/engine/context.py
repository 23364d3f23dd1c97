"""Assertion-stack frames and term preparation.

One :class:`Frame` per assertion-stack level holds the raw asserted
terms, one *prepared* term per assertion (computed once, cached for every
later ``check-sat``) plus the preparation walk's records, the
declarations scoped to the level, and, for a pushed level, the frame's
SAT *selector* variable — the assumption literal that activates the
frame's clauses in the shared incremental solver.  The base level can
never be popped, so it has no selector.

Preparation is the only walk between an asserted term and the encoder:
:class:`Preparation`, one memoized post-order walk per round.

* **Binders.**  ``define-fun`` applications and ``let`` terms expand
  away.  A ``let`` body, or a defined function's body, is walked once
  under an *environment* that maps each binder name to its already
  prepared value (a ``let``'s values are prepared in the enclosing
  environment: parallel semantics), with a memo of its own.  A nullary
  definition's body is prepared once, through the top-level memo.
  Quantifier and ``let`` binders shadow same-named definitions and
  enclosing bindings.  A bound value is not re-walked, so it is never
  captured by a ``let`` it lands under; a quantifier inside a definition
  body can still capture an argument's free symbol, which cannot happen
  in the quantifier-free skeletons the engine targets.
* **Rules.**  Once its arguments are prepared, an application gets two
  rules, in order:

  1. n-ary ``=`` and every ``distinct`` over non-boolean arguments
     become boolean structure over *binary* equalities — ``(= a b c)``
     is ``(and (= a b) (= b c))``, ``(distinct a b c)`` the conjunction
     of ``(not (= x y))`` over all pairs — so the theory layer only ever
     sees binary equality atoms.  Boolean ``=``/``distinct`` are CNF
     connectives and stay as-is.
  2. A binary ``=`` whose difference is linear over Int/Real symbols
     becomes ``(and (<= a b) (>= a b))`` (its negation is a disjunction
     of strict inequalities, so the SAT core case-splits
     disequalities for the convex simplex; other equalities are left
     for EUF), and a chained comparison ``(< a b c)`` becomes the
     conjunction of its adjacent binary pairs.  Every binary equality
     rule 1 makes goes through this rule too.
* **Simplification.**  Then each application, and each quantifier once
  its body is prepared, goes through the simplifier's node rules to
  fixpoint (:func:`~repro.smtlib.simplify.simplify_with`, one memo per
  round), so the rules see simplified arguments: ``(= (ite true x 1) y)``
  splits like ``(= x y)``.
* **Records.**  The walk records into its frame the free symbols it
  passes and the sort of the first ``select`` read (before simplification
  can drop it), so building a model walks no assertion; a memo hit skips
  only what the same or an earlier, longer-lived frame recorded.
"""

from __future__ import annotations

from typing import Optional

from ..smtlib.linarith import linear_form
from ..smtlib.script import DefineFun, FunSignature
from ..smtlib.simplify import simplify_with
from ..smtlib.sorts import BOOL, INT, REAL, Sort
from ..smtlib.terms import (
    Apply,
    Constant,
    Let,
    Quantifier,
    Symbol,
    Term,
    negate,
    pop_scope,
    push_scope,
)


class Frame:
    """One assertion-stack level: assertions, their prepared forms and
    the walk's records, scoped declarations and the selector variable."""

    __slots__ = (
        "assertions",
        "names",
        "prepared",
        "symbols",
        "read_sort",
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
        #: Parallel to ``assertions``: the prepared, simplified term.
        self.prepared: list[Term] = []
        #: The free symbols the walk passed, name → sort, first seen first.
        self.symbols: dict[str, Sort] = {}
        #: The sort of the first ``select`` read the walk passed.
        self.read_sort: Optional[Sort] = None
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
# The preparation walk.
# ---------------------------------------------------------------------------


class Preparation:
    """One preparation round: the live definitions, and the top-level and
    simplifier memos the round's new assertions share."""

    def __init__(self, definitions: dict[str, DefineFun]) -> None:
        self._definitions = definitions
        self._top: dict[Term, Term] = {}
        self._simplified: dict[Term, Term] = {}
        self._free: dict[Term, frozenset[str]] = {}

    def prepare(self, term: Term, frame: Frame) -> Term:
        """``term`` prepared and simplified; the walk records into ``frame``."""
        self._frame = frame
        return self._walk(term, {}, self._top)

    def _walk(self, term: Term, env: dict[str, Term], memo: dict[Term, Term]) -> Term:
        if isinstance(term, Constant):
            return term
        if isinstance(term, Symbol):
            bound = env.get(term.name)
            if bound is not None:
                return bound
            definition = self._definitions.get(term.name)
            if definition is None or definition.params:
                self._frame.symbols.setdefault(term.name, term.sort)
                return term
            return self._walk(definition.body, {}, self._top)
        cached = memo.get(term)
        if cached is not None:
            return cached
        if isinstance(term, Apply):
            if term.op == "select" and self._frame.read_sort is None and not term.indices:
                self._frame.read_sort = term.sort
            prepared = []
            for arg in term.args:
                prepared.append(self._walk(arg, env, memo))
            args = tuple(prepared)
            definition = self._definitions.get(term.op)
            if definition is not None and not term.indices and term.op not in env:
                params = {name: arg for (name, _), arg in zip(definition.params, args)}
                result = self._walk(definition.body, params, {})
            else:
                result = simplify_with(_rewrite(term, args), self._simplified, self._free)
        elif isinstance(term, Quantifier):
            saved = push_scope(env, [(name, Symbol(name, sort)) for name, sort in term.bindings])
            body = self._walk(term.body, env, {})
            pop_scope(env, saved)
            node = term if body is term.body else Quantifier(term.kind, term.bindings, body)
            result = simplify_with(node, self._simplified, self._free)
        elif isinstance(term, Let):
            values = []
            for name, value in term.bindings:
                values.append((name, self._walk(value, env, memo)))
            saved = push_scope(env, values)
            result = self._walk(term.body, env, {})
            pop_scope(env, saved)
        else:
            raise TypeError(f"unknown term node: {term!r}")
        memo[term] = result
        return result


def _rewrite(term: Apply, args: tuple[Term, ...]) -> Term:
    """The two rules on an application whose arguments are prepared."""
    op = term.op
    if (op == "=" or op == "distinct") and args and args[0].sort != BOOL:
        if op == "distinct":
            parts = [
                negate(_equality((args[i], args[j])))
                for i in range(len(args))
                for j in range(i + 1, len(args))
            ]
            return parts[0] if len(parts) == 1 else Apply("and", tuple(parts), BOOL)
        if len(args) > 2:
            return Apply("and", tuple([_equality(pair) for pair in zip(args, args[1:])]), BOOL)
        bounds = _bounds(args)
        if bounds is not None:
            return bounds
    elif op in ("<", "<=", ">", ">=") and len(args) > 2:
        return Apply("and", tuple([Apply(op, pair, BOOL) for pair in zip(args, args[1:])]), BOOL)
    return term if args == term.args else Apply(op, args, term.sort, term.indices)


def _equality(args: tuple[Term, Term]) -> Term:
    """``(= a b)``, or its bound pair when the difference is linear."""
    bounds = _bounds(args)
    return Apply("=", args, BOOL) if bounds is None else bounds


def _bounds(args: tuple[Term, ...]) -> Optional[Term]:
    """``(and (<= a b) (>= a b))`` for a binary equality whose sides are
    both linear over Int/Real, else ``None``."""
    if (
        len(args) == 2
        and args[0].sort in (INT, REAL)
        and linear_form(args[0]) is not None
        and linear_form(args[1]) is not None
    ):
        return Apply("and", (Apply("<=", args, BOOL), Apply(">=", args, BOOL)), BOOL)
    return None


__all__ = ["Frame", "Preparation"]
