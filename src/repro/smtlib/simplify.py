"""Theory-aware, rewrite-to-fixpoint term simplification.

The simplifier rewrites terms bottom-up, memoized over the hash-consed DAG
(each distinct subterm is simplified once no matter how often it is
shared), and applies node-local rules until none fires:

* **Ground folding** — any application whose arguments are all literals is
  folded through the shared literal operator table in
  :mod:`repro.smtlib.evaluate`; partial constant runs inside n-ary
  applications fold through the *same* table, so the simplifier and the
  evaluator agree on literal semantics by construction.
* **Core** — boolean identities (``and``/``or`` unit and absorbing
  elements, duplicate and complementary-literal elimination, double
  negation, ``xor``/``=>`` constant elimination), ``ite`` collapsing, and
  reflexive ``=``/``distinct``/comparison collapsing.
* **Ints/Reals** — n-ary constant folding with ``+``/``*`` identity and
  absorption, nested same-operator flattening, ``(- x 0)``, ``(div x 1)``,
  ``(mod x 1)``, ``(/ x 1)`` and ``to_int``/``to_real`` cancellation.
* **BitVec** — the same algebraic treatment for ``bvadd``/``bvmul``/
  ``bvand``/``bvor``/``bvxor``, adjacent-literal ``concat`` merging,
  whole-width ``extract`` elimination, and zero-shift/zero-extend/rotate
  identities.
* **Strings** — adjacent-literal ``str.++`` merging with empty-string
  elimination (``str.len`` and friends fold through the ground table).

Binder handling is conservative and capture-free: a nested ``let`` spine
is processed in one sweep, accumulating *literal* bindings into a single
substitution environment (constants are closed terms, so substituting
them can never capture), dropping unused bindings, and keeping symbolic
bindings in place.  A quantifier whose body simplifies to a literal
collapses to it, and binders unused in the body are dropped (sound
because SMT-LIB sorts are non-empty).  Free-variable sets are memoized
per node, so binder-heavy terms simplify in time proportional to DAG
size, not depth squared.

Every rule is sort-preserving, so ``simplify(t).sort == t.sort`` and the
result still passes :func:`repro.smtlib.typecheck.check`.  All rules
strictly decrease the lexicographic measure (tree size, literal count,
nesting depth), so the local fixpoint loop terminates; with hash-consing,
``simplify(simplify(t)) == simplify(t)`` is an identity check.

:func:`simplify_script` rewrites every ``assert`` of a script through one
shared memo table.
"""

from __future__ import annotations

from itertools import combinations, pairwise
from typing import Callable, Iterable, Optional

from ..limits import ensure_recursion_limit
from .evaluate import fold_apply
from .linarith import is_numeric_term, linear_form
from .script import Script
from .sorts import BOOL, INT, STRING, Sort, bitvec_sort
from .terms import (
    FALSE,
    TRUE,
    Apply,
    Constant,
    Let,
    Quantifier,
    Symbol,
    Term,
    bool_const,
    substitute,
)

#: Flattening a nested associative application stops once the flattened
#: argument list would exceed this many entries.  The cap keeps deep
#: *chains* fully foldable while preventing a shared doubling DAG
#: (``t = (+ t t)`` repeated) from being linearised into an
#: exponentially wide node.
FLATTEN_LIMIT = 128


def simplify(term: Term) -> Term:
    """Simplify ``term`` to a rewrite fixpoint.  Sort-preserving."""
    ensure_recursion_limit()  # the simplifier recurses over term depth
    return simplify_with(term, {}, {})


def simplify_script(script: Script) -> Script:
    """Rewrite every ``assert`` of ``script`` through the simplifier.

    Other commands (declarations, options, ``check-sat`` ...) are kept
    as-is; all assertions share one memo table so common subterms across
    assertions are simplified once.
    """
    ensure_recursion_limit()  # the simplifier recurses over term depth
    memo: dict[Term, Term] = {}
    free: dict[Term, frozenset[str]] = {}
    return script.map_assertions(lambda term: simplify_with(term, memo, free))


# ---------------------------------------------------------------------------
# Free-variable sets, memoized per node.
# ---------------------------------------------------------------------------

_NO_NAMES: frozenset[str] = frozenset()


def _free_names(term: Term, free: dict[Term, frozenset[str]]) -> frozenset[str]:
    """Names of the free symbols of ``term`` (context-free, so cacheable
    per node across the whole simplification pass)."""
    cached = free.get(term)
    if cached is not None:
        return cached
    if isinstance(term, Symbol):
        names = frozenset((term.name,))
    elif isinstance(term, Constant):
        names = _NO_NAMES
    elif isinstance(term, Apply):
        collected: set[str] = set()
        for arg in term.args:
            collected |= _free_names(arg, free)
        names = frozenset(collected)
    elif isinstance(term, Quantifier):
        names = _free_names(term.body, free) - {name for name, _ in term.bindings}
    elif isinstance(term, Let):
        collected = set(_free_names(term.body, free))
        collected -= {name for name, _ in term.bindings}
        for _, value in term.bindings:
            collected |= _free_names(value, free)
        names = frozenset(collected)
    else:
        raise TypeError(f"unknown term node: {term!r}")
    free[term] = names
    return names


# ---------------------------------------------------------------------------
# The bottom-up driver.
# ---------------------------------------------------------------------------


def simplify_with(
    term: Term,
    memo: dict[Term, Term],
    free: dict[Term, frozenset[str]],
) -> Term:
    """:func:`simplify` through caller-owned tables (``memo``: term → fixpoint,
    ``free``: free-name sets); terms sharing them simplify a subterm once."""
    cached = memo.get(term)
    if cached is not None:
        return cached
    if isinstance(term, (Constant, Symbol)):
        result: Term = term
    elif isinstance(term, Apply):
        # Plain loop, not a genexpr: pure-Python recursion stays stackless
        # on CPython 3.11+, while a genexpr re-enters the C interpreter at
        # every level and makes deep chains quadratically slower.
        simplified = []
        for arg in term.args:
            simplified.append(simplify_with(arg, memo, free))
        args = tuple(simplified)
        node = term if args == term.args else Apply(term.op, args, term.sort, term.indices)
        result = simplify_node(node, memo, free)
    elif isinstance(term, Quantifier):
        body = simplify_with(term.body, memo, free)
        used = _free_names(body, free)
        kept = tuple((name, sort) for name, sort in term.bindings if name in used)
        if not kept:
            result = body  # constant body, or no binding used: Bool either way
        else:
            result = Quantifier(term.kind, kept, body)
    elif isinstance(term, Let):
        result = _simplify_let(term, memo, free)
    else:
        raise TypeError(f"unknown term node: {term!r}")
    memo[term] = result
    memo[result] = result
    return result


def simplify_node(
    node: Apply,
    memo: dict[Term, Term],
    free: dict[Term, frozenset[str]],
) -> Term:
    """The driver's step on an application over simplified arguments: the
    node rules, then the fixpoint of a rewritten node, both memoized."""
    cached = memo.get(node)
    if cached is None:
        rewritten = _apply_rules(node)
        cached = node if rewritten is node else simplify_with(rewritten, memo, free)
        memo[node] = cached
        memo[cached] = cached
    return cached


def _simplify_let(
    term: Let,
    memo: dict[Term, Term],
    free: dict[Term, frozenset[str]],
) -> Term:
    """Process a whole nested-``let`` spine in one sweep.

    Literal bindings accumulate into a single substitution environment
    (constants are closed, so substituting them can never capture a
    variable); symbolic bindings are kept as ``let`` frames.  Walking the
    spine once — instead of substituting at every nesting level — keeps
    deep ``let`` chains linear.
    """
    env: dict[str, Term] = {}
    frames: list[list[tuple[str, Term]]] = []
    node: Term = term
    while isinstance(node, Let):
        kept: list[tuple[str, Term]] = []
        bound_here = []
        for name, value in node.bindings:
            # Parallel let: values see the outer environment only.  The
            # environment is restricted to the value's free names so the
            # substitution never copies the whole (possibly deep-chain
            # sized) environment.
            needed = _restrict(env, value, free)
            value = substitute(value, needed) if needed else value
            value = simplify_with(value, memo, free)
            bound_here.append((name, value))
        for name, _ in node.bindings:
            env.pop(name, None)  # names bound here shadow outer entries
        for name, value in bound_here:
            if isinstance(value, Constant):
                env[name] = value
            else:
                kept.append((name, value))
        frames.append(kept)
        node = node.body
    needed = _restrict(env, node, free)
    body = substitute(node, needed) if needed else node
    result = simplify_with(body, memo, free)
    for kept in reversed(frames):
        used = _free_names(result, free)
        remaining = tuple((name, value) for name, value in kept if name in used)
        if remaining:
            result = Let(remaining, result)
    return result


def _restrict(
    env: dict[str, Term],
    term: Term,
    free: dict[Term, frozenset[str]],
) -> dict[str, Term]:
    """The part of ``env`` that can occur free in ``term``."""
    if not env:
        return env
    restricted = {}
    for name in _free_names(term, free):
        value = env.get(name)
        if value is not None:
            restricted[name] = value
    return restricted


# ---------------------------------------------------------------------------
# Node-local rules.
# ---------------------------------------------------------------------------


def _apply_rules(node: Apply) -> Term:
    if node.args and all(isinstance(a, Constant) for a in node.args):
        folded = fold_apply(node.op, node.indices, node.args, node.sort)
        if folded is not None:
            return folded
    rule = _RULES.get(node.op)
    if rule is not None:
        return rule(node)
    return node


def _flatten(op: str, args: tuple[Term, ...]) -> tuple[Term, ...]:
    """Inline nested un-indexed applications of the same associative ``op``,
    bounded by :data:`FLATTEN_LIMIT`."""
    if not any(isinstance(a, Apply) and a.op == op and not a.indices for a in args):
        return args
    flat: list[Term] = []
    for a in args:
        if isinstance(a, Apply) and a.op == op and not a.indices:
            flat.extend(a.args)
        else:
            flat.append(a)
    if len(flat) > FLATTEN_LIMIT:
        return args
    return tuple(flat)


def _fold_run(op: str, constants: list[Constant], sort: Sort) -> Optional[Constant]:
    """Fold a run of literal arguments through the shared operator table,
    so partial folding can never disagree with the evaluator."""
    if len(constants) == 1:
        return constants[0]
    return fold_apply(op, (), tuple(constants), sort)


def _rule_not(node: Apply) -> Term:
    (arg,) = node.args
    if arg is TRUE:
        return FALSE
    if arg is FALSE:
        return TRUE
    if isinstance(arg, Apply) and arg.op == "not":
        return arg.args[0]
    return node


def _bool_connective(absorber: Constant, identity: Constant) -> Callable[[Apply], Term]:
    """``and`` (absorber false, identity true) and ``or`` (dual): flatten,
    drop identity elements and duplicates, short-circuit on the absorber or
    on a complementary pair."""

    def rule(node: Apply) -> Term:
        args = _flatten(node.op, node.args)
        kept: list[Term] = []
        seen: set[Term] = set()
        for arg in args:
            if arg is absorber:
                return absorber
            if arg is identity or arg in seen:
                continue
            seen.add(arg)
            kept.append(arg)
        for arg in kept:
            if isinstance(arg, Apply) and arg.op == "not" and arg.args[0] in seen:
                return absorber
        if not kept:
            return identity
        if len(kept) == 1:
            return kept[0]
        if tuple(kept) == node.args:
            return node
        return Apply(node.op, tuple(kept), BOOL)

    return rule


def _rule_xor(node: Apply) -> Term:
    args = _flatten("xor", node.args)
    constants = [a for a in args if isinstance(a, Constant)]
    if not constants and args == node.args:
        return node
    rest = [a for a in args if not isinstance(a, Constant)]
    parity = bool(_fold_run("xor", constants, BOOL).value) if constants else False
    if not rest:
        return bool_const(parity)
    inner = rest[0] if len(rest) == 1 else Apply("xor", tuple(rest), BOOL)
    if parity:
        return Apply("not", (inner,), BOOL)
    return inner


def _rule_implies(node: Apply) -> Term:
    args = node.args
    if args[-1] is TRUE:
        return TRUE
    if any(a is FALSE for a in args[:-1]):
        return TRUE
    premises = [a for a in args[:-1] if a is not TRUE]
    if args[-1] is FALSE and premises:
        negated = premises[0] if len(premises) == 1 else Apply("and", tuple(premises), BOOL)
        return Apply("not", (negated,), BOOL)
    if not premises:
        return args[-1]
    if len(premises) == len(args) - 1:
        return node
    return Apply("=>", tuple(premises) + (args[-1],), BOOL)


def _fold_linear(
    node: Apply, pairs: Iterable[tuple[int, int]], holds: Callable[[object], bool]
) -> Term:
    """Fold an arithmetic atom that is the conjunction of ``holds(a - b)``
    over the argument index ``pairs``: ``false`` when one pair's
    difference is a ground value that fails, ``true`` when every pair's is
    one that holds, else the atom itself."""
    forms = [linear_form(arg) for arg in node.args]
    decided = True
    for i, j in pairs:
        left, right = forms[i], forms[j]
        if left is None or right is None or left[0] != right[0]:
            decided = False  # the difference is not ground
        elif not holds(left[1] - right[1]):
            return FALSE
    return TRUE if decided else node


def _rule_eq(node: Apply) -> Term:
    args = node.args
    if all(a is args[0] for a in args[1:]):
        return TRUE
    if len(args) == 2 and args[0].sort == BOOL:
        for value, other in ((args[0], args[1]), (args[1], args[0])):
            if value is TRUE:
                return other
            if value is FALSE:
                return Apply("not", (other,), BOOL)
    if is_numeric_term(args[0]):
        # Linear normalization: adjacent equalities chain, so one non-zero
        # ground difference refutes the whole atom.
        return _fold_linear(node, pairwise(range(len(args))), lambda d: d == 0)
    return node


def _rule_distinct(node: Apply) -> Term:
    args = node.args
    if len(set(args)) != len(args):
        return FALSE
    if args[0].sort == BOOL:
        if len(args) > 2:
            return FALSE  # three pairwise-distinct booleans cannot exist
        for value, other in ((args[0], args[1]), (args[1], args[0])):
            if value is TRUE:
                return Apply("not", (other,), BOOL)
            if value is FALSE:
                return other
    if is_numeric_term(args[0]):
        return _fold_linear(node, combinations(range(len(args)), 2), lambda d: d != 0)
    return node


def _rule_ite(node: Apply) -> Term:
    condition, then, other = node.args
    if condition is TRUE:
        return then
    if condition is FALSE:
        return other
    if then is other:
        return then
    if then is TRUE and other is FALSE:
        return condition
    if then is FALSE and other is TRUE:
        return Apply("not", (condition,), BOOL)
    if isinstance(condition, Apply) and condition.op == "not":
        return Apply("ite", (condition.args[0], other, then), node.sort)
    return node


def _ac_fold(node: Apply, identity: object, absorber: Optional[object] = None) -> Term:
    """Associative/commutative n-ary operator: flatten nested applications,
    fold the literal arguments into one trailing constant (via the shared
    operator table), drop the identity element and short-circuit on the
    absorbing element."""
    args = _flatten(node.op, node.args)
    constants = [a for a in args if isinstance(a, Constant)]
    if not constants and args == node.args:
        return node
    rest = [a for a in args if not isinstance(a, Constant)]
    folded = _fold_run(node.op, constants, node.sort) if constants else None
    if folded is None and constants:
        return node  # the table could not fold this run; leave it alone
    if absorber is not None and folded is not None and folded.value == absorber:
        return folded
    terms = list(rest)
    if folded is not None and (folded.value != identity or not rest):
        terms.append(folded)
    if not terms:
        return Constant(identity, node.sort)  # pragma: no cover - defensive
    if len(terms) == 1:
        return terms[0]
    if tuple(terms) == node.args:
        return node
    return Apply(node.op, tuple(terms), node.sort)


def _all_ones(sort: Sort) -> int:
    return (1 << sort.width) - 1


def _rule_add(node: Apply) -> Term:
    return _ac_fold(node, 0)


def _rule_mul(node: Apply) -> Term:
    return _ac_fold(node, 1, absorber=0)


def _rule_bvxor(node: Apply) -> Term:
    return _ac_fold(node, 0)


def _rule_bvand(node: Apply) -> Term:
    return _ac_fold(node, _all_ones(node.sort), absorber=0)


def _rule_bvor(node: Apply) -> Term:
    return _ac_fold(node, 0, absorber=_all_ones(node.sort))


def _rule_minus(node: Apply) -> Term:
    args = node.args
    if len(args) == 1:
        (arg,) = args
        if isinstance(arg, Apply) and arg.op == "-" and len(arg.args) == 1:
            return arg.args[0]
        return node
    tail = [a for a in args[1:] if not (isinstance(a, Constant) and a.value == 0)]
    if len(tail) == len(args) - 1:
        return node
    if not tail:
        return args[0]
    return Apply("-", (args[0], *tail), node.sort)


def _drop_identity_tail(identity: object) -> Callable[[Apply], Term]:
    """Left-associative operator: drop trailing identity-element literals
    (``(div x 1)`` → ``x``, ``(bvshl x #x00)`` → ``x`` ...)."""

    def rule(node: Apply) -> Term:
        args = node.args
        tail = [a for a in args[1:] if not (isinstance(a, Constant) and a.value == identity)]
        if len(tail) == len(args) - 1:
            return node
        if not tail:
            return args[0]
        return Apply(node.op, (args[0], *tail), node.sort)

    return rule


def _rule_mod(node: Apply) -> Term:
    divisor = node.args[1]
    if isinstance(divisor, Constant) and divisor.value == 1:
        return Constant(0, INT)
    return node


def _rule_to_int(node: Apply) -> Term:
    (arg,) = node.args
    if isinstance(arg, Apply) and arg.op == "to_real":
        return arg.args[0]
    return node


_REFLEXIVE_COMPARE = {
    "<": False, ">": False, "<=": True, ">=": True,
    "bvult": False, "bvugt": False, "bvslt": False, "bvsgt": False,
    "bvule": True, "bvuge": True, "bvsle": True, "bvsge": True,
    "str.<": False, "str.<=": True,
}


_COMPARE_VERDICT: dict[str, Callable[[object], bool]] = {
    "<": lambda d: d < 0,  # type: ignore[operator]
    "<=": lambda d: d <= 0,  # type: ignore[operator]
    ">": lambda d: d > 0,  # type: ignore[operator]
    ">=": lambda d: d >= 0,  # type: ignore[operator]
}


def _rule_compare(node: Apply) -> Term:
    if all(a is node.args[0] for a in node.args[1:]):
        return bool_const(_REFLEXIVE_COMPARE[node.op])
    verdict = _COMPARE_VERDICT.get(node.op)
    if verdict is not None and is_numeric_term(node.args[0]):
        # A chained comparison is the conjunction of its adjacent pairs.
        return _fold_linear(node, pairwise(range(len(node.args))), verdict)
    return node


def _rule_concat(node: Apply) -> Term:
    merged: list[Term] = []
    changed = False
    for arg in node.args:
        if isinstance(arg, Constant) and merged and isinstance(merged[-1], Constant):
            left = merged[-1]
            pair_sort = bitvec_sort(left.sort.width + arg.sort.width)
            merged[-1] = fold_apply("concat", (), (left, arg), pair_sort)
            changed = True
        else:
            merged.append(arg)
    if not changed:
        return node
    if len(merged) == 1:
        return merged[0]
    return Apply("concat", tuple(merged), node.sort)


def _rule_extract(node: Apply) -> Term:
    (arg,) = node.args
    high, low = node.indices
    if low == 0 and high == arg.sort.width - 1:
        return arg
    return node


def _rule_extend(node: Apply) -> Term:
    if node.indices == (0,):
        return node.args[0]
    return node


def _rule_rotate(node: Apply) -> Term:
    (arg,) = node.args
    if node.indices[0] % arg.sort.width == 0:
        return arg
    return node


def _rule_repeat(node: Apply) -> Term:
    if node.indices == (1,):
        return node.args[0]
    return node


def _rule_str_concat(node: Apply) -> Term:
    merged: list[Term] = []
    changed = False
    for arg in _flatten("str.++", node.args):
        if isinstance(arg, Constant):
            if arg.value == "":
                changed = True
                continue
            if merged and isinstance(merged[-1], Constant):
                merged[-1] = fold_apply("str.++", (), (merged[-1], arg), STRING)
                changed = True
                continue
        merged.append(arg)
    if not changed and tuple(merged) == node.args:
        return node
    if not merged:
        return Constant("", STRING)
    if len(merged) == 1:
        return merged[0]
    return Apply("str.++", tuple(merged), STRING)


_RULES: dict[str, Callable[[Apply], Term]] = {
    # Core
    "not": _rule_not,
    "and": _bool_connective(FALSE, TRUE),
    "or": _bool_connective(TRUE, FALSE),
    "xor": _rule_xor,
    "=>": _rule_implies,
    "=": _rule_eq,
    "distinct": _rule_distinct,
    "ite": _rule_ite,
    # Ints / Reals
    "+": _rule_add,
    "*": _rule_mul,
    "-": _rule_minus,
    "div": _drop_identity_tail(1),
    "mod": _rule_mod,
    "/": _drop_identity_tail(1),
    "to_int": _rule_to_int,
    # BitVec
    "bvadd": _rule_add,
    "bvmul": _rule_mul,
    "bvxor": _rule_bvxor,
    "bvand": _rule_bvand,
    "bvor": _rule_bvor,
    "bvsub": _drop_identity_tail(0),
    "bvshl": _drop_identity_tail(0),
    "bvlshr": _drop_identity_tail(0),
    "bvashr": _drop_identity_tail(0),
    "bvudiv": _drop_identity_tail(1),
    "concat": _rule_concat,
    "extract": _rule_extract,
    "zero_extend": _rule_extend,
    "sign_extend": _rule_extend,
    "rotate_left": _rule_rotate,
    "rotate_right": _rule_rotate,
    "repeat": _rule_repeat,
    # Strings
    "str.++": _rule_str_concat,
}
_RULES.update({op: _rule_compare for op in _REFLEXIVE_COMPARE})


__all__ = ["simplify", "simplify_script", "simplify_with", "simplify_node", "FLATTEN_LIMIT"]
