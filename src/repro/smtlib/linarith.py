"""Linear-arithmetic normal form: ``Σ cᵢ·xᵢ + k`` over Int/Real terms.

:func:`linear_form` rewrites a numeric term into a sparse linear
polynomial — a mapping from :class:`~repro.smtlib.terms.Symbol` to
exact rational coefficients plus a rational constant — or reports that
the term is not linear (``None``).  Values stay ``int`` while they are
integral and become :class:`~fractions.Fraction` only when a ``Real``
literal or a ``/`` makes one non-integral; an integral coefficient or
constant always comes back as an ``int`` (which compares and hashes
equal to the ``Fraction`` of the same value).  The supported fragment is
the linear one of ``Ints``/``Reals``:

* numerals and decimals (exact rationals),
* ``Int``/``Real`` symbols (the *variables* of the form),
* ``+``, binary/n-ary/unary ``-``,
* ``*`` with at most one non-constant factor,
* ``/`` by non-zero constants, and
* ``to_real`` coercions (transparent: the form is sort-agnostic).

Anything else — ``div``/``mod``/``abs``, non-linear products, ``ite``,
uninterpreted applications, division by zero or by a symbolic term —
makes the term non-linear and the function returns ``None``.  Division
by literal zero is deliberately rejected even though ``(/ x 0)`` is a
well-sorted term: SMT-LIB leaves its value unspecified, so no algebraic
rewriting may decide it.

**One form per node.**  A node's form is computed once and cached on the
node itself (the lazily set ``_linear`` slot of the hash-consed term, so
it lives exactly as long as the term).  Forms are therefore shared:
callers must treat them as read-only.  A symbol's form is the exception:
it is built on each call, because cached on the symbol it would refer
back to it, and the reference cycle would keep a dead symbol alive until
the cycle collector ran.  The computation is one
explicit-stack pass, linear in the size of the term as a *DAG*: the
``+``/``-``/``to_real`` nodes below the requested one are visited once
each, parents before children, and each node's scale is the sum of its
signs over every path that reaches it, so a shared doubling chain
``(+ x63 x63)`` costs 64 visits, not 2⁶⁴, and a sum nested 10⁶ deep
recurses nowhere.  The leaves of that pass — symbols, literals, ``*``
and ``/`` — contribute their own cached forms, scaled; a product or a
quotient reads its factors' cached forms.  Only the requested node and
those leaves are cached, never the inner sums of a pass, so a nested
sum over n distinct symbols costs O(n) time and memory, not O(n²).

The normal form is the shared vocabulary of every arithmetic consumer:

* the simplifier folds comparison/equality atoms whose *difference* is a
  ground form (``(< x (+ x 1))`` → ``true``),
* preparation splits an equality into two bounds when both sides have a
  form, and
* the :class:`~repro.theory.arith.ArithTheory` plugin compiles atoms
  into simplex bounds ``Σ cᵢxᵢ ▷ k``.

All of them read the same cached forms, so the theory can never disagree
with the simplifier about what an atom means.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .sorts import INT, REAL
from .terms import Apply, Constant, Symbol, Term

#: A sparse linear polynomial: coefficients per variable plus a constant.
#: Integral values are ``int``; only non-integral ones are ``Fraction``.
LinearForm = tuple[dict[Symbol, int | Fraction], int | Fraction]

_NUMERIC = (INT, REAL)
_SUMS = ("+", "-", "to_real")


def is_numeric_term(term: Term) -> bool:
    """True when the term's sort is ``Int`` or ``Real``."""
    return term.sort in _NUMERIC


def _number(value: int | Fraction) -> int | Fraction:
    """An integral rational as an ``int``; any other value unchanged."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _finish(coeffs: dict[Symbol, int | Fraction], constant: int | Fraction) -> LinearForm:
    """Drop zero coefficients and hand integral values back as ``int``."""
    return (
        {symbol: _number(coeff) for symbol, coeff in coeffs.items() if coeff},
        _number(constant),
    )


def _scaled(form: LinearForm, factor: int | Fraction) -> LinearForm:
    coeffs, constant = form
    return _finish({symbol: coeff * factor for symbol, coeff in coeffs.items()}, constant * factor)


def linear_form(term: Term) -> Optional[LinearForm]:
    """The linear normal form of a numeric term, or ``None``.

    The returned coefficient mapping never contains zero entries, so a
    ground (variable-free) term yields an empty mapping and the form's
    value is the constant alone.  The form is shared with every other
    caller (cached on the term, unless the term is a symbol): do not
    mutate it.
    """
    if isinstance(term, Symbol):
        return _symbol_form(term)
    try:
        return term._linear  # type: ignore[attr-defined]
    except AttributeError:
        pass
    # A node's form waits on the cached forms of its inputs (its sum
    # pass's leaves, or a product's factors): the missing ones go on the
    # stack above it and the node is tried again once they are cached.
    pending = [term]
    while pending:
        node = pending[-1]
        if hasattr(node, "_linear"):
            pending.pop()
            continue
        missing: list[Term] = []
        form = _form(node, missing)
        if missing:
            pending.extend(missing)
        else:
            pending.pop()
            object.__setattr__(node, "_linear", form)
    return term._linear  # type: ignore[attr-defined]


def _symbol_form(symbol: Symbol) -> Optional[LinearForm]:
    return ({symbol: 1}, 0) if symbol.sort in _NUMERIC else None


def _inputs(nodes, missing: list[Term]) -> list[Optional[LinearForm]]:
    """The forms of ``nodes``; an uncached node goes on ``missing`` (its
    entry is then meaningless)."""
    forms = []
    for node in nodes:
        if isinstance(node, Symbol):
            forms.append(_symbol_form(node))
            continue
        try:
            forms.append(node._linear)
        except AttributeError:
            missing.append(node)
            forms.append(None)
    return forms


def _form(node: Term, missing: list[Term]) -> Optional[LinearForm]:
    """The form of one node from its inputs' cached forms; the result is
    meaningless when it leaves uncached inputs on ``missing``."""
    if isinstance(node, Constant):
        if node.sort not in _NUMERIC or node.qualifier:
            return None
        return {}, _number(node.value)  # type: ignore[arg-type]
    if not isinstance(node, Apply) or node.indices:
        return None
    op = node.op
    if op in _SUMS:
        return _sum_form(node, missing)
    if op != "*" and op != "/":
        return None
    forms = _inputs(node.args, missing)
    if missing or None in forms:
        return None
    if op == "*":
        # Linear only when at most one factor is non-constant.
        factor: int | Fraction = 1
        symbolic: Optional[LinearForm] = None
        for form in forms:
            if not form[0]:
                factor *= form[1]
            elif symbolic is None:
                symbolic = form
            else:
                return None
        return ({}, _number(factor)) if symbolic is None else _scaled(symbolic, factor)
    divisor: int | Fraction = 1
    for form in forms[1:]:
        if form[0] or form[1] == 0:
            return None  # symbolic or unspecified (zero) divisor
        divisor *= form[1]
    # Fraction division: ``int / int`` would be a float.
    return _scaled(forms[0], Fraction(1) / divisor)


def _sum_form(root: Apply, missing: list[Term]) -> Optional[LinearForm]:
    """The form of a ``+``/``-``/``to_real`` node, by one pass over the
    sum nodes below it: each is visited once however many paths reach
    it, and its leaves contribute their cached forms times their scale."""
    # Discover the sum DAG (pre-order, so leaves come in first-occurrence
    # order) and count each sum node's parent edges.
    parents: dict[Term, int] = {root: 0}
    leaves: dict[Term, int] = {}  # leaf → scale
    seen: set[Term] = set()
    stack: list[Term] = [root]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node not in parents:
            leaves[node] = 0
            continue
        for arg in reversed(node.args):  # type: ignore[attr-defined]
            if isinstance(arg, Apply) and arg.op in _SUMS and not arg.indices:
                parents[arg] = parents.get(arg, 0) + 1
            stack.append(arg)
    forms = _inputs(leaves, missing)
    if missing or None in forms:
        return None
    # Hand each node's scale to its children, parents before children: a
    # node is ready once every parent edge has delivered its share.
    scales: dict[Term, int] = {root: 1}
    ready = [root]
    while ready:
        node = ready.pop()
        scale = scales[node]
        args = node.args  # type: ignore[attr-defined]
        negated = node.op == "-"  # type: ignore[attr-defined]
        for position, arg in enumerate(args):
            share = -scale if negated and (position or len(args) == 1) else scale
            if arg in leaves:
                leaves[arg] += share
                continue
            scales[arg] = scales.get(arg, 0) + share
            parents[arg] -= 1
            if not parents[arg]:
                ready.append(arg)
    coeffs: dict[Symbol, int | Fraction] = {}
    constant: int | Fraction = 0
    for (leaf, scale), (leaf_coeffs, leaf_constant) in zip(leaves.items(), forms):
        for symbol, coeff in leaf_coeffs.items():
            coeffs[symbol] = coeffs.get(symbol, 0) + scale * coeff
        constant += scale * leaf_constant
    return _finish(coeffs, constant)


def difference_form(lhs: Term, rhs: Term) -> Optional[LinearForm]:
    """The linear form of ``lhs - rhs``, or ``None`` when either side is
    not linear.  Shared-term cancellation falls out of the arithmetic:
    ``difference_form(x, x)`` is the empty form."""
    left = linear_form(lhs)
    if left is None:
        return None
    right = linear_form(rhs)
    if right is None:
        return None
    coeffs = dict(left[0])
    for symbol, coeff in right[0].items():
        coeffs[symbol] = coeffs.get(symbol, 0) - coeff
    return _finish(coeffs, left[1] - right[1])


__all__ = ["LinearForm", "linear_form", "difference_form", "is_numeric_term"]
