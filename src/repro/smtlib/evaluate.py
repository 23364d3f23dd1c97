"""Ground-term evaluation: reduce closed terms to literal values.

Two entry points:

* :func:`fold_apply` — the *literal operator table*: given an operator, its
  indices and already-literal :class:`~repro.smtlib.terms.Constant`
  arguments, compute the result constant, or return ``None`` when the
  operator is not foldable (unknown op, or a case SMT-LIB leaves
  unspecified such as ``(div x 0)``).  The simplifier reuses this table for
  its constant-folding rules, so evaluator and simplifier can never
  disagree on literal semantics.
* :func:`evaluate` — the recursive ground evaluator: reduces a closed term
  (optionally under an environment mapping symbol names to constants) to a
  single :class:`Constant`, short-circuiting ``and``/``or``/``ite`` the way
  the logic defines them.  Raises
  :class:`~repro.errors.EvaluationError` when the term is not ground or
  hits an unfoldable application.  Through ``define-fun`` definitions it
  evaluates a term as asserted: an application evaluates the body under
  the top-level bindings plus its parameters (a call-site ``let`` cannot
  capture a body name).  A nullary definition is evaluated where it is
  read, and a ``let`` value or an argument that cannot be evaluated
  fails only where it is read, so an unused one costs nothing.  An
  :class:`Evaluator` evaluates many terms against one model and shares
  their subterms' values.

Semantics follow the SMT-LIB standard: ``div``/``mod`` are Euclidean,
``bvudiv x 0`` is all-ones, ``bvurem x 0`` is ``x``, ``str.substr`` is
total with out-of-range arguments yielding ``""``, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

from ..errors import EvaluationError
from ..limits import ensure_recursion_limit
from .script import DefineFun
from .sorts import (
    INT,
    REAL,
    STRING,
    Sort,
    bitvec_sort,
    is_array,
    is_bitvec,
    is_finite_field,
)
from .terms import (
    FALSE,
    TRUE,
    Apply,
    Constant,
    ConstantValue,
    Let,
    Quantifier,
    Symbol,
    Term,
    bool_const,
    ff_const,
    pop_scope,
    push_scope,
)

# ---------------------------------------------------------------------------
# Integer helpers (SMT-LIB semantics).
# ---------------------------------------------------------------------------


def euclidean_div(a: int, b: int) -> int:
    """SMT-LIB ``div``: quotient with ``0 <= mod < |b|`` (``b`` non-zero)."""
    if b > 0:
        return a // b
    return -(a // -b)


def euclidean_mod(a: int, b: int) -> int:
    """SMT-LIB ``mod``: remainder in ``[0, |b|)`` (``b`` non-zero)."""
    return a - b * euclidean_div(a, b)


def _to_signed(value: int, width: int) -> int:
    return value - (1 << width) if value >= 1 << (width - 1) else value


def _mask(width: int) -> int:
    return (1 << width) - 1


def is_distinguished(constant: Constant) -> bool:
    """True for constants that denote pairwise-distinct values, so that
    ``=`` and ``distinct`` over them decide: unqualified literals,
    finite-field constants, and the ``@``-qualified abstract constants
    the theory layer mints for uninterpreted-sort model values.  Other
    qualified constants (``seq.empty``, ``set.universe`` ...) are
    symbolic, so disequality between them must not be decided."""
    return (
        not constant.qualifier
        or is_finite_field(constant.sort)
        or constant.qualifier.startswith("@")
    )


# ---------------------------------------------------------------------------
# The literal operator table.
# ---------------------------------------------------------------------------

_Folder = Callable[[tuple[int, ...], tuple[Constant, ...], Sort], Optional[Constant]]


def _chain(values: tuple, relation: Callable[[object, object], bool]) -> Constant:
    ok = all(relation(a, b) for a, b in zip(values, values[1:]))
    return bool_const(ok)


def _fold_core(op: str, indices, args: tuple[Constant, ...], sort: Sort) -> Optional[Constant]:
    values = tuple(a.value for a in args)
    if op == "not":
        return bool_const(not values[0])
    if op == "and":
        return bool_const(all(values))
    if op == "or":
        return bool_const(any(values))
    if op == "xor":
        parity = False
        for v in values:
            parity ^= bool(v)
        return bool_const(parity)
    if op == "=>":
        result = bool(values[-1])
        for v in reversed(values[:-1]):
            result = (not v) or result
        return bool_const(result)
    if op == "=":
        if all(a is args[0] for a in args[1:]):
            return TRUE
        if all(is_distinguished(a) for a in args):
            return FALSE
        return None
    if op == "distinct":
        if len(set(args)) != len(args):
            return FALSE
        if all(is_distinguished(a) for a in args):
            return TRUE
        return None
    if op == "ite":
        return args[1] if values[0] else args[2]
    return None


def _fold_arith(op: str, indices, args: tuple[Constant, ...], sort: Sort) -> Optional[Constant]:
    values = tuple(a.value for a in args)
    arg_sort = args[0].sort
    if op == "+":
        return Constant(sum(values), arg_sort)
    if op == "*":
        product = values[0]
        for v in values[1:]:
            product *= v
        return Constant(product, arg_sort)
    if op == "-":
        if len(values) == 1:
            return Constant(-values[0], arg_sort)
        acc = values[0]
        for v in values[1:]:
            acc -= v
        return Constant(acc, arg_sort)
    if op == "div":
        acc = values[0]
        for v in values[1:]:
            if v == 0:
                return None
            acc = euclidean_div(acc, v)
        return Constant(acc, INT)
    if op == "mod":
        if values[1] == 0:
            return None
        return Constant(euclidean_mod(values[0], values[1]), INT)
    if op == "abs":
        return Constant(abs(values[0]), INT)
    if op == "/":
        acc = Fraction(values[0])
        for v in values[1:]:
            if v == 0:
                return None
            acc /= v
        return Constant(acc, REAL)
    if op == "<":
        return _chain(values, lambda a, b: a < b)
    if op == "<=":
        return _chain(values, lambda a, b: a <= b)
    if op == ">":
        return _chain(values, lambda a, b: a > b)
    if op == ">=":
        return _chain(values, lambda a, b: a >= b)
    if op == "to_real":
        return Constant(Fraction(values[0]), REAL)
    if op == "to_int":
        fraction = Fraction(values[0])
        return Constant(fraction.numerator // fraction.denominator, INT)
    if op == "is_int":
        return bool_const(Fraction(values[0]).denominator == 1)
    if op == "divisible":
        return bool_const(values[0] % indices[0] == 0)
    return None


def _fold_bitvec(op: str, indices, args: tuple[Constant, ...], sort: Sort) -> Optional[Constant]:
    values = tuple(a.value for a in args)
    width = args[0].sort.width
    mask = _mask(width)

    def bv(value: int, result_width: int = width) -> Constant:
        return Constant(value & _mask(result_width), bitvec_sort(result_width))

    if op in ("bvadd", "bvmul", "bvand", "bvor", "bvxor"):
        acc = values[0]
        for v in values[1:]:
            if op == "bvadd":
                acc += v
            elif op == "bvmul":
                acc *= v
            elif op == "bvand":
                acc &= v
            elif op == "bvor":
                acc |= v
            else:
                acc ^= v
        return bv(acc)
    if op == "bvnot":
        return bv(~values[0])
    if op == "bvneg":
        return bv(-values[0])
    if op == "bvsub":
        return bv(values[0] - values[1])
    if op == "bvudiv":
        return bv(mask if values[1] == 0 else values[0] // values[1])
    if op == "bvurem":
        return bv(values[0] if values[1] == 0 else values[0] % values[1])
    if op in ("bvsdiv", "bvsrem", "bvsmod"):
        return _fold_bv_signed(op, values[0], values[1], width)
    if op == "bvshl":
        return bv(0 if values[1] >= width else values[0] << values[1])
    if op == "bvlshr":
        return bv(0 if values[1] >= width else values[0] >> values[1])
    if op == "bvashr":
        signed = _to_signed(values[0], width)
        shift = min(values[1], width)
        return bv(signed >> shift)
    if op == "concat":
        acc = 0
        total = 0
        for a in args:
            acc = (acc << a.sort.width) | a.value
            total += a.sort.width
        return bv(acc, total)
    if op == "extract":
        high, low = indices
        return bv(values[0] >> low, high - low + 1)
    if op == "zero_extend":
        return bv(values[0], width + indices[0])
    if op == "sign_extend":
        return bv(_to_signed(values[0], width), width + indices[0])
    if op == "rotate_left":
        k = indices[0] % width
        return bv((values[0] << k) | (values[0] >> (width - k)) if k else values[0])
    if op == "rotate_right":
        k = indices[0] % width
        return bv((values[0] >> k) | (values[0] << (width - k)) if k else values[0])
    if op == "repeat":
        acc = 0
        for _ in range(indices[0]):
            acc = (acc << width) | values[0]
        return bv(acc, width * indices[0])
    if op in ("bvult", "bvule", "bvugt", "bvuge"):
        a, b = values
        return bool_const(
            {"bvult": a < b, "bvule": a <= b, "bvugt": a > b, "bvuge": a >= b}[op]
        )
    if op in ("bvslt", "bvsle", "bvsgt", "bvsge"):
        a, b = _to_signed(values[0], width), _to_signed(values[1], width)
        return bool_const(
            {"bvslt": a < b, "bvsle": a <= b, "bvsgt": a > b, "bvsge": a >= b}[op]
        )
    return None


def _fold_bv_signed(op: str, s: int, t: int, width: int) -> Constant:
    """``bvsdiv``/``bvsrem``/``bvsmod`` per their SMT-LIB definitional
    expansions over ``bvudiv``/``bvurem`` (total, including ``t = 0``)."""
    mask = _mask(width)
    sort = bitvec_sort(width)
    msb_s = s >> (width - 1)
    msb_t = t >> (width - 1)
    abs_s = (-s) & mask if msb_s else s
    abs_t = (-t) & mask if msb_t else t
    udiv = mask if abs_t == 0 else abs_s // abs_t
    urem = abs_s if abs_t == 0 else abs_s % abs_t
    if op == "bvsdiv":
        negate = msb_s != msb_t
        return Constant((-udiv) & mask if negate else udiv, sort)
    if op == "bvsrem":
        return Constant((-urem) & mask if msb_s else urem, sort)
    # bvsmod: result takes the divisor's sign.
    if urem == 0 or msb_s == msb_t:
        value = (-urem) & mask if msb_s and msb_t else urem
    elif msb_s and not msb_t:
        value = (t - urem) & mask
    else:
        value = (urem + t) & mask
    return Constant(value, sort)


def _fold_string(op: str, indices, args: tuple[Constant, ...], sort: Sort) -> Optional[Constant]:
    values = tuple(a.value for a in args)
    if op == "str.++":
        return Constant("".join(values), STRING)
    if op == "str.len":
        return Constant(len(values[0]), INT)
    if op == "str.at":
        s, i = values
        return Constant(s[i] if 0 <= i < len(s) else "", STRING)
    if op == "str.substr":
        s, m, n = values
        if 0 <= m < len(s) and n >= 0:
            return Constant(s[m : m + n], STRING)
        return Constant("", STRING)
    if op == "str.contains":
        return bool_const(values[1] in values[0])
    if op == "str.prefixof":
        return bool_const(values[1].startswith(values[0]))
    if op == "str.suffixof":
        return bool_const(values[1].endswith(values[0]))
    if op == "str.indexof":
        s, t, i = values
        if i < 0 or i > len(s):
            return Constant(-1, INT)
        return Constant(s.find(t, i), INT)
    if op == "str.replace":
        s, t, u = values
        if not t:
            return Constant(u + s, STRING)
        return Constant(s.replace(t, u, 1), STRING)
    if op == "str.replace_all":
        s, t, u = values
        if not t:
            return Constant(s, STRING)
        return Constant(s.replace(t, u), STRING)
    if op == "str.to_int":
        s = values[0]
        ok = bool(s) and all(c in "0123456789" for c in s)
        return Constant(int(s) if ok else -1, INT)
    if op == "str.from_int":
        n = values[0]
        return Constant(str(n) if n >= 0 else "", STRING)
    if op == "str.<":
        return bool_const(values[0] < values[1])
    if op == "str.<=":
        return bool_const(values[0] <= values[1])
    return None


def _fold_ff(op: str, indices, args: tuple[Constant, ...], sort: Sort) -> Optional[Constant]:
    order = args[0].sort.width
    values = tuple(a.value for a in args)
    if op == "ff.add":
        return ff_const(sum(values), order)
    if op == "ff.mul":
        product = 1
        for v in values:
            product = (product * v) % order
        return ff_const(product, order)
    if op == "ff.neg":
        return ff_const(-values[0], order)
    return None


_CORE_OPS = frozenset({"not", "and", "or", "xor", "=>", "=", "distinct", "ite"})
_ARITH_OPS = frozenset(
    {"+", "*", "-", "div", "mod", "abs", "/", "<", "<=", ">", ">=",
     "to_real", "to_int", "is_int", "divisible"}
)
_FF_OPS = frozenset({"ff.add", "ff.mul", "ff.neg"})


def fold_apply(
    op: str,
    indices: tuple[int, ...],
    args: tuple[Constant, ...],
    sort: Sort,
) -> Optional[Constant]:
    """Fold one application of ``op`` to literal constants.

    ``sort`` is the application's (already type-checked) result sort.
    Returns the literal result, or ``None`` when the application is not
    foldable — unknown operator, symbolic qualified constants under
    ``=``/``distinct``, or a case SMT-LIB leaves unspecified (``div``,
    ``mod`` and ``/`` by zero).  The returned constant always has sort
    ``sort``.
    """
    if op in _CORE_OPS:
        return _fold_core(op, indices, args, sort)
    if op in _ARITH_OPS:
        return _fold_arith(op, indices, args, sort)
    if op in _FF_OPS and is_finite_field(args[0].sort):
        return _fold_ff(op, indices, args, sort)
    if op.startswith("str."):
        return _fold_string(op, indices, args, sort)
    if args and is_bitvec(args[0].sort):
        return _fold_bitvec(op, indices, args, sort)
    return None


# ---------------------------------------------------------------------------
# Array values.
# ---------------------------------------------------------------------------


class ArrayValue:
    """The value a ``store`` chain denotes: an opaque base-array constant
    plus a finite map of updated indices.

    The evaluator keeps these *normalized* against the model's ``select``
    graph — an update that merely restates what the base already reads is
    dropped, and chains over the same base flatten to one map — so
    structural equality of two values coincides with extensional equality
    relative to the model.  That is what lets ``=`` over array constants
    fold soundly during model validation.
    """

    __slots__ = ("base", "updates", "_hash")

    def __init__(
        self, base: Constant, updates: Mapping[Constant, Constant]
    ) -> None:
        self.base = base
        self.updates: dict[Constant, Constant] = dict(updates)
        self._hash = hash((base, frozenset(self.updates.items())))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, ArrayValue)
            and self.base is other.base
            and self.updates == other.updates
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayValue(base={self.base!r}, {len(self.updates)} updates)"


def _array_parts(array: Constant) -> tuple[Constant, dict[Constant, Constant]]:
    value = array.value
    if isinstance(value, ArrayValue):
        return value.base, value.updates
    return array, {}


def _base_read(
    base: Constant,
    index: Constant,
    funs: Optional[Mapping[str, "FunctionInterpretation"]],
) -> Optional[Constant]:
    if funs is not None:
        interpretation = funs.get("select")
        if interpretation is not None:
            return interpretation((base, index))
    return None


def _array_equal(
    lhs: Constant,
    rhs: Constant,
    funs: Optional[Mapping[str, "FunctionInterpretation"]],
) -> Optional[bool]:
    """Extensional equality of two array constants, relative to the
    model's ``select`` graph; ``None`` when no graph is available and the
    values are not structurally identical."""
    if lhs is rhs:
        return True
    base_l, updates_l = _array_parts(lhs)
    base_r, updates_r = _array_parts(rhs)
    if base_l is base_r and updates_l == updates_r:
        return True
    interpretation = funs.get("select") if funs is not None else None
    if interpretation is None:
        return None
    # Outside the finite key set below both rows read the graph default,
    # so comparing on it decides extensional equality exactly.
    keys = dict.fromkeys([*updates_l, *updates_r])
    for entry in interpretation.entries:
        if len(entry) == 2 and (entry[0] is base_l or entry[0] is base_r):
            keys[entry[1]] = None
    for key in keys:
        row_l = updates_l.get(key)
        if row_l is None:
            row_l = interpretation((base_l, key))
        row_r = updates_r.get(key)
        if row_r is None:
            row_r = interpretation((base_r, key))
        if row_l is not row_r:
            return False
    return True


def _fold_array_cmp(
    op: str,
    args: tuple[Constant, ...],
    funs: Optional[Mapping[str, "FunctionInterpretation"]],
) -> Constant:
    """``=``/``distinct`` over array constants, extensionally."""
    if op == "=":
        for other in args[1:]:
            verdict = _array_equal(args[0], other, funs)
            if verdict is None:
                raise EvaluationError("cannot compare array values")
            if not verdict:
                return FALSE
        return TRUE
    for position, lhs in enumerate(args):
        for rhs in args[position + 1 :]:
            verdict = _array_equal(lhs, rhs, funs)
            if verdict is None:
                raise EvaluationError("cannot compare array values")
            if verdict:
                return FALSE
    return TRUE


def _fold_array(
    op: str,
    args: tuple[Constant, ...],
    sort: Sort,
    funs: Optional[Mapping[str, "FunctionInterpretation"]],
) -> Optional[Constant]:
    """Evaluate ``select``/``store`` with real array semantics.

    ``store`` builds (and normalizes) an :class:`ArrayValue`; ``select``
    resolves through the update map, consulting the model's ``select``
    graph only for the opaque base.  Returns ``None`` when a base read is
    needed but no ``select`` interpretation is available."""
    if op == "select" and len(args) == 2:
        base, updates = _array_parts(args[0])
        hit = updates.get(args[1])
        if hit is not None:
            return hit
        return _base_read(base, args[1], funs)
    if op == "store" and len(args) == 3:
        array, index, value = args
        base, updates = _array_parts(array)
        updates = dict(updates)
        if _base_read(base, index, funs) is value:
            updates.pop(index, None)
        else:
            updates[index] = value
        if not updates:
            return base
        return Constant(ArrayValue(base, updates), sort)
    return None


# ---------------------------------------------------------------------------
# Uninterpreted-function interpretations.
# ---------------------------------------------------------------------------


class FunctionInterpretation:
    """A finite function graph plus a default: the model shape for an
    uninterpreted function.

    ``entries`` maps argument tuples (of interned :class:`Constant` nodes,
    so lookup is a dict hit) to result constants; every other argument
    tuple maps to ``default``.  The graph-plus-default shape is total and
    trivially congruence-respecting, which is exactly what model
    validation over EUF needs.
    """

    __slots__ = ("entries", "default")

    def __init__(
        self,
        entries: Mapping[tuple[Constant, ...], Constant],
        default: Constant,
    ) -> None:
        self.entries: dict[tuple[Constant, ...], Constant] = dict(entries)
        self.default = default

    def __call__(self, args: tuple[Constant, ...]) -> Constant:
        return self.entries.get(args, self.default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FunctionInterpretation({len(self.entries)} entries, "
            f"default={self.default!r})"
        )


# ---------------------------------------------------------------------------
# The ground evaluator.
# ---------------------------------------------------------------------------


def evaluate(
    term: Term,
    bindings: Optional[Mapping[str, Constant]] = None,
    funs: Optional[Mapping[str, FunctionInterpretation]] = None,
    definitions: Optional[Mapping[str, DefineFun]] = None,
) -> Constant:
    """Reduce a closed term to a literal :class:`Constant`.

    ``bindings`` maps free symbol names to constants (their sorts must match
    the symbol occurrences); ``funs`` maps uninterpreted function names to
    :class:`FunctionInterpretation` objects, extending evaluation over EUF
    models; ``definitions`` maps ``define-fun`` names to their commands
    (see the module docstring).  ``and``/``or``/``ite`` evaluate lazily in
    argument order, mirroring the logic's short-circuit identities.  Raises
    :class:`~repro.errors.EvaluationError` for quantified terms, uncovered
    free symbols, or unfoldable applications.
    """
    return Evaluator(bindings or {}, funs or {}, definitions or {})(term)


def evaluate_value(
    term: Term,
    bindings: Optional[Mapping[str, Constant]] = None,
    funs: Optional[Mapping[str, FunctionInterpretation]] = None,
) -> ConstantValue:
    """Like :func:`evaluate` but return the Python value of the result."""
    return evaluate(term, bindings, funs).value


@dataclass
class Evaluator:
    """Evaluates closed terms against one model, as :func:`evaluate` does
    with the same arguments.

    It remembers the value of every nullary definition, application and
    ``let`` term it evaluates outside any binder, so the terms evaluated
    through one evaluator share those values: model validation evaluates
    every asserted term of a check through one."""

    bindings: Mapping[str, Constant]
    funs: Mapping[str, FunctionInterpretation]
    definitions: Mapping[str, DefineFun]
    values: dict[str, Constant] = field(default_factory=dict)
    memo: dict[Term, Constant] = field(default_factory=dict)

    def __call__(self, term: Term) -> Constant:
        """The value of ``term``; raises as :func:`evaluate` does."""
        ensure_recursion_limit()  # the evaluator recurses over term depth
        return _evaluate(term, {}, self, self.memo)

    def free(self, name: str) -> Constant:
        """A name no binder binds: its binding, or its nullary definition's value."""
        value = self.bindings.get(name, self.values.get(name))
        if value is None:
            definition = self.definitions.get(name)
            if definition is None or definition.params:
                raise EvaluationError(f"cannot evaluate free symbol {name!r}")
            # The body sees the same names as a term outside any binder.
            value = self.values[name] = _evaluate(definition.body, {}, self, self.memo)
        return value


#: A bound name's value, or the error its binding's evaluation raised.
_Value = Union[Constant, EvaluationError]


def _evaluate(
    term: Term,
    env: dict[str, _Value],
    model: Evaluator,
    memo: dict[Term, Constant],
) -> Constant:
    # ``env`` binds the names in scope (a definition's parameters and the
    # enclosing ``let`` binders; other names go to ``model.free``);
    # ``memo`` holds the values of the applications and ``let`` terms
    # evaluated in this scope, so a shared subterm evaluates once per scope.
    if isinstance(term, Constant):
        return term
    if isinstance(term, Symbol):
        value = env.get(term.name)
        if value is None:
            value = model.free(term.name)
        if isinstance(value, EvaluationError):
            raise value
        if value.sort != term.sort:
            raise EvaluationError(
                f"binding for {term.name!r} has sort {value.sort}, expected {term.sort}"
            )
        return value
    result = memo.get(term)
    if result is not None:
        return result
    if isinstance(term, Apply):
        op = term.op
        if op == "ite":
            condition = _evaluate(term.args[0], env, model, memo)
            branch = term.args[1] if condition.value else term.args[2]
            result = _evaluate(branch, env, model, memo)
        elif op == "and":
            result = TRUE
            for arg in term.args:
                if not _evaluate(arg, env, model, memo).value:
                    result = FALSE
                    break
        elif op == "or":
            result = FALSE
            for arg in term.args:
                if _evaluate(arg, env, model, memo).value:
                    result = TRUE
                    break
        elif not term.indices and op in model.definitions:
            definition = model.definitions[op]
            names = [name for name, _ in definition.params]
            params = {name: _bound(arg, env, model, memo) for name, arg in zip(names, term.args)}
            result = _evaluate(definition.body, params, model, {})
        else:
            # Plain loop, not a genexpr: keeps deep chains linear on CPython
            # 3.11+ (a genexpr re-enters the C interpreter at every level).
            evaluated = []
            for arg in term.args:
                evaluated.append(_evaluate(arg, env, model, memo))
            result = _apply(term, tuple(evaluated), model.funs)
        memo[term] = result
        return result
    if isinstance(term, Let):
        # Parallel let: values evaluate in the enclosing environment.  The
        # environment is mutated and restored rather than copied, so deep
        # let chains evaluate in linear time; the body is a new scope with
        # a memo of its own.
        values = []
        for name, value in term.bindings:
            values.append((name, _bound(value, env, model, memo)))
        saved = push_scope(env, values)
        try:
            result = _evaluate(term.body, env, model, {})
        finally:
            pop_scope(env, saved)
        memo[term] = result
        return result
    if isinstance(term, Quantifier):
        raise EvaluationError(f"cannot evaluate quantified term ({term.kind})")
    raise EvaluationError(f"unknown term node: {term!r}")


def _bound(term: Term, env: dict[str, _Value], model: Evaluator, memo: dict[Term, Constant]) -> _Value:
    """What a ``let`` binder or a parameter binds: ``term``'s value, or the
    error evaluating it raised, raised again only where the name is read."""
    try:
        return _evaluate(term, env, model, memo)
    except EvaluationError as error:
        return error


def _apply(
    term: Apply,
    args: tuple[Constant, ...],
    funs: Optional[Mapping[str, FunctionInterpretation]],
) -> Constant:
    """The value of ``term`` with its arguments evaluated to ``args``."""
    op = term.op
    if op in ("select", "store") and not term.indices:
        # Array semantics come before any function graph: a store
        # chain denotes a concrete update map, never a free function.
        result = _fold_array(op, args, term.sort, funs)
        if result is not None:
            return result
    if op in ("=", "distinct") and not term.indices and args and is_array(args[0].sort):
        return _fold_array_cmp(op, args, funs)
    if funs is not None and not term.indices:
        interpretation = funs.get(op)
        if interpretation is not None:
            return interpretation(args)
    folded = fold_apply(op, term.indices, args, term.sort)
    if folded is None:
        raise EvaluationError(f"cannot evaluate application of {op!r}")
    return folded


__all__ = [
    "fold_apply",
    "evaluate",
    "evaluate_value",
    "Evaluator",
    "euclidean_div",
    "euclidean_mod",
    "ArrayValue",
    "FunctionInterpretation",
    "is_distinguished",
]
