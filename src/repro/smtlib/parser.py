"""Interpret s-expressions as SMT-LIB scripts and fully-sorted terms.

The parser sits on top of :mod:`repro.smtlib.sexpr` and produces the typed
representation: :class:`~repro.smtlib.script.Script` of commands whose
terms are :class:`~repro.smtlib.terms.Term` trees with every node carrying
its :class:`~repro.smtlib.sorts.Sort`.  Sort inference is driven by the
:class:`~repro.smtlib.script.DeclarationContext` (for declared symbols) and
by the operator signature table in :mod:`repro.smtlib.typecheck` (for
built-in operators), so parsing doubles as an eager well-sortedness check.

All terms are built through the hash-consing constructors in
:mod:`repro.smtlib.terms`, so parsing the same text twice yields
*identical* term object graphs (``is``-equal roots), and repeated
subterms within one script share a single node.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Optional, Union

from ..errors import ParseError, TypeCheckError, UnknownSymbolError
from ..limits import ensure_recursion_limit
from .lexer import RESERVED_WORDS, TokenKind
from .script import (
    Assert,
    CheckSat,
    Command,
    DeclarationContext,
    DeclareConst,
    DeclareFun,
    DeclareSort,
    DefineFun,
    Exit,
    GetModel,
    GetUnsatCore,
    GetValue,
    Pop,
    Push,
    Script,
    SetInfo,
    SetLogic,
    SetOption,
    apply_command,
)
from .sexpr import Atom, SExpr, parse_sexprs, sexpr_to_string
from .sorts import (
    BOOL,
    REAL,
    Sort,
    bitvec_sort,
    is_finite_field,
    relation_sort,
    tuple_sort,
)
from .terms import (
    Apply,
    Constant,
    Let,
    Quantifier,
    Symbol,
    Term,
    bool_const,
    ff_const,
    int_const,
    qualified_constant,
    string_const,
)
from .typecheck import (
    BUILTIN_CONSTANTS,
    QUALIFIED_CONSTANT_HEADS,
    SIGNATURES,
    apply_sort,
    check_constant,
    reject_duplicate_names,
)

_BV_LITERAL = re.compile(r"^bv(\d+)$")
_FF_LITERAL = re.compile(r"^ff(\d+)$")

# Head symbol of builtin sorts → (number of sort arguments, number of indices).
_BUILTIN_SORT_SHAPES: dict[str, tuple[int, int]] = {
    "Bool": (0, 0),
    "Int": (0, 0),
    "Real": (0, 0),
    "String": (0, 0),
    "RegLan": (0, 0),
    "RoundingMode": (0, 0),
    "UnitTuple": (0, 0),
    "BitVec": (0, 1),
    "FiniteField": (0, 1),
    "Seq": (1, 0),
    "Set": (1, 0),
    "Bag": (1, 0),
    "Array": (2, 0),
}


# ---------------------------------------------------------------------------
# Sorts.
# ---------------------------------------------------------------------------


def parse_sort(expr: SExpr, context: Optional[DeclarationContext] = None) -> Sort:
    """Interpret an s-expression as a :class:`Sort`.

    ``(Relation S...)`` and ``(Tuple S...)`` are normalised through the
    constructors in :mod:`repro.smtlib.sorts` (a ``Relation`` becomes a
    ``Set`` of ``Tuple``).  When ``context`` is given, non-builtin head
    symbols must be declared sorts of matching arity.
    """
    if isinstance(expr, Atom):
        if not expr.is_symbol:
            raise ParseError(f"expected a sort, got {expr}")
        if expr.is_plain_symbol and expr.text in RESERVED_WORDS:
            raise ParseError(f"reserved word {expr.text!r} is not a sort")
        name = expr.text
        shape = _BUILTIN_SORT_SHAPES.get(name)
        if shape is not None and shape != (0, 0):
            raise ParseError(f"sort {name} requires arguments or indices")
        if name in ("Tuple", "Relation"):
            raise ParseError(f"sort {name} requires arguments; use the ({name} ...) form")
        if shape is None:
            _require_declared_sort(name, 0, context)
        return Sort(name)
    if not expr:
        raise ParseError("empty sort expression")
    head = expr[0]
    if isinstance(head, Atom) and head.is_plain_symbol and head.text == "_":
        if len(expr) < 3 or not isinstance(expr[1], Atom):
            raise ParseError(f"malformed indexed sort: {sexpr_to_string(expr)}")
        name = expr[1].text
        indices = tuple(_parse_numeral(item, "sort index") for item in expr[2:])
        shape = _BUILTIN_SORT_SHAPES.get(name)
        if shape is None:
            # Only builtin indexed sorts exist; declared sorts never take indices.
            raise ParseError(f"sort {name} does not take indices")
        if shape[1] != len(indices):
            raise ParseError(f"sort {name} takes {shape[1]} index/indices, got {len(indices)}")
        if name == "BitVec" and indices[0] <= 0:
            raise ParseError("bit-vector width must be positive")
        if name == "FiniteField" and indices[0] < 2:
            raise ParseError("finite field order must be at least 2")
        return Sort(name, indices=indices)
    if not isinstance(head, Atom) or not head.is_symbol:
        raise ParseError(f"malformed sort: {sexpr_to_string(expr)}")
    name = head.text
    args = tuple(parse_sort(item, context) for item in expr[1:])
    if name == "Relation":
        return relation_sort(*args)
    if name == "Tuple":
        return tuple_sort(*args)
    shape = _BUILTIN_SORT_SHAPES.get(name)
    if shape is not None:
        if shape[0] != len(args) or shape[1] != 0:
            raise ParseError(f"sort {name} takes {shape[0]} argument(s), got {len(args)}")
    else:
        _require_declared_sort(name, len(args), context)
    return Sort(name, args=args)


def _require_declared_sort(name: str, arity: int, context: Optional[DeclarationContext]) -> None:
    if context is None:
        return
    declared = context.sort_arity(name)
    if declared is None:
        raise UnknownSymbolError(name)
    if declared != arity:
        raise ParseError(f"sort {name} has arity {declared}, applied to {arity} argument(s)")


def _parse_numeral(expr: SExpr, what: str) -> int:
    if not isinstance(expr, Atom) or not expr.is_numeral:
        raise ParseError(f"expected a numeral {what}, got {sexpr_to_string(expr)}")
    return int(expr.text)


# ---------------------------------------------------------------------------
# Terms.
# ---------------------------------------------------------------------------


def parse_term(
    expr: Union[str, SExpr],
    context: Optional[DeclarationContext] = None,
    bound: Optional[Mapping[str, Sort]] = None,
) -> Term:
    """Interpret text or an s-expression as a fully-sorted :class:`Term`.

    ``bound`` maps let/quantifier-bound variable names to their sorts for
    recursive calls; callers normally omit it.
    """
    if isinstance(expr, str):
        exprs = parse_sexprs(expr)
        if len(exprs) != 1:
            raise ParseError(f"expected exactly one term, got {len(exprs)} s-expressions")
        expr = exprs[0]
    context = context if context is not None else DeclarationContext()
    return _term(expr, context, dict(bound or {}))


def _term(expr: SExpr, context: DeclarationContext, bound: dict[str, Sort]) -> Term:
    if isinstance(expr, Atom):
        return _atom_term(expr, context, bound)
    if not expr:
        raise ParseError("empty term expression")
    head = expr[0]
    if isinstance(head, Atom) and head.is_symbol:
        keyword = head.text
        # Syntactic roles attach only to unquoted spellings: |let| is an
        # ordinary symbol, bare let is the binder keyword.
        if head.is_plain_symbol:
            if keyword == "as":
                return _qualified_term(expr, context, bound)
            if keyword == "_":
                return _indexed_literal(expr)
            if keyword == "let":
                return _let_term(expr, context, bound)
            if keyword in ("forall", "exists"):
                return _quantifier_term(keyword, expr, context, bound)
            if keyword == "!":
                raise ParseError(
                    "annotations (! term :named name) are only supported "
                    "directly under assert"
                )
            if keyword in RESERVED_WORDS:
                raise ParseError(f"reserved word {keyword!r} cannot head an application")
        args = tuple([_term(item, context, bound) for item in expr[1:]])
        if keyword in bound:
            raise TypeCheckError(f"bound variable {keyword!r} cannot be applied")
        sort = apply_sort(keyword, (), tuple(a.sort for a in args), context)
        return Apply(keyword, args, sort)
    if (
        isinstance(head, list)
        and head
        and isinstance(head[0], Atom)
        and head[0].is_plain_symbol
        and head[0].text == "_"
    ):
        if len(head) < 3 or not isinstance(head[1], Atom):
            raise ParseError(f"malformed indexed operator: {sexpr_to_string(head)}")
        op = head[1].text
        indices = tuple(_parse_numeral(item, "operator index") for item in head[2:])
        args = tuple([_term(item, context, bound) for item in expr[1:]])
        sort = apply_sort(op, indices, tuple(a.sort for a in args), context)
        return Apply(op, args, sort, indices=indices)
    raise ParseError(f"cannot interpret term: {sexpr_to_string(expr)}")


def _atom_term(atom: Atom, context: DeclarationContext, bound: dict[str, Sort]) -> Term:
    kind = atom.kind
    if kind == TokenKind.NUMERAL:
        return int_const(int(atom.text))
    if kind == TokenKind.DECIMAL:
        return Constant(Fraction(atom.text), REAL)
    if kind == TokenKind.HEXADECIMAL:
        digits = atom.text[2:]
        return Constant(int(digits, 16), bitvec_sort(4 * len(digits)))
    if kind == TokenKind.BINARY:
        digits = atom.text[2:]
        return Constant(int(digits, 2), bitvec_sort(len(digits)))
    if kind == TokenKind.STRING:
        return string_const(atom.text)
    if kind in (TokenKind.SYMBOL, TokenKind.QUOTED_SYMBOL):
        name = atom.text
        if kind == TokenKind.SYMBOL and name in RESERVED_WORDS:
            raise ParseError(f"reserved word {name!r} is not a term")
        # Bound variables shadow every theory constant, true/false included.
        if name in bound:
            return Symbol(name, bound[name])
        if name == "true":
            return bool_const(True)
        if name == "false":
            return bool_const(False)
        if name in BUILTIN_CONSTANTS:
            return Symbol(name, BUILTIN_CONSTANTS[name])
        signature = context.lookup_fun(name)
        if signature is None:
            raise UnknownSymbolError(name)
        if signature.arity != 0:
            raise TypeCheckError(
                f"function {name!r} has arity {signature.arity}; apply it to arguments"
            )
        return Symbol(name, signature.result)
    raise ParseError(f"cannot interpret atom as a term: {atom}")


def _qualified_term(
    expr: SExpr, context: DeclarationContext, bound: Mapping[str, Sort]
) -> Term:
    if len(expr) != 3 or not isinstance(expr[1], Atom) or not expr[1].is_symbol:
        raise ParseError(f"malformed qualified term: {sexpr_to_string(expr)}")
    name = expr[1].text
    sort = parse_sort(expr[2], context)
    match = _FF_LITERAL.match(name)
    if match and is_finite_field(sort):
        return ff_const(int(match.group(1)), sort.width)
    if name in QUALIFIED_CONSTANT_HEADS:
        constant = qualified_constant(name, sort)
        check_constant(constant)  # the ascribed sort must match the constant's theory
        return constant
    # Otherwise this is a sort-ascribed identifier, e.g. (as x Int): the
    # ascription must agree with the symbol's bound or declared sort.
    declared: Optional[Sort] = None
    if name in bound:
        declared = bound[name]
    else:
        signature = context.lookup_fun(name)
        if signature is not None:
            if signature.arity != 0:
                raise TypeCheckError(
                    f"function {name!r} has arity {signature.arity}; cannot sort-ascribe it"
                )
            declared = signature.result
    if declared is None:
        raise UnknownSymbolError(name)
    if declared != sort:
        raise TypeCheckError(
            f"symbol {name!r} has sort {declared}, ascribed {sort}"
        )
    return Symbol(name, declared)


def _indexed_literal(expr: SExpr) -> Term:
    # A standalone (_ bvN w) bit-vector literal.
    if len(expr) == 3 and isinstance(expr[1], Atom):
        match = _BV_LITERAL.match(expr[1].text)
        if match:
            width = _parse_numeral(expr[2], "bit-vector width")
            if width <= 0:
                raise ParseError("bit-vector width must be positive")
            value = int(match.group(1))
            if value >= 1 << width:
                raise ParseError(f"bit-vector literal bv{value} does not fit in {width} bit(s)")
            return Constant(value, bitvec_sort(width))
    raise ParseError(f"indexed identifier is not a term: {sexpr_to_string(expr)}")


def _let_term(expr: SExpr, context: DeclarationContext, bound: dict[str, Sort]) -> Term:
    if len(expr) != 3 or not isinstance(expr[1], list):
        raise ParseError(f"malformed let: {sexpr_to_string(expr)}")
    bindings: list[tuple[str, Term]] = []
    for binding in expr[1]:
        if (
            not isinstance(binding, list)
            or len(binding) != 2
            or not isinstance(binding[0], Atom)
            or not binding[0].is_symbol
        ):
            raise ParseError(f"malformed let binding: {sexpr_to_string(binding)}")
        bindings.append((_symbol_text(binding[0]), _term(binding[1], context, bound)))
    if not bindings:
        raise ParseError("let requires at least one binding")
    _reject_duplicate_names("let", [name for name, _ in bindings])
    inner = dict(bound)
    inner.update((name, value.sort) for name, value in bindings)
    body = _term(expr[2], context, inner)
    return Let(tuple(bindings), body)


def _quantifier_term(
    kind: str, expr: SExpr, context: DeclarationContext, bound: dict[str, Sort]
) -> Term:
    if len(expr) != 3 or not isinstance(expr[1], list):
        raise ParseError(f"malformed {kind}: {sexpr_to_string(expr)}")
    bindings: list[tuple[str, Sort]] = []
    for binding in expr[1]:
        if (
            not isinstance(binding, list)
            or len(binding) != 2
            or not isinstance(binding[0], Atom)
            or not binding[0].is_symbol
        ):
            raise ParseError(f"malformed binding: {sexpr_to_string(binding)}")
        bindings.append((_symbol_text(binding[0]), parse_sort(binding[1], context)))
    if not bindings:
        raise ParseError(f"{kind} requires at least one binding")
    _reject_duplicate_names(kind, [name for name, _ in bindings])
    inner = dict(bound)
    inner.update(bindings)
    body = _term(expr[2], context, inner)
    if body.sort != BOOL:
        raise TypeCheckError(f"{kind} body must be Bool, got {body.sort}")
    return Quantifier(kind, tuple(bindings), body)


# ---------------------------------------------------------------------------
# Commands and scripts.
# ---------------------------------------------------------------------------


def parse_command(expr: SExpr, context: DeclarationContext) -> Command:
    """Interpret one s-expression as a :class:`Command` (without applying its
    declaration effect to ``context`` — callers do that via
    :func:`~repro.smtlib.script.apply_command`)."""
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], Atom) or not expr[0].is_plain_symbol:
        raise ParseError(f"expected a command, got {sexpr_to_string(expr)}")
    name = expr[0].text
    rest = expr[1:]
    if name == "set-logic":
        _expect_operands(name, rest, 1)
        return SetLogic(_symbol_text(rest[0]))
    if name in ("set-option", "set-info"):
        _expect_operands(name, rest, 2)
        if not isinstance(rest[0], Atom) or rest[0].kind != TokenKind.KEYWORD:
            raise ParseError(f"{name} expects a keyword, got {sexpr_to_string(rest[0])}")
        value = sexpr_to_string(rest[1])
        return (SetOption if name == "set-option" else SetInfo)(rest[0].text, value)
    if name == "declare-sort":
        if len(rest) not in (1, 2):
            raise ParseError(f"declare-sort takes 1 or 2 operands, got {len(rest)}")
        arity = _parse_numeral(rest[1], "sort arity") if len(rest) == 2 else 0
        return DeclareSort(_declarable_sort_name(rest[0]), arity)
    if name == "declare-fun":
        _expect_operands(name, rest, 3)
        if not isinstance(rest[1], list):
            raise ParseError("declare-fun expects a parameter sort list")
        params = tuple(parse_sort(item, context) for item in rest[1])
        return DeclareFun(_declarable_fun_name(rest[0]), params, parse_sort(rest[2], context))
    if name == "declare-const":
        _expect_operands(name, rest, 2)
        return DeclareConst(_declarable_fun_name(rest[0]), parse_sort(rest[1], context))
    if name == "define-fun":
        _expect_operands(name, rest, 4)
        if not isinstance(rest[1], list):
            raise ParseError("define-fun expects a parameter list")
        params: list[tuple[str, Sort]] = []
        for param in rest[1]:
            if not isinstance(param, list) or len(param) != 2:
                raise ParseError(f"malformed define-fun parameter: {sexpr_to_string(param)}")
            params.append((_symbol_text(param[0]), parse_sort(param[1], context)))
        _reject_duplicate_names("define-fun parameter", [name for name, _ in params])
        result = parse_sort(rest[2], context)
        body = _term(rest[3], context, dict(params))
        if body.sort != result:
            raise TypeCheckError(
                f"define-fun body has sort {body.sort}, declared result is {result}"
            )
        return DefineFun(_declarable_fun_name(rest[0]), tuple(params), result, body)
    if name == "assert":
        _expect_operands(name, rest, 1)
        operand = rest[0]
        label: Optional[str] = None
        if (
            isinstance(operand, list)
            and operand
            and isinstance(operand[0], Atom)
            and operand[0].is_plain_symbol
            and operand[0].text == "!"
        ):
            operand, label = _named_annotation(operand)
        term = _term(operand, context, {})
        if term.sort != BOOL:
            raise TypeCheckError(f"asserted term must be Bool, got {term.sort}")
        return Assert(term, label)
    if name in ("check-sat", "get-model", "get-unsat-core", "exit"):
        _expect_operands(name, rest, 0)
        return {
            "check-sat": CheckSat,
            "get-model": GetModel,
            "get-unsat-core": GetUnsatCore,
            "exit": Exit,
        }[name]()
    if name == "get-value":
        _expect_operands(name, rest, 1)
        if not isinstance(rest[0], list) or not rest[0]:
            raise ParseError("get-value expects a non-empty term list")
        return GetValue(tuple(_term(item, context, {}) for item in rest[0]))
    if name in ("push", "pop"):
        if len(rest) not in (0, 1):
            raise ParseError(f"{name} takes at most one operand")
        levels = _parse_numeral(rest[0], "level count") if rest else 1
        if levels < 0:
            raise ParseError(f"{name} level count must be non-negative")
        return (Push if name == "push" else Pop)(levels)
    raise ParseError(f"unknown command: {name}")


def _named_annotation(expr: SExpr) -> tuple[SExpr, str]:
    """Destructure ``(! term :named name)`` under ``assert``.

    Exactly one ``:named`` attribute is supported — other attributes (and
    repeated pairs) are rejected rather than silently dropped, so nothing
    the printer cannot round-trip ever enters a :class:`Script`."""
    if len(expr) < 2:
        raise ParseError("annotation needs a term: (! term :named name)")
    attributes = expr[2:]
    if not attributes:
        raise ParseError("annotation without attributes: (! term :named name)")
    if len(attributes) != 2:
        raise ParseError(
            "assert annotations take exactly one attribute pair: (! term :named name)"
        )
    keyword = attributes[0]
    if not isinstance(keyword, Atom) or keyword.kind != TokenKind.KEYWORD:
        raise ParseError(
            f"expected an attribute keyword, got {sexpr_to_string(keyword)}"
        )
    if keyword.text != ":named":
        raise ParseError(
            f"unsupported assert annotation {keyword.text!r}; only :named is supported"
        )
    return expr[1], _symbol_text(attributes[1])


def _reject_duplicate_names(what: str, names: list[str]) -> None:
    reject_duplicate_names(what, names, ParseError)


def _declarable_fun_name(expr: SExpr) -> str:
    name = _symbol_text(expr)
    if name in SIGNATURES or name in BUILTIN_CONSTANTS or name in ("true", "false"):
        raise ParseError(f"cannot redeclare builtin symbol {name!r}")
    return name


def _declarable_sort_name(expr: SExpr) -> str:
    name = _symbol_text(expr)
    if name in _BUILTIN_SORT_SHAPES or name in ("Tuple", "Relation"):
        raise ParseError(f"cannot redeclare builtin sort {name!r}")
    return name


def _expect_operands(name: str, rest: list, count: int) -> None:
    if len(rest) != count:
        raise ParseError(f"{name} takes {count} operand(s), got {len(rest)}")


def _symbol_text(expr: SExpr) -> str:
    if not isinstance(expr, Atom) or not expr.is_symbol:
        raise ParseError(f"expected a symbol, got {sexpr_to_string(expr)}")
    if expr.is_plain_symbol and expr.text in RESERVED_WORDS:
        raise ParseError(f"reserved word {expr.text!r} cannot be used as a symbol")
    return expr.text


def parse_script(
    text: str, context: Optional[DeclarationContext] = None
) -> Script:
    """Parse a whole SMT-LIB script from concrete syntax.

    Declarations accumulate into ``context`` (a fresh one when omitted) so
    each command sees everything declared before it, including the effect of
    ``push``/``pop`` on scoping.
    """
    ensure_recursion_limit()  # the s-expression and term parsers recurse
    context = context if context is not None else DeclarationContext()
    commands: list[Command] = []
    for expr in parse_sexprs(text):
        command = parse_command(expr, context)
        apply_command(command, context)
        commands.append(command)
    return Script(tuple(commands))


__all__ = [
    "parse_sort",
    "parse_term",
    "parse_command",
    "parse_script",
]
