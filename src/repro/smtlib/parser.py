"""Read SMT-LIB text into scripts, sorts and fully-sorted terms.

The parser groups the token spellings of
:func:`repro.smtlib.lexer.tokenize` into nested lists with an explicit
stack, so reading never recurses, and interprets the lists as the typed
representation: a :class:`~repro.smtlib.script.Script` of commands whose
terms are :class:`~repro.smtlib.terms.Term` trees with every node carrying
its :class:`~repro.smtlib.sorts.Sort`.  An atom's class is its first
character: ``|`` a quoted symbol, ``"`` a string, ``:`` a keyword, ``#`` a
hexadecimal or binary literal, a digit a numeral or decimal, anything else
a plain symbol; only plain symbols take syntactic roles (``let``, ``_``,
command names).  Sort inference is driven by the
:class:`~repro.smtlib.script.DeclarationContext` (for declared symbols) and
by the operator signature table in :mod:`repro.smtlib.typecheck` (for
built-in operators), so parsing doubles as an eager well-sortedness check.

Two memos live for one parse call.  Within one binder scope of one
command the declarations and the bound names are fixed, so each distinct
atom spelling is interpreted once there; and a built-in operator's result
sort depends only on its name, indices and argument sorts, so each such
signature is resolved once per parse.

All terms are built through the hash-consing constructors in
:mod:`repro.smtlib.terms`, so parsing the same text twice yields
*identical* term object graphs (``is``-equal roots), and repeated
subterms within one script share a single node.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, NoReturn, Optional, TypeGuard, Union

from ..errors import ParseError, TypeCheckError, UnknownSymbolError
from ..limits import ensure_recursion_limit
from .lexer import RESERVED_WORDS, position, token_offsets, tokenize
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
    pop_scope,
    push_scope,
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

#: A read expression: a token's spelling, or a list of expressions for a
#: parenthesised group.
_Expr = Union[str, list]

#: First characters of the atoms that are not symbols: strings, keywords,
#: hexadecimal and binary literals, numerals and decimals.
_LITERAL_STARTS = frozenset('":#0123456789')
#: First characters of the atoms that are not plain symbols.
_NOT_PLAIN = _LITERAL_STARTS | {"|"}

#: Per-command (and per binder scope) memo: atom spelling -> term.
_Atoms = dict[str, Term]
#: Per-parse memo: (built-in operator, indices, argument sorts) -> result sort.
_Signatures = dict[tuple, Sort]


# ---------------------------------------------------------------------------
# Reading.
# ---------------------------------------------------------------------------


def _read(text: str) -> list[_Expr]:
    """Tokenise ``text`` and group the tokens into top-level expressions."""
    top: list[_Expr] = []
    current = top
    # The enclosing list of every unclosed group.
    stack: list[list] = []
    for token in tokenize(text):
        if token == "(":
            group: list[_Expr] = []
            current.append(group)
            stack.append(current)
            current = group
        elif token == ")":
            if not stack:
                _raise_bracket_error(text)
            current = stack.pop()
        else:
            current.append(token)
    if stack:
        _raise_bracket_error(text)
    return top


def _raise_bracket_error(text: str) -> NoReturn:
    """Report the first unmatched ``)`` of ``text``, else its innermost
    unclosed ``(``.  Tokens carry no offsets, so only this failure path
    finds them, by lexing the text again."""
    opened: list[int] = []
    for offset, token in token_offsets(text):
        if token == "(":
            opened.append(offset)
        elif token == ")":
            if not opened:
                line, column = position(text, offset)
                raise ParseError(f"unexpected ')' at line {line}, column {column}")
            opened.pop()
    line, _ = position(text, opened[-1])
    raise ParseError(f"unbalanced parenthesis opened at line {line}")


def _read_one(text: str, what: str) -> _Expr:
    exprs = _read(text)
    if len(exprs) != 1:
        raise ParseError(f"expected exactly one {what}, got {len(exprs)} s-expressions")
    return exprs[0]


def _render(expr: _Expr) -> str:
    """Render an expression back to concrete syntax: error messages quote
    the input this way, and ``set-info``/``set-option`` keep their value in
    this spelling.  An explicit stack, so a group of any depth renders."""
    if isinstance(expr, str):
        return expr
    out: list[str] = []
    # What is left to write, the next item on top: groups still to render,
    # and strings written as they are (atoms, the spaces between siblings,
    # closing parentheses).
    stack: list[_Expr] = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append("(")
        stack.append(")")
        for index in range(len(item) - 1, 0, -1):
            stack.append(item[index])
            stack.append(" ")
        if item:
            stack.append(item[0])
    return "".join(out)


def _is_symbol(expr: _Expr) -> TypeGuard[str]:
    """True for symbols in either spelling (plain or ``|quoted|``)."""
    return isinstance(expr, str) and expr[0] not in _LITERAL_STARTS


def _plain(expr: _Expr) -> Optional[str]:
    """The name of an unquoted symbol, else None.  Only unquoted spellings
    carry syntactic roles such as ``_``, ``!`` or a command name."""
    if isinstance(expr, str) and expr[0] not in _NOT_PLAIN:
        return expr
    return None


def _is_keyword(expr: _Expr) -> TypeGuard[str]:
    return isinstance(expr, str) and expr[0] == ":"


def _text(atom: str) -> str:
    """What an atom denotes as text: a string's contents with ``""``
    undoubled, a quoted symbol's name without its bars, else its spelling.
    Indexed identifiers name their head this way."""
    first = atom[0]
    if first == '"':
        return atom[1:-1].replace('""', '"')
    if first == "|":
        return atom[1:-1]
    return atom


# ---------------------------------------------------------------------------
# Sorts.
# ---------------------------------------------------------------------------


def parse_sort(text: str, context: Optional[DeclarationContext] = None) -> Sort:
    """Parse the text of one sort.

    ``(Relation S...)`` and ``(Tuple S...)`` are normalised through the
    constructors in :mod:`repro.smtlib.sorts` (a ``Relation`` becomes a
    ``Set`` of ``Tuple``).  When ``context`` is given, non-builtin head
    symbols must be declared sorts of matching arity.
    """
    return _sort(_read_one(text, "sort"), context)


def _sort(expr: _Expr, context: Optional[DeclarationContext]) -> Sort:
    if isinstance(expr, str):
        if not _is_symbol(expr):
            raise ParseError(f"expected a sort, got {expr}")
        name = _text(expr)
        if expr[0] != "|" and name in RESERVED_WORDS:
            raise ParseError(f"reserved word {name!r} is not a sort")
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
    if _plain(head) == "_":
        if len(expr) < 3 or not isinstance(expr[1], str):
            raise ParseError(f"malformed indexed sort: {_render(expr)}")
        name = _text(expr[1])
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
    if not _is_symbol(head):
        raise ParseError(f"malformed sort: {_render(expr)}")
    name = _text(head)
    args = tuple([_sort(item, context) for item in expr[1:]])
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


def _parse_numeral(expr: _Expr, what: str) -> int:
    if not isinstance(expr, str) or not "0" <= expr[0] <= "9" or "." in expr:
        raise ParseError(f"expected a numeral {what}, got {_render(expr)}")
    return int(expr)


# ---------------------------------------------------------------------------
# Terms.
# ---------------------------------------------------------------------------


def parse_term(
    text: str,
    context: Optional[DeclarationContext] = None,
    bound: Optional[Mapping[str, Sort]] = None,
) -> Term:
    """Parse the text of one term into a fully-sorted :class:`Term`.

    ``bound`` maps variable names to sorts, as if the term sat under a
    binder that declares them.
    """
    expr = _read_one(text, "term")
    context = context if context is not None else DeclarationContext()
    return _term(expr, context, dict(bound or {}), {}, {})


def _term(
    expr: _Expr,
    context: DeclarationContext,
    bound: dict[str, Sort],
    atoms: _Atoms,
    signatures: _Signatures,
) -> Term:
    # ``bound`` is the binder scope, extended in place by ``let`` and
    # quantifiers (push_scope/pop_scope); every top-level call passes a
    # fresh dict, so one that an error abandons mid-scope is never reused.
    # ``atoms`` belongs to this scope (a binder body gets its own), and
    # ``signatures`` to the whole parse.
    if isinstance(expr, str):
        term = atoms.get(expr)
        if term is None:
            term = atoms[expr] = _atom_term(expr, context, bound)
        return term
    if not expr:
        raise ParseError("empty term expression")
    head = expr[0]
    if isinstance(head, str) and head[0] not in _LITERAL_STARTS:
        if head[0] == "|":
            op = head[1:-1]
        else:
            # Syntactic roles attach only to unquoted spellings: |let| is an
            # ordinary symbol, bare let is the binder keyword.
            op = head
            if op in RESERVED_WORDS:
                if op == "as":
                    return _qualified_term(expr, context, bound)
                if op == "_":
                    return _indexed_literal(expr)
                if op == "let":
                    return _let_term(expr, context, bound, atoms, signatures)
                if op in ("forall", "exists"):
                    return _quantifier_term(op, expr, context, bound, signatures)
                if op == "!":
                    raise ParseError(
                        "annotations (! term :named name) are only supported "
                        "directly under assert"
                    )
                raise ParseError(f"reserved word {op!r} cannot head an application")
        indices: tuple[int, ...] = ()
    elif isinstance(head, list) and head and _plain(head[0]) == "_":
        if len(head) < 3 or not isinstance(head[1], str):
            raise ParseError(f"malformed indexed operator: {_render(head)}")
        op = _text(head[1])
        indices = tuple([_parse_numeral(item, "operator index") for item in head[2:]])
    else:
        raise ParseError(f"cannot interpret term: {_render(expr)}")
    args = tuple([_term(item, context, bound, atoms, signatures) for item in expr[1:]])
    if not indices and op in bound:
        raise TypeCheckError(f"bound variable {op!r} cannot be applied")
    arg_sorts = tuple([arg.sort for arg in args])
    key = (op, indices, arg_sorts)
    sort = signatures.get(key)
    if sort is None:
        sort = apply_sort(op, indices, arg_sorts, context)
        if op in SIGNATURES:
            signatures[key] = sort
    return Apply(op, args, sort, indices)


def _atom_term(atom: str, context: DeclarationContext, bound: dict[str, Sort]) -> Term:
    first = atom[0]
    if first == "|":
        name = atom[1:-1]
    elif first in _LITERAL_STARTS:
        if first == '"':
            return string_const(_text(atom))
        if first == "#":
            digits = atom[2:]
            if atom[1] == "x":
                return Constant(int(digits, 16), bitvec_sort(4 * len(digits)))
            return Constant(int(digits, 2), bitvec_sort(len(digits)))
        if first == ":":
            raise ParseError(f"cannot interpret atom as a term: {atom}")
        if "." in atom:
            return Constant(Fraction(atom), REAL)
        return int_const(int(atom))
    else:
        name = atom
        if name in RESERVED_WORDS:
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


def _qualified_term(
    expr: list, context: DeclarationContext, bound: Mapping[str, Sort]
) -> Term:
    if len(expr) != 3 or not _is_symbol(expr[1]):
        raise ParseError(f"malformed qualified term: {_render(expr)}")
    name = _text(expr[1])
    sort = _sort(expr[2], context)
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


def _indexed_literal(expr: list) -> Term:
    # A standalone (_ bvN w) bit-vector literal.
    if len(expr) == 3 and isinstance(expr[1], str):
        match = _BV_LITERAL.match(_text(expr[1]))
        if match:
            width = _parse_numeral(expr[2], "bit-vector width")
            if width <= 0:
                raise ParseError("bit-vector width must be positive")
            value = int(match.group(1))
            if value >= 1 << width:
                raise ParseError(f"bit-vector literal bv{value} does not fit in {width} bit(s)")
            return Constant(value, bitvec_sort(width))
    raise ParseError(f"indexed identifier is not a term: {_render(expr)}")


def _let_term(
    expr: list,
    context: DeclarationContext,
    bound: dict[str, Sort],
    atoms: _Atoms,
    signatures: _Signatures,
) -> Term:
    if len(expr) != 3 or not isinstance(expr[1], list):
        raise ParseError(f"malformed let: {_render(expr)}")
    # The bindings read the enclosing scope and its atom memo; the body is a
    # scope of its own.
    bindings: list[tuple[str, Term]] = []
    for binding in expr[1]:
        if not isinstance(binding, list) or len(binding) != 2 or not _is_symbol(binding[0]):
            raise ParseError(f"malformed let binding: {_render(binding)}")
        bindings.append(
            (_symbol_text(binding[0]), _term(binding[1], context, bound, atoms, signatures))
        )
    if not bindings:
        raise ParseError("let requires at least one binding")
    _reject_duplicate_names("let", [name for name, _ in bindings])
    saved = push_scope(bound, [(name, value.sort) for name, value in bindings])
    body = _term(expr[2], context, bound, {}, signatures)
    pop_scope(bound, saved)
    return Let(tuple(bindings), body)


def _quantifier_term(
    kind: str,
    expr: list,
    context: DeclarationContext,
    bound: dict[str, Sort],
    signatures: _Signatures,
) -> Term:
    if len(expr) != 3 or not isinstance(expr[1], list):
        raise ParseError(f"malformed {kind}: {_render(expr)}")
    bindings: list[tuple[str, Sort]] = []
    for binding in expr[1]:
        if not isinstance(binding, list) or len(binding) != 2 or not _is_symbol(binding[0]):
            raise ParseError(f"malformed binding: {_render(binding)}")
        bindings.append((_symbol_text(binding[0]), _sort(binding[1], context)))
    if not bindings:
        raise ParseError(f"{kind} requires at least one binding")
    _reject_duplicate_names(kind, [name for name, _ in bindings])
    saved = push_scope(bound, bindings)
    body = _term(expr[2], context, bound, {}, signatures)
    pop_scope(bound, saved)
    if body.sort != BOOL:
        raise TypeCheckError(f"{kind} body must be Bool, got {body.sort}")
    return Quantifier(kind, tuple(bindings), body)


# ---------------------------------------------------------------------------
# Commands and scripts.
# ---------------------------------------------------------------------------


def _command(expr: _Expr, context: DeclarationContext, signatures: _Signatures) -> Command:
    """Interpret one top-level expression as a :class:`Command` (without
    applying its declaration effect to ``context``)."""
    if not isinstance(expr, list) or not expr or _plain(expr[0]) is None:
        raise ParseError(f"expected a command, got {_render(expr)}")
    name = expr[0]
    rest = expr[1:]
    if name == "set-logic":
        _expect_operands(name, rest, 1)
        return SetLogic(_symbol_text(rest[0]))
    if name in ("set-option", "set-info"):
        _expect_operands(name, rest, 2)
        if not _is_keyword(rest[0]):
            raise ParseError(f"{name} expects a keyword, got {_render(rest[0])}")
        value = _render(rest[1])
        return (SetOption if name == "set-option" else SetInfo)(rest[0], value)
    if name == "declare-sort":
        if len(rest) not in (1, 2):
            raise ParseError(f"declare-sort takes 1 or 2 operands, got {len(rest)}")
        arity = _parse_numeral(rest[1], "sort arity") if len(rest) == 2 else 0
        return DeclareSort(_declarable_sort_name(rest[0]), arity)
    if name == "declare-fun":
        _expect_operands(name, rest, 3)
        if not isinstance(rest[1], list):
            raise ParseError("declare-fun expects a parameter sort list")
        params = tuple([_sort(item, context) for item in rest[1]])
        return DeclareFun(_declarable_fun_name(rest[0]), params, _sort(rest[2], context))
    if name == "declare-const":
        _expect_operands(name, rest, 2)
        return DeclareConst(_declarable_fun_name(rest[0]), _sort(rest[1], context))
    if name == "define-fun":
        _expect_operands(name, rest, 4)
        if not isinstance(rest[1], list):
            raise ParseError("define-fun expects a parameter list")
        params: list[tuple[str, Sort]] = []
        for param in rest[1]:
            if not isinstance(param, list) or len(param) != 2:
                raise ParseError(f"malformed define-fun parameter: {_render(param)}")
            params.append((_symbol_text(param[0]), _sort(param[1], context)))
        _reject_duplicate_names("define-fun parameter", [name for name, _ in params])
        result = _sort(rest[2], context)
        body = _term(rest[3], context, dict(params), {}, signatures)
        if body.sort != result:
            raise TypeCheckError(
                f"define-fun body has sort {body.sort}, declared result is {result}"
            )
        return DefineFun(_declarable_fun_name(rest[0]), tuple(params), result, body)
    if name == "assert":
        _expect_operands(name, rest, 1)
        operand = rest[0]
        label: Optional[str] = None
        if isinstance(operand, list) and operand and _plain(operand[0]) == "!":
            operand, label = _named_annotation(operand)
        term = _term(operand, context, {}, {}, signatures)
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
        atoms: _Atoms = {}
        return GetValue(tuple([_term(item, context, {}, atoms, signatures) for item in rest[0]]))
    if name in ("push", "pop"):
        if len(rest) not in (0, 1):
            raise ParseError(f"{name} takes at most one operand")
        levels = _parse_numeral(rest[0], "level count") if rest else 1
        if levels < 0:
            raise ParseError(f"{name} level count must be non-negative")
        return (Push if name == "push" else Pop)(levels)
    raise ParseError(f"unknown command: {name}")


def _named_annotation(expr: list) -> tuple[_Expr, str]:
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
    if not _is_keyword(keyword):
        raise ParseError(
            f"expected an attribute keyword, got {_render(keyword)}"
        )
    if keyword != ":named":
        raise ParseError(
            f"unsupported assert annotation {keyword!r}; only :named is supported"
        )
    return expr[1], _symbol_text(attributes[1])


def _reject_duplicate_names(what: str, names: list[str]) -> None:
    reject_duplicate_names(what, names, ParseError)


def _declarable_fun_name(expr: _Expr) -> str:
    name = _symbol_text(expr)
    if name in SIGNATURES or name in BUILTIN_CONSTANTS or name in ("true", "false"):
        raise ParseError(f"cannot redeclare builtin symbol {name!r}")
    return name


def _declarable_sort_name(expr: _Expr) -> str:
    name = _symbol_text(expr)
    if name in _BUILTIN_SORT_SHAPES or name in ("Tuple", "Relation"):
        raise ParseError(f"cannot redeclare builtin sort {name!r}")
    return name


def _expect_operands(name: str, rest: list, count: int) -> None:
    if len(rest) != count:
        raise ParseError(f"{name} takes {count} operand(s), got {len(rest)}")


def _symbol_text(expr: _Expr) -> str:
    if not isinstance(expr, str) or expr[0] in _LITERAL_STARTS:
        raise ParseError(f"expected a symbol, got {_render(expr)}")
    if expr[0] == "|":
        return expr[1:-1]
    if expr in RESERVED_WORDS:
        raise ParseError(f"reserved word {expr!r} cannot be used as a symbol")
    return expr


def parse_script(
    text: str, context: Optional[DeclarationContext] = None
) -> Script:
    """Parse a whole SMT-LIB script from concrete syntax.

    Declarations accumulate into ``context`` (a fresh one when omitted) so
    each command sees everything declared before it, including the effect of
    ``push``/``pop`` on scoping.  The whole text is read before the first
    command is interpreted, so a lexical or bracketing error anywhere wins
    over an error in an earlier command.
    """
    ensure_recursion_limit()  # term interpretation recurses over term depth
    context = context if context is not None else DeclarationContext()
    commands: list[Command] = []
    signatures: _Signatures = {}
    for expr in _read(text):
        command = _command(expr, context, signatures)
        apply_command(command, context)
        commands.append(command)
    return Script(tuple(commands))


__all__ = [
    "parse_sort",
    "parse_term",
    "parse_script",
]
