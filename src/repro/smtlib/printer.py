"""Deterministic SMT-LIB concrete syntax for sorts, terms and scripts.

The printer is the inverse of :mod:`repro.smtlib.parser` and satisfies the
round-trip law the reduction and generation layers rely on: for any parsed
script ``s``, ``parse_script(script_to_smtlib(s)) == s``.  Two printing
choices keep that law simple:

* Bit-vector constants print as ``#x...`` when the width is a multiple of
  four and as ``#b...`` otherwise — both reparse to the identical constant.
* Negative ``Int``/``Real`` constants print as applications ``(- n)``
  (SMT-LIB has no negative literals).  The parser produces non-negative
  constants only, so parsed terms always round-trip exactly; terms built
  programmatically with negative literals round-trip to the equivalent
  negation application.  Likewise a ``Real`` whose value has no finite
  decimal expansion prints as ``(/ p.0 q.0)``.

Term rendering is context-free, so it memoizes per hash-consed node:
subterms shared across a term DAG are rendered once per call.
"""

from __future__ import annotations

from fractions import Fraction

from ..limits import ensure_recursion_limit
from .evaluate import ArrayValue
from .lexer import quote_identifier
from .sorts import BOOL, INT, REAL, STRING, Sort, is_bitvec
from .terms import Apply, Constant, Let, Quantifier, Symbol, Term


def symbol_to_smtlib(name: str) -> str:
    """Render an *identifier*, quoting with ``|...|`` when it is not simple
    or is a reserved word (``|let|`` is an ordinary symbol; bare ``let`` is
    the keyword).  Raises :class:`~repro.errors.PrinterError` for names
    SMT-LIB cannot express (alias of :func:`repro.smtlib.lexer.quote_identifier`)."""
    return quote_identifier(name)


def sort_to_smtlib(sort: Sort) -> str:
    """Render a sort (delegates to :meth:`Sort.to_smtlib`)."""
    return sort.to_smtlib()


# ---------------------------------------------------------------------------
# Constants.
# ---------------------------------------------------------------------------


def _decimal_text(value: Fraction) -> str:
    """Finite decimal for a non-negative fraction, or '' when none exists."""
    denominator = value.denominator
    twos = fives = 0
    while denominator % 2 == 0:
        denominator //= 2
        twos += 1
    while denominator % 5 == 0:
        denominator //= 5
        fives += 1
    if denominator != 1:
        return ""
    places = max(twos, fives)
    scaled = value.numerator * 10**places // value.denominator
    if places == 0:
        return f"{scaled}.0"
    digits = str(scaled).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def constant_to_smtlib(constant: Constant) -> str:
    sort, value = constant.sort, constant.value
    if isinstance(value, ArrayValue):
        # Evaluated array values print as a store chain over their base.
        text = constant_to_smtlib(value.base)
        for index, element in sorted(
            value.updates.items(), key=lambda item: constant_to_smtlib(item[0])
        ):
            text = (
                f"(store {text} {constant_to_smtlib(index)}"
                f" {constant_to_smtlib(element)})"
            )
        return text
    if constant.qualifier:
        return f"(as {symbol_to_smtlib(constant.qualifier)} {sort.to_smtlib()})"
    if sort == BOOL:
        return "true" if value else "false"
    if sort == INT:
        return str(value) if value >= 0 else f"(- {-value})"
    if sort == REAL:
        fraction = Fraction(value)
        sign = fraction < 0
        text = _decimal_text(abs(fraction))
        if not text:
            text = f"(/ {abs(fraction.numerator)}.0 {fraction.denominator}.0)"
        return f"(- {text})" if sign else text
    if sort == STRING:
        return '"' + str(value).replace('"', '""') + '"'
    if is_bitvec(sort):
        width = sort.width
        if width % 4 == 0:
            return "#x{:0{}x}".format(value, width // 4)
        return "#b{:0{}b}".format(value, width)
    raise ValueError(f"cannot print constant of sort {sort}: {constant!r}")


# ---------------------------------------------------------------------------
# Terms.
# ---------------------------------------------------------------------------


def term_to_smtlib(term: Term) -> str:
    """Render a term in concrete SMT-LIB syntax.

    Printing is context-free, so the renderer memoizes per distinct node:
    with hash-consed terms, a subterm shared by many parents is rendered
    once per call no matter how often it occurs.
    """
    ensure_recursion_limit()  # rendering recurses over term depth
    return _term_text(term, {})


def _term_text(term: Term, memo: dict[Term, str]) -> str:
    cached = memo.get(term)
    if cached is not None:
        return cached
    if isinstance(term, Constant):
        text = constant_to_smtlib(term)
    elif isinstance(term, Symbol):
        text = symbol_to_smtlib(term.name)
    elif isinstance(term, Apply):
        head = symbol_to_smtlib(term.op)
        if term.indices:
            head = "(_ {} {})".format(head, " ".join(str(i) for i in term.indices))
        if not term.args:
            text = f"({head})"
        else:
            # Plain loop, not a genexpr, so deep terms print in linear time.
            parts = []
            for a in term.args:
                parts.append(_term_text(a, memo))
            text = "({} {})".format(head, " ".join(parts))
    elif isinstance(term, Quantifier):
        bindings = " ".join(
            f"({symbol_to_smtlib(name)} {sort.to_smtlib()})" for name, sort in term.bindings
        )
        text = f"({term.kind} ({bindings}) {_term_text(term.body, memo)})"
    elif isinstance(term, Let):
        bindings = " ".join(
            f"({symbol_to_smtlib(name)} {_term_text(value, memo)})"
            for name, value in term.bindings
        )
        text = f"(let ({bindings}) {_term_text(term.body, memo)})"
    else:
        raise TypeError(f"unknown term node: {term!r}")
    memo[term] = text
    return text


# ---------------------------------------------------------------------------
# Commands and scripts.
# ---------------------------------------------------------------------------


def command_to_smtlib(command) -> str:
    """Render one command in concrete SMT-LIB syntax."""
    from .script import (
        Assert,
        CheckSat,
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
        SetInfo,
        SetLogic,
        SetOption,
    )

    if isinstance(command, SetLogic):
        return f"(set-logic {symbol_to_smtlib(command.logic)})"
    if isinstance(command, SetOption):
        return f"(set-option {command.keyword} {command.value})"
    if isinstance(command, SetInfo):
        return f"(set-info {command.keyword} {command.value})"
    if isinstance(command, DeclareSort):
        return f"(declare-sort {symbol_to_smtlib(command.name)} {command.arity})"
    if isinstance(command, DeclareFun):
        params = " ".join(sort.to_smtlib() for sort in command.params)
        return "(declare-fun {} ({}) {})".format(
            symbol_to_smtlib(command.name), params, command.result.to_smtlib()
        )
    if isinstance(command, DeclareConst):
        return f"(declare-const {symbol_to_smtlib(command.name)} {command.sort.to_smtlib()})"
    if isinstance(command, DefineFun):
        params = " ".join(
            f"({symbol_to_smtlib(name)} {sort.to_smtlib()})" for name, sort in command.params
        )
        return "(define-fun {} ({}) {} {})".format(
            symbol_to_smtlib(command.name),
            params,
            command.result.to_smtlib(),
            term_to_smtlib(command.body),
        )
    if isinstance(command, Assert):
        if command.name is not None:
            return "(assert (! {} :named {}))".format(
                term_to_smtlib(command.term), symbol_to_smtlib(command.name)
            )
        return f"(assert {term_to_smtlib(command.term)})"
    if isinstance(command, CheckSat):
        return "(check-sat)"
    if isinstance(command, GetModel):
        return "(get-model)"
    if isinstance(command, GetUnsatCore):
        return "(get-unsat-core)"
    if isinstance(command, GetValue):
        terms = " ".join(term_to_smtlib(term) for term in command.terms)
        return f"(get-value ({terms}))"
    if isinstance(command, Push):
        return f"(push {command.levels})"
    if isinstance(command, Pop):
        return f"(pop {command.levels})"
    if isinstance(command, Exit):
        return "(exit)"
    raise TypeError(f"unknown command: {command!r}")


def script_to_smtlib(script) -> str:
    """Render a whole script, one command per line, with trailing newline."""
    lines = [command_to_smtlib(command) for command in script.commands]
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "symbol_to_smtlib",
    "sort_to_smtlib",
    "constant_to_smtlib",
    "term_to_smtlib",
    "command_to_smtlib",
    "script_to_smtlib",
]
