"""Exception hierarchy shared across the reproduction library.

Every error raised by the library derives from :class:`ReproError` so that
callers can distinguish library failures from programming mistakes.
*Input* failures (lexing, parsing, sort and evaluation errors: the formula
is invalid) derive from :class:`SmtLibError`; failures of the solving
layers themselves derive from :class:`SolverError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SmtLibError(ReproError):
    """Base class for errors in the SMT-LIB front end."""


class LexerError(SmtLibError):
    """Raised when the input text cannot be tokenised."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(SmtLibError):
    """Raised when a token stream is not a well-formed SMT-LIB script."""


class PrinterError(SmtLibError):
    """Raised when a term or script cannot be rendered as SMT-LIB text."""


class SortError(SmtLibError):
    """Raised when a term is ill-sorted (type error in SMT-LIB terminology)."""


class TypeCheckError(SortError):
    """Raised by the well-sortedness pass in :mod:`repro.smtlib.typecheck`.

    A subclass of :class:`SortError` so existing ``except SortError`` call
    sites keep working; the distinct name lets oracles report whether the
    failure came from the dedicated checker or from ad-hoc sort plumbing.
    """


class EvaluationError(SmtLibError):
    """Raised by :mod:`repro.smtlib.evaluate` when a term cannot be reduced
    to a literal value: it has free symbols not covered by the environment,
    contains a quantifier, or applies an operator whose result SMT-LIB
    leaves unspecified on the given literals (e.g. division by zero)."""


class UnknownSymbolError(SmtLibError):
    """Raised when a term references an undeclared symbol."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown symbol: {name}")
        self.name = name


class SolverError(ReproError):
    """Base class for errors originating in the solver substrate."""


def error_response(message: str) -> str:
    """The SMT-LIB ``(error "...")`` response reporting ``message``.  Every
    ``"`` in it is doubled, so the response stays one string literal
    whatever input text the message quotes."""
    return '(error "' + message.replace('"', '""') + '")'
