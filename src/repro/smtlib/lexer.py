"""Tokeniser for the SMT-LIB concrete syntax.

One compiled master regex recognises every token class the front end
needs: parentheses, symbols (simple and ``|quoted|``), keywords
(``:named``), numerals, decimals, hexadecimal and binary literals, and
string literals with SMT-LIB's doubled-quote escaping.  Whitespace and
comments (``;`` to end of line) are skipped.  A token carries the offset of
its first character; :func:`position` turns an offset into a line and
column, which only an error report needs.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple, NoReturn

from ..errors import LexerError, PrinterError


class TokenKind(Enum):
    """Lexical category of a token."""

    LPAREN = auto()
    RPAREN = auto()
    SYMBOL = auto()
    QUOTED_SYMBOL = auto()
    KEYWORD = auto()
    NUMERAL = auto()
    DECIMAL = auto()
    HEXADECIMAL = auto()
    BINARY = auto()
    STRING = auto()


#: SMT-LIB reserved words.  These may only occur unquoted in their syntactic
#: role (``let``, ``forall``...); a ``|let|`` spelling denotes an ordinary
#: symbol that merely shares the letters, and lexes as QUOTED_SYMBOL.
RESERVED_WORDS = frozenset(
    {
        "_",
        "!",
        "as",
        "let",
        "exists",
        "forall",
        "match",
        "par",
        "BINARY",
        "DECIMAL",
        "HEXADECIMAL",
        "NUMERAL",
        "STRING",
    }
)


class Token(NamedTuple):
    """A single lexical token and the offset of its first character.

    ``text`` is the token's meaning rather than its spelling: a string
    literal without its quotes and with ``""`` undoubled, a quoted symbol
    without its bars."""

    kind: TokenKind
    text: str
    offset: int


#: The simple-symbol characters, ASCII only per the SMT-LIB grammar.  The
#: lexer and :func:`is_simple_symbol` (and through it the printer's quoting)
#: share this one definition, so they can never drift apart.
_SYMBOL_CHAR = r"[a-zA-Z0-9~!@$%^&*_\-+=<>.?/]"
_SIMPLE_SYMBOL = re.compile(rf"(?![0-9]){_SYMBOL_CHAR}+")
# A literal ends where a symbol character cannot follow: `1x` is one
# malformed token, never the two tokens `1` and `x`.
_END = rf"(?!{_SYMBOL_CHAR})"
_DIGITS = r"(?:0|[1-9][0-9]*)"

# Whitespace and comments match without a group; every token kind is the
# group named after it.  The string body is possessive, so `"a""` fails at
# its opening quote instead of lexing as `"a"` plus a stray `"`.
_TOKEN = re.compile(
    rf"""[ \t\r\n]+|;[^\n]*
    |(?P<LPAREN>\()
    |(?P<RPAREN>\))
    |(?P<SYMBOL>(?![0-9]){_SYMBOL_CHAR}+)
    |(?P<NUMERAL>{_DIGITS}{_END})
    |(?P<DECIMAL>{_DIGITS}\.[0-9]+{_END})
    |(?P<HEXADECIMAL>\#x[0-9a-fA-F]+{_END})
    |(?P<BINARY>\#b[01]+{_END})
    |(?P<STRING>"(?:[^"]|"")*+")
    |(?P<QUOTED_SYMBOL>\|[^|\\]*\|)
    |(?P<KEYWORD>:{_SYMBOL_CHAR}+)
    """,
    re.VERBOSE,
)
_KINDS = {kind.name: kind for kind in TokenKind}
# Bound once: on CPython 3.11 an enum attribute lookup costs several times a
# global one, and the loop below runs once per token.
_SYMBOL, _QUOTED_SYMBOL, _STRING = TokenKind.SYMBOL, TokenKind.QUOTED_SYMBOL, TokenKind.STRING
_new_tuple = tuple.__new__


def is_simple_symbol(text: str) -> bool:
    """True when ``text`` lexes as a simple (unquoted) symbol.

    The printer quotes exactly the symbols this predicate rejects.
    Reserved words are *not* rejected here; they are simple symbols
    syntactically and callers that need to keep them out of identifier
    position consult :data:`RESERVED_WORDS`.
    """
    return _SIMPLE_SYMBOL.fullmatch(text) is not None


def quote_identifier(name: str) -> str:
    """Render an *identifier* occurrence of ``name``: bare when it is a
    simple non-reserved symbol, ``|...|``-quoted otherwise (``|let|`` is an
    ordinary symbol; bare ``let`` is the keyword).  Raises
    :class:`~repro.errors.PrinterError` for names SMT-LIB cannot express."""
    if is_simple_symbol(name) and name not in RESERVED_WORDS:
        return name
    if "|" in name or "\\" in name:
        raise PrinterError(f"symbol cannot be quoted in SMT-LIB: {name!r}")
    return f"|{name}|"


def position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based ``(line, column)`` of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list[Token]:
    """Tokenise ``text`` into a list of :class:`Token`.

    Raises :class:`~repro.errors.LexerError` on malformed input (unterminated
    strings or quoted symbols, malformed literals, stray characters), with
    the line and column where the offending token starts.
    """
    tokens: list[Token] = []
    append = tokens.append
    kinds = _KINDS
    pos = 0
    for match in _TOKEN.finditer(text):
        start, end = match.span()
        if start != pos:
            _raise_lexer_error(text, pos)
        pos = end
        group = match.lastgroup
        if group is None:
            continue
        kind = kinds[group]
        word = match.group()
        if kind is _STRING:
            word = word[1:-1].replace('""', '"')
        elif kind is _QUOTED_SYMBOL:
            word = word[1:-1]
            # A quoted simple symbol denotes the same symbol as its unquoted
            # spelling, so canonicalise to SYMBOL; reserved words and
            # non-simple contents stay QUOTED_SYMBOL so the parser never
            # mistakes |let| for the keyword.
            if is_simple_symbol(word) and word not in RESERVED_WORDS:
                kind = _SYMBOL
        # Token(kind, word, start) without the Python-level __new__ frame.
        append(_new_tuple(Token, (kind, word, start)))
    if pos != len(text):
        _raise_lexer_error(text, pos)
    return tokens


def _raise_lexer_error(text: str, offset: int) -> NoReturn:
    """Say why no token starts at ``offset``.  Only the failure path runs
    this, so it may inspect the text character by character."""
    ch = text[offset]
    if ch == '"':
        message = "unterminated string literal"
    elif ch == "|":
        if text.find("|", offset + 1) == -1:
            message = "unterminated quoted symbol"
        else:
            message = "backslash not allowed in quoted symbol"
    elif ch == ":":
        message = "keyword with empty name"
    elif text.startswith("#x", offset):
        message = "malformed hexadecimal literal"
    elif text.startswith("#b", offset):
        message = "malformed binary literal"
    elif "0" <= ch <= "9":
        end = offset
        while "0" <= text[end : end + 1] <= "9":
            end += 1
        if ch == "0" and end - offset > 1:
            message = "numeral with leading zero"
        elif text.startswith(".", end):
            if "0" <= text[end + 1 : end + 2] <= "9":
                message = "malformed decimal literal"
            else:
                message = "malformed decimal literal (no digits after '.')"
        else:
            message = "numeral followed by symbol character"
    else:
        message = f"unexpected character {ch!r}"
    raise LexerError(message, *position(text, offset))


__all__ = [
    "Token",
    "TokenKind",
    "RESERVED_WORDS",
    "tokenize",
    "position",
    "is_simple_symbol",
    "quote_identifier",
]
