"""Tokeniser for the SMT-LIB concrete syntax.

A token is its spelling, a ``str``: parentheses, symbols (simple and
``|quoted|``), keywords (``:named``), numerals, decimals, hexadecimal and
binary literals, and string literals with SMT-LIB's doubled-quote
escaping, each exactly as written, except that a quoted simple symbol
lexes as its bare spelling.  Whitespace and comments (``;`` to end of
line) are skipped.

One master pattern covers every token class, and :func:`tokenize` runs
it twice, both times inside the regex engine: one possessive match checks
that the whole text is tokens, whitespace and comments, and one
``findall`` collects the token spellings.  Tokens carry no offsets; an
error report finds its line and column by reading the text again
(:func:`position`, :func:`token_offsets`).
"""

from __future__ import annotations

import re
from typing import Iterator, NoReturn

from ..errors import LexerError, PrinterError

#: SMT-LIB reserved words.  These may only occur unquoted in their syntactic
#: role (``let``, ``forall``...); a ``|let|`` spelling denotes an ordinary
#: symbol that merely shares the letters, and keeps its bars when lexed.
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


#: The simple-symbol characters, ASCII only per the SMT-LIB grammar.  The
#: lexer and :func:`is_simple_symbol` (and through it the printer's quoting)
#: share this one definition, so they can never drift apart.
_SYMBOL_CHAR = r"[a-zA-Z0-9~!@$%^&*_\-+=<>.?/]"
_SIMPLE_SYMBOL = re.compile(rf"(?![0-9]){_SYMBOL_CHAR}+")
# A literal ends where a symbol character cannot follow: `1x` is one
# malformed token, never the two tokens `1` and `x`.
_END = rf"(?!{_SYMBOL_CHAR})"
_DIGITS = r"(?:0|[1-9][0-9]*)"

_SKIP = r"[ \t\r\n]+|;[^\n]*"
# The token classes, in order: parentheses, simple symbol, numeral,
# decimal, hexadecimal, binary, string, quoted symbol, keyword.  The string
# body is possessive, so `"a""` fails at its opening quote instead of
# lexing as `"a"` plus a stray `"`.
_TOKEN = rf"""\(|\)
    |(?![0-9]){_SYMBOL_CHAR}+
    |{_DIGITS}{_END}
    |{_DIGITS}\.[0-9]+{_END}
    |\#x[0-9a-fA-F]+{_END}
    |\#b[01]+{_END}
    |"(?:[^"]|"")*+"
    |\|[^|\\]*\|
    |:{_SYMBOL_CHAR}+
    """
# Where the cover match ends is where the first thing that is not a token,
# whitespace or a comment starts.
_COVER = re.compile(rf"(?:{_SKIP}|{_TOKEN})*+", re.VERBOSE)
# Whitespace and comments match with the group empty.
_SPELLINGS = re.compile(rf"{_SKIP}|({_TOKEN})", re.VERBOSE)


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


def tokenize(text: str) -> list[str]:
    """Tokenise ``text`` into the list of its token spellings.

    Raises :class:`~repro.errors.LexerError` on malformed input (unterminated
    strings or quoted symbols, malformed literals, stray characters), with
    the line and column where the offending token starts.
    """
    # The cover pattern matches the empty string, so it always matches.
    end = _COVER.match(text).end()  # type: ignore[union-attr]
    if end != len(text):
        _raise_lexer_error(text, end)
    tokens = list(filter(None, _SPELLINGS.findall(text)))
    if "|" in text:
        # A quoted simple symbol denotes the same symbol as its unquoted
        # spelling, so it lexes bare; reserved words and non-simple contents
        # keep their bars, so the parser never mistakes |let| for the keyword.
        tokens = [_unquote(token) if token[0] == "|" else token for token in tokens]
    return tokens


def _unquote(token: str) -> str:
    name = token[1:-1]
    if is_simple_symbol(name) and name not in RESERVED_WORDS:
        return name
    return token


def token_offsets(text: str) -> Iterator[tuple[int, str]]:
    """The ``(offset, spelling)`` of every token of ``text`` (which must
    lex), as written: a quoted simple symbol keeps its bars here.  Only
    error reports read this."""
    for match in _SPELLINGS.finditer(text):
        if match.group(1) is not None:
            yield match.start(), match.group(1)


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
    "RESERVED_WORDS",
    "tokenize",
    "token_offsets",
    "position",
    "is_simple_symbol",
    "quote_identifier",
]
