"""Unit tests for the tokeniser."""

import random
import re
from enum import Enum, auto
from typing import NamedTuple

import pytest

from repro.errors import LexerError
from repro.smtlib.lexer import (
    RESERVED_WORDS,
    _raise_lexer_error,
    is_simple_symbol,
    position,
    token_offsets,
    tokenize,
)


def test_parentheses_and_symbols():
    assert tokenize("(assert x)") == ["(", "assert", "x", ")"]


def test_numerals_and_decimals():
    assert tokenize("42") == ["42"]
    assert tokenize("4.25") == ["4.25"]
    assert tokenize("0 0.5") == ["0", "0.5"]


def test_leading_zero_numerals_rejected():
    # SMT-LIB numerals are 0 or a digit sequence not starting with 0.
    with pytest.raises(LexerError):
        tokenize("01")
    with pytest.raises(LexerError):
        tokenize("007.5")


def test_decimal_requires_digit_after_dot():
    # Regression: `1.` used to tokenize as a DECIMAL; SMT-LIB requires at
    # least one digit after the dot.
    with pytest.raises(LexerError):
        tokenize("1.")
    with pytest.raises(LexerError):
        tokenize("(= x 3. )")


def test_literal_token_boundaries_enforced():
    # '1x', '1.5x', '#x1g' are not valid SMT-LIB tokens; silently splitting
    # them into two tokens would change script semantics.
    with pytest.raises(LexerError):
        tokenize("1x")
    with pytest.raises(LexerError):
        tokenize("1.5x")
    with pytest.raises(LexerError):
        tokenize("#x1g")
    with pytest.raises(LexerError):
        tokenize("#b012")


def test_is_simple_symbol_matches_lexer():
    from repro.smtlib.lexer import is_simple_symbol

    assert is_simple_symbol("str.++")
    assert not is_simple_symbol("1abc")
    assert not is_simple_symbol("a b")
    assert not is_simple_symbol("")
    # ASCII only: SMT-LIB simple symbols exclude Unicode alphanumerics.
    assert not is_simple_symbol("café")


def test_non_ascii_rejected_outside_quotes():
    with pytest.raises(LexerError):
        tokenize("café")
    # ...but quoted symbols may carry any printable characters.
    assert tokenize("|café|") == ["|café|"]


def test_hex_and_binary_literals():
    assert tokenize("#x1A #b101") == ["#x1A", "#b101"]
    with pytest.raises(LexerError):
        tokenize("#x")
    with pytest.raises(LexerError):
        tokenize("#b")
    with pytest.raises(LexerError):
        tokenize("#q1")
    # The prefixes are lowercase in the SMT-LIB grammar.
    with pytest.raises(LexerError):
        tokenize("#Xff")
    with pytest.raises(LexerError):
        tokenize("#B01")


def test_string_escaping():
    # A string lexes as its spelling; the parser undoubles the quotes.
    assert tokenize('"he said ""hi"""') == ['"he said ""hi"""']
    with pytest.raises(LexerError):
        tokenize('"unterminated')


def test_quoted_symbols():
    assert tokenize("|hello world|") == ["|hello world|"]
    # A quoted simple symbol denotes the same symbol as its unquoted
    # spelling, so it lexes bare...
    assert tokenize("|abc|") == ["abc"]
    # ...but quoted reserved words stay distinct from the keyword.
    assert tokenize("|let|") == ["|let|"]
    with pytest.raises(LexerError):
        tokenize("|unterminated")
    # SMT-LIB forbids backslash inside quoted symbols; accepting it would
    # produce symbols the printer cannot express.
    with pytest.raises(LexerError):
        tokenize(r"|a\b|")


def test_keywords():
    assert tokenize(":produce-models") == [":produce-models"]
    with pytest.raises(LexerError):
        tokenize(": lonely-colon")


def test_comments_skipped():
    assert tokenize("x ; a comment\ny") == ["x", "y"]


def test_positions_track_lines_and_columns():
    text = "(a\n  b)"
    offsets = [offset for offset, _ in token_offsets(text)]
    assert offsets == [0, 1, 5, 6]
    assert [position(text, offset) for offset in offsets] == [(1, 1), (1, 2), (2, 3), (2, 4)]


# Every malformed token rejected above, with the message it is rejected
# with and the index of its first bad character.
MALFORMED_TOKENS = [
    ("01", "numeral with leading zero", 0),
    ("007.5", "numeral with leading zero", 0),
    ("1.", "malformed decimal literal (no digits after '.')", 0),
    ("3. )", "malformed decimal literal (no digits after '.')", 0),
    ("1x", "numeral followed by symbol character", 0),
    ("1.5x", "malformed decimal literal", 0),
    ("#x1g", "malformed hexadecimal literal", 0),
    ("#b012", "malformed binary literal", 0),
    ("#x", "malformed hexadecimal literal", 0),
    ("#b", "malformed binary literal", 0),
    ("#q1", "unexpected character '#'", 0),
    ("#Xff", "unexpected character '#'", 0),
    ("#B01", "unexpected character '#'", 0),
    ('"unterminated', "unterminated string literal", 0),
    # A doubled quote escapes, so this string never closes; lexing it as
    # "a" plus a stray quote would report the last column instead.
    ('"a""', "unterminated string literal", 0),
    ("|unterminated", "unterminated quoted symbol", 0),
    (r"|a\b|", "backslash not allowed in quoted symbol", 0),
    (": lonely-colon", "keyword with empty name", 0),
    ("café", "unexpected character 'é'", 3),
    ("x \x01 y", "unexpected character '\\x01'", 2),
]


@pytest.mark.parametrize("token, message, bad", MALFORMED_TOKENS)
def test_malformed_token_reported_at_its_first_bad_character(token, message, bad):
    with pytest.raises(LexerError) as info:
        tokenize("(a)\n  " + token)
    column = 3 + bad
    assert (info.value.line, info.value.column) == (2, column)
    assert str(info.value) == f"{message} (line 2, column {column})"


def test_stray_character_rejected():
    with pytest.raises(LexerError):
        tokenize("x \x01 y")


# ---------------------------------------------------------------------------
# Differential test against a per-match reference lexer.
# ---------------------------------------------------------------------------


class _Kind(Enum):
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


class _Token(NamedTuple):
    kind: _Kind
    text: str
    offset: int


_SYMBOL_CHAR = r"[a-zA-Z0-9~!@$%^&*_\-+=<>.?/]"
_END = rf"(?!{_SYMBOL_CHAR})"
_DIGITS = r"(?:0|[1-9][0-9]*)"
_REFERENCE_PATTERN = re.compile(
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


def reference_tokenize(text):
    """The lexer as it stood with typed tokens: one loop step per match,
    each token its kind, its meaning and its offset."""
    tokens = []
    pos = 0
    for match in _REFERENCE_PATTERN.finditer(text):
        start, end = match.span()
        if start != pos:
            _raise_lexer_error(text, pos)
        pos = end
        group = match.lastgroup
        if group is None:
            continue
        kind = _Kind[group]
        word = match.group()
        if kind is _Kind.STRING:
            word = word[1:-1].replace('""', '"')
        elif kind is _Kind.QUOTED_SYMBOL:
            word = word[1:-1]
            if is_simple_symbol(word) and word not in RESERVED_WORDS:
                kind = _Kind.SYMBOL
        tokens.append(_Token(kind, word, start))
    if pos != len(text):
        _raise_lexer_error(text, pos)
    return tokens


def respell(token):
    """A reference token as the parser rendered it: a string re-quoted with
    its quotes doubled, a quoted symbol between bars, else its text."""
    if token.kind is _Kind.STRING:
        return '"' + token.text.replace('"', '""') + '"'
    if token.kind is _Kind.QUOTED_SYMBOL:
        return f"|{token.text}|"
    return token.text


_VALID_PIECES = [
    "(", ")", "x", "abc", "str.++", "<=", "?b0", "let", "_", "!",
    "0", "7", "42", "0.5", "3.25", "#x1F", "#xab", "#b0", "#b101",
    '""', '"s"', '"a""b"', '"semi;colon"', '"multi\nline"',
    "|a b|", "|abc|", "|let|", "|café|", "|x;y|", "||",
    ":named", ":k", "; comment", ";", "\r\n", "\n", " ", "\t",
]
_ERROR_PIECES = [
    "#q", "1x", "01", "3.", ": ", '"unclosed', "|unclosed", "|a\\b|",
    "é", "\x01",
]
_SEPARATORS = ["", "", " ", "\n", "\r\n", "\t"]


def _random_text(rng):
    pieces = []
    for _ in range(rng.randint(1, 14)):
        if rng.random() < 0.06:
            pieces.append(rng.choice(_ERROR_PIECES))
        else:
            pieces.append(rng.choice(_VALID_PIECES))
        pieces.append(rng.choice(_SEPARATORS))
    return "".join(pieces)


def _outcome(lex, text):
    try:
        return "ok", lex(text)
    except LexerError as error:
        return "error", (str(error), error.line, error.column)


def test_tokenize_agrees_with_the_per_match_reference():
    rng = random.Random(20261020)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(2000):
        text = _random_text(rng)
        kind, got = _outcome(tokenize, text)
        ref_kind, expected = _outcome(reference_tokenize, text)
        if ref_kind == "ok":
            expected = [respell(token) for token in expected]
        assert (kind, got) == (ref_kind, expected), repr(text)
        outcomes[kind] += 1
    # Both sides of the comparison are exercised.
    assert min(outcomes.values()) > 400, outcomes
