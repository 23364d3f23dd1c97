"""Unit tests for the tokeniser."""

import pytest

from repro.errors import LexerError
from repro.smtlib.lexer import TokenKind, position, tokenize


def kinds(text):
    return [token.kind for token in tokenize(text)]


def texts(text):
    return [token.text for token in tokenize(text)]


def test_parentheses_and_symbols():
    tokens = tokenize("(assert x)")
    assert [t.kind for t in tokens] == [
        TokenKind.LPAREN,
        TokenKind.SYMBOL,
        TokenKind.SYMBOL,
        TokenKind.RPAREN,
    ]
    assert tokens[1].text == "assert"


def test_numerals_and_decimals():
    assert kinds("42") == [TokenKind.NUMERAL]
    assert kinds("4.25") == [TokenKind.DECIMAL]
    assert texts("4.25") == ["4.25"]
    assert kinds("0 0.5") == [TokenKind.NUMERAL, TokenKind.DECIMAL]


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
    tokens = tokenize("|café|")
    assert tokens[0].text == "café"


def test_hex_and_binary_literals():
    assert kinds("#x1A #b101") == [TokenKind.HEXADECIMAL, TokenKind.BINARY]
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
    tokens = tokenize('"he said ""hi"""')
    assert tokens[0].kind == TokenKind.STRING
    assert tokens[0].text == 'he said "hi"'
    with pytest.raises(LexerError):
        tokenize('"unterminated')


def test_quoted_symbols():
    tokens = tokenize("|hello world|")
    assert tokens[0].kind == TokenKind.QUOTED_SYMBOL
    assert tokens[0].text == "hello world"
    # A quoted simple symbol denotes the same symbol as its unquoted
    # spelling, so it canonicalises to a plain SYMBOL token...
    assert tokenize("|abc|")[0].kind == TokenKind.SYMBOL
    # ...but quoted reserved words stay distinct from the keyword.
    assert tokenize("|let|")[0].kind == TokenKind.QUOTED_SYMBOL
    with pytest.raises(LexerError):
        tokenize("|unterminated")
    # SMT-LIB forbids backslash inside quoted symbols; accepting it would
    # produce symbols the printer cannot express.
    with pytest.raises(LexerError):
        tokenize(r"|a\b|")


def test_keywords():
    tokens = tokenize(":produce-models")
    assert tokens[0].kind == TokenKind.KEYWORD
    assert tokens[0].text == ":produce-models"
    with pytest.raises(LexerError):
        tokenize(": lonely-colon")


def test_comments_skipped():
    assert texts("x ; a comment\ny") == ["x", "y"]


def test_positions_track_lines_and_columns():
    text = "(a\n  b)"
    tokens = tokenize(text)
    assert [t.offset for t in tokens] == [0, 1, 5, 6]
    assert [position(text, t.offset) for t in tokens] == [(1, 1), (1, 2), (2, 3), (2, 4)]


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
