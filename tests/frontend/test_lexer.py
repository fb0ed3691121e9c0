"""Lexer unit tests."""

import pickle
from dataclasses import FrozenInstanceError, fields

import pytest

from repro.frontend.errors import DiagnosticBag, LexError, Position
from repro.frontend.lexer import Token, TokenKind, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]


def texts(src):
    return [t.text for t in tokenize(src)[:-1]]


def values(src):
    return [t.value for t in tokenize(src)[:-1]]


class TestNumbers:
    def test_decimal(self):
        assert values("42") == [42]

    def test_zero(self):
        assert values("0") == [0]

    def test_hex(self):
        assert values("0xFF 0x10") == [255, 16]

    def test_octal(self):
        assert values("0755") == [0o755]

    def test_float(self):
        assert values("3.25") == [3.25]

    def test_float_exponent(self):
        assert values("1e3 2.5e-2") == [1000.0, 0.025]

    def test_suffixes_ignored(self):
        assert values("10u 10L 10UL 10ull") == [10, 10, 10, 10]

    def test_number_kind(self):
        assert kinds("123") == [TokenKind.NUMBER]


class TestIdentifiersAndKeywords:
    def test_identifier(self):
        toks = tokenize("foo_bar123")
        assert toks[0].kind is TokenKind.IDENT
        assert toks[0].text == "foo_bar123"

    def test_underscore_start(self):
        assert tokenize("_x")[0].kind is TokenKind.IDENT

    def test_keywords(self):
        for kw in ("int", "while", "return", "struct", "sizeof"):
            assert tokenize(kw)[0].kind is TokenKind.KEYWORD

    def test_keyword_prefix_is_ident(self):
        assert tokenize("integer")[0].kind is TokenKind.IDENT


class TestCharAndString:
    def test_char(self):
        assert values("'a'") == [ord("a")]

    def test_char_escape(self):
        assert values(r"'\n' '\t' '\0' '\\'") == [10, 9, 0, 92]

    def test_hex_escape(self):
        assert values(r"'\x41'") == [65]

    def test_string(self):
        assert values('"hello"') == ["hello"]

    def test_string_with_escapes(self):
        assert values(r'"a\nb"') == ["a\nb"]

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")


class TestOperators:
    def test_multi_char_operators(self):
        assert texts("a <<= b >>= c") == ["a", "<<=", "b", ">>=", "c"]

    def test_two_char_operators(self):
        ops = "-> ++ -- << >> <= >= == != && || += -= *= /= %="
        lexed = texts(ops)
        assert lexed == ops.split()

    def test_single_char_operators(self):
        assert texts("a+b*c") == ["a", "+", "b", "*", "c"]

    def test_arrow_vs_minus(self):
        assert texts("a->b - c") == ["a", "->", "b", "-", "c"]

    def test_increment_vs_plus(self):
        assert texts("a+++b") == ["a", "++", "+", "b"]

    def test_unknown_char(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestTrivia:
    def test_line_comment(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_preprocessor_skipped(self):
        assert texts("#include <stdio.h>\nint x;") == ["int", "x", ";"]

    def test_preprocessor_continuation(self):
        assert texts("#define A \\\n 1\nint x;") == ["int", "x", ";"]

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert (toks[0].pos.line, toks[0].pos.column) == (1, 1)
        assert (toks[1].pos.line, toks[1].pos.column) == (2, 3)

    def test_eof_token(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind is TokenKind.EOF

    def test_adjacent_strings_kept_separate_by_lexer(self):
        toks = tokenize('"a" "b"')
        assert [t.kind for t in toks[:-1]] == [TokenKind.STRING] * 2


class TestEofRegressions:
    """Numbers at end-of-input: `"" in "uUlL"` is True, so every membership
    loop must guard against the empty peek (used to hang)."""

    def test_bare_number_at_eof(self):
        assert values("42") == [42]

    def test_hex_at_eof(self):
        assert values("0x1F") == [31]

    def test_zero_at_eof(self):
        assert values("0") == [0]

    def test_float_at_eof(self):
        assert values("1.5") == [1.5]

    def test_suffix_at_eof(self):
        assert values("7UL") == [7]


class TestAsciiDigits:
    """Digits are ASCII [0-9]: a non-ASCII digit outside an identifier is an
    unexpected character, never a number (``int('²')`` raised ValueError,
    and ``٣``/``１``/``𝟙`` lexed as 3 and 1)."""

    @pytest.mark.parametrize("digit", ["²", "٣", "１", "𝟙"])
    def test_non_ascii_digit_is_an_unexpected_character(self, digit):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(f"int x = {digit};")

    @pytest.mark.parametrize("digit", ["²", "٣", "１", "𝟙"])
    def test_non_ascii_digit_is_recovered(self, digit):
        bag = DiagnosticBag()
        toks = tokenize(f"int x = {digit};", "d.c", bag)
        assert [t.text for t in toks[:-1]] == ["int", "x", "=", ";"]
        [diag] = bag.errors()
        assert diag.message == f"unexpected character {digit!r}"
        assert (diag.pos.line, diag.pos.column) == (1, 9)

    def test_non_ascii_digit_ends_a_number(self):
        bag = DiagnosticBag()
        assert [t.value for t in tokenize("1٣", "d.c", bag)[:-1]] == [1]
        assert len(bag.errors()) == 1

    def test_non_ascii_digits_continue_an_identifier(self):
        toks = tokenize("x² y٣ é1")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            (TokenKind.IDENT, "x²"),
            (TokenKind.IDENT, "y٣"),
            (TokenKind.IDENT, "é1"),
        ]

    def test_octal_escapes_take_octal_digits_only(self):
        # "\18" is \1 then '8'; "\8" and "\²" used to raise ValueError
        assert values(r'"\18"') == ["\x018"]
        for escape in ("8", "²"):
            with pytest.raises(LexError, match="unknown escape sequence"):
                tokenize(f'"\\{escape}"')


class TestLiteralLimits:
    """A decimal literal longer than ``int()`` converts (4300 digits by
    default) is a positioned lexical error; it used to escape as CPython's
    raw ``ValueError: Exceeds the limit``."""

    SOURCE = "int x = " + "1" * 5000 + ";"

    def test_oversized_decimal_literal_is_a_lex_error(self):
        with pytest.raises(LexError, match="integer literal too large") as info:
            tokenize(self.SOURCE, "big.c")
        assert (info.value.pos.line, info.value.pos.column) == (1, 9)

    def test_oversized_decimal_literal_is_recovered_as_zero(self):
        bag = DiagnosticBag()
        toks = tokenize(self.SOURCE, "big.c", bag)
        assert [t.text for t in toks[:-1]] == ["int", "x", "=", "1" * 5000, ";"]
        assert toks[3].kind is TokenKind.NUMBER and toks[3].value == 0
        [diag] = bag.errors()
        assert diag.message == "integer literal too large"
        assert (diag.pos.line, diag.pos.column) == (1, 9)

    def test_long_hex_and_octal_literals_still_convert(self):
        # power-of-two bases are not subject to the decimal digit limit
        assert values("0x" + "f" * 5000) == [16**5000 - 1]
        assert values("0" + "7" * 5000) == [8**5000 - 1]


class TestMasterRegexEdges:
    """Cases where one alternation must pick what the old per-character
    scanners picked."""

    def test_hex_prefix_without_digits(self):
        bag = DiagnosticBag()
        toks = tokenize("0xul", "h.c", bag)
        assert [(t.kind, t.text, t.value) for t in toks[:-1]] == [
            (TokenKind.NUMBER, "0x", 0),
            (TokenKind.IDENT, "ul", "ul"),
        ]
        assert [d.message for d in bag.errors()] == ["invalid hex literal"]

    def test_dot_needs_a_digit_to_make_a_float(self):
        assert texts("1.e5 ..5 ...") == ["1", ".", "e5", ".", ".5", "..."]

    def test_slash_star_without_close_is_a_comment_error(self):
        with pytest.raises(LexError, match="unterminated block comment"):
            tokenize("a / *b /* c")

    def test_hash_after_column_one_is_an_error(self):
        with pytest.raises(LexError, match="unexpected character '#'"):
            tokenize("int x; #define A")

    def test_columns_after_comments_and_crlf(self):
        toks = tokenize("a /* x\r\n y */ b\r\n\tc // d\n  e")
        assert [(t.text, t.pos.line, t.pos.column) for t in toks] == [
            ("a", 1, 1), ("b", 2, 7), ("c", 3, 2), ("e", 4, 3), ("", 4, 4),
        ]

    def test_linemarker_retargets_positions(self):
        toks = tokenize('a\n# 40 "h.h"\n  b\n', "m.c")
        assert [(t.pos.line, t.pos.column, t.pos.filename) for t in toks] == [
            (1, 1, "m.c"), (40, 3, "h.h"), (41, 1, "h.h"),
        ]

    @pytest.mark.parametrize("digit", ["٣", "３", "𝟛"])
    def test_linemarker_line_takes_ascii_digits_only(self, digit):
        """``#٣`` is not a linemarker: it used to renumber the next line
        as line 3, so an error on line 2 was reported at 3."""
        with pytest.raises(LexError, match="unexpected character") as info:
            tokenize(f"#{digit}\nint x = $;", "m.c")
        assert (info.value.pos.line, info.value.pos.column) == (2, 9)
        assert info.value.source_line == "int x = $;"


def test_lexed_tokens_are_ordinary_frozen_dataclasses():
    """The lexer builds tokens without their ``__init__``; they must be
    indistinguishable from constructed ones."""
    tok = tokenize("  foo")[0]
    built = Token(TokenKind.IDENT, "foo", Position(1, 3, "<input>"), "foo")
    assert tok == built and hash(tok) == hash(built)
    assert tok.pos == built.pos and hash(tok.pos) == hash(built.pos)
    assert list(vars(tok)) == [f.name for f in fields(Token)]
    assert list(vars(tok.pos)) == [f.name for f in fields(Position)]
    assert pickle.dumps(tok) == pickle.dumps(built)
    assert pickle.loads(pickle.dumps(tok)) == built
    assert tok.pos < Position(1, 4, "<input>")
    with pytest.raises(FrozenInstanceError):
        tok.text = "bar"
    with pytest.raises(FrozenInstanceError):
        tok.pos.line = 2
