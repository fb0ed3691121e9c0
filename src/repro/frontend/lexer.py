"""Master-regex lexer for the C subset.

The lexer produces a flat list of :class:`Token` objects. It understands:

* integer literals (decimal, hex, octal, with ``u``/``l`` suffixes),
* character and string literals with the usual escapes,
* all C operators and punctuation used by the grammar,
* keywords of the supported subset,
* ``//`` and ``/* */`` comments (skipped),
* preprocessor lines (a leading ``#`` skips to end of line) — benchmark
  sources are expected to be pre-expanded, mirroring the paper's setup where
  programs are analyzed "after preprocessing and macro expansion". GNU-style
  linemarkers (``# 12 "file.h"``) *are* interpreted: they reset the
  line/filename the lexer stamps onto subsequent tokens, which is how the
  mini preprocessor keeps positions exact across ``#include`` expansion.

Scanning is one loop over ``_TOKEN.match(src, i)``: a single compiled
alternation recognizes whitespace and complete comments, identifiers and
keywords with an ASCII first character, numbers and every punctuator
(longest first). Columns come from the offset of the current line's start,
so each token costs one regex match and one :class:`Token`. Whatever the
master regex does not match — string and character literals, ``#`` lines,
an unterminated block comment, an identifier starting with a non-ASCII
letter, an unexpected character, the end of input — goes to the
character-at-a-time scanners below.

Digits are ASCII ``[0-9]`` only: a non-ASCII digit such as ``²`` or ``٣``
outside an identifier is an unexpected character. Identifiers start with
``_`` or a character for which ``str.isalpha()`` holds and continue with
``_`` or ``str.isalnum()`` characters, so ``x²`` is one identifier.

Error recovery: constructed with a :class:`DiagnosticBag`, the lexer
records malformed input as positioned diagnostics and keeps scanning
(skipping the offending character, or closing an unterminated literal at
the end of its line) instead of raising on the first problem. Without a
bag the historical fail-fast behaviour is unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from repro.frontend.errors import DiagnosticBag, LexError, Position


class TokenKind(Enum):
    """Classification of a lexed token."""

    IDENT = auto()
    NUMBER = auto()
    CHAR = auto()
    STRING = auto()
    KEYWORD = auto()
    PUNCT = auto()
    EOF = auto()


KEYWORDS = frozenset(
    {
        "int",
        "char",
        "long",
        "short",
        "unsigned",
        "signed",
        "float",
        "double",
        "void",
        "struct",
        "union",
        "enum",
        "typedef",
        "static",
        "extern",
        "const",
        "volatile",
        "register",
        "auto",
        "if",
        "else",
        "while",
        "for",
        "do",
        "switch",
        "case",
        "default",
        "break",
        "continue",
        "return",
        "goto",
        "sizeof",
    }
)

#: every punctuator, longest first so the alternation takes the longest match
_PUNCTS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "%", "&", "|", "^", "~", "!", "<", ">", "=", "?", ":",
    ";", ",", ".", "(", ")", "{", "}", "[", "]",
)

#: one match per token. ``skip`` is a run of whitespace and complete
#: comments; ``/`` is a punctuator unless it opens a comment. Numbers: a hex
#: prefix with any digits (none is an error), else decimal/octal/float;
#: both take any ``u``/``l`` suffix.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<num>(?:0[xX][0-9a-fA-F]*"
    r"|(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)[uUlL]*)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCTS)) + r"|/(?!\*))",
    re.DOTALL,
)

#: the rest of an identifier whose first character is a non-ASCII letter
_IDENT_REST = re.compile(r"\w*")

#: an octal escape takes one to three of these (``\8`` is unknown)
_OCTAL_DIGITS = frozenset("01234567")

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}

#: GNU linemarker / ``#line`` directive: ``# 12 "file"`` or ``#line 12``.
_LINEMARKER = re.compile(r"#\s*(?:line\s+)?([0-9]+)(?:\s+\"([^\"]*)\")?")


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` holds the literal text for identifiers/punctuation and the
    decoded value for numbers/characters/strings.
    """

    kind: TokenKind
    text: str
    pos: Position
    value: object = None

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.pos})"


_new = object.__new__
_set = object.__setattr__


def _token(
    kind: TokenKind, text: str, line: int, column: int, filename: str,
    value: object = None,
) -> Token:
    """``Token(kind, text, Position(line, column, filename), value)``.

    Sets the fields with ``object.__setattr__`` as the generated
    ``__init__`` methods of the two frozen dataclasses do, in one Python
    call instead of two: building tokens is most of the lexer's time.
    The objects are the same, so equality, hashing, ordering, immutability
    and pickling do not change.
    """
    pos = _new(Position)
    _set(pos, "line", line)
    _set(pos, "column", column)
    _set(pos, "filename", filename)
    tok = _new(Token)
    _set(tok, "kind", kind)
    _set(tok, "text", text)
    _set(tok, "pos", pos)
    _set(tok, "value", value)
    return tok


def _number_value(body: str) -> object:
    """The value of a number without its suffix (``None``: bad octal,
    :data:`_TOO_LARGE`: more decimal digits than ``int()`` converts)."""
    if body[:2] in ("0x", "0X"):
        return int(body, 16)
    if "." in body or "e" in body or "E" in body:
        return float(body)
    if len(body) > 1 and body[0] == "0":
        try:
            return int(body, 8)
        except ValueError:
            return None
    try:
        return int(body)
    except ValueError:
        # CPython's limit on decimal-string conversions (4300 digits by
        # default); the body is all ASCII digits, so nothing else raises.
        return _TOO_LARGE


#: :func:`_number_value` of a decimal literal too long to convert
_TOO_LARGE = object()


class Lexer:
    """Tokenizes a source string into a list of :class:`Token`.

    With ``diagnostics`` set, lexical errors are recorded and recovered
    from; without it they raise :class:`LexError` as before.
    """

    def __init__(
        self,
        source: str,
        filename: str = "<input>",
        diagnostics: DiagnosticBag | None = None,
    ) -> None:
        self._src = source
        self._filename = filename
        self._i = 0
        self._line = 1
        #: offset of the first character of the current line
        self._line_start = 0
        self._diags = diagnostics
        self._lines = source.split("\n")

    # -- low-level cursor helpers ------------------------------------------

    def _pos(self) -> Position:
        return Position(self._line, self._i - self._line_start + 1, self._filename)

    def _peek(self, offset: int = 0) -> str:
        j = self._i + offset
        return self._src[j] if j < len(self._src) else ""

    def _advance(self, n: int = 1) -> str:
        i = self._i
        taken = self._src[i : i + n]
        newlines = taken.count("\n")
        if newlines:
            self._line += newlines
            self._line_start = i + taken.rindex("\n") + 1
        self._i = i + len(taken)
        return taken

    def _at_end(self) -> bool:
        return self._i >= len(self._src)

    def _line_text(self, pos: Position) -> str | None:
        """The raw source line at ``pos`` (for caret diagnostics).

        Only valid while the lexer is still inside the file it started on
        (a linemarker retargets positions into another file whose text we
        do not have).
        """
        if pos.filename != self._filename:
            return None
        index = pos.line - 1
        # a linemarker may have shifted line numbers away from raw indices
        if pos.filename == self._marker_file and self._marker_delta:
            index -= self._marker_delta
        if 0 <= index < len(self._lines):
            return self._lines[index]
        return None

    #: line-number shift introduced by the last linemarker (see _line_text)
    _marker_delta: int = 0
    _marker_file: str = ""

    def _error(self, message: str, pos: Position) -> None:
        """Raise in strict mode, record and continue in recovery mode."""
        exc = LexError(message, pos, self._line_text(pos))
        if self._diags is None:
            raise exc
        self._diags.record_exception(exc, "lex")

    # -- token scanners -----------------------------------------------------

    def tokenize(self) -> list[Token]:
        """Scan the whole input and return tokens ending with an EOF token."""
        src = self._src
        match = _TOKEN.match
        tokens: list[Token] = []
        append = tokens.append
        i, line, line_start = self._i, self._line, self._line_start
        filename = self._filename
        while True:
            m = match(src, i)
            if m is None:
                # literals, directives and errors: the slow scanners below
                self._i, self._line, self._line_start = i, line, line_start
                if self._at_end():
                    append(Token(TokenKind.EOF, "", self._pos()))
                    return tokens
                tok = self._scan_other()
                if tok is not None:
                    append(tok)
                i, line, line_start = self._i, self._line, self._line_start
                filename = self._filename
                continue
            group = m.lastgroup
            end = m.end()
            if group == "skip":
                newlines = src.count("\n", i, end)
                if newlines:
                    line += newlines
                    line_start = src.rindex("\n", i, end) + 1
                i = end
                continue
            text = m.group()
            column = i - line_start + 1
            if group == "ident":
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
                append(_token(kind, text, line, column, filename, text))
            elif group == "punct":
                append(_token(TokenKind.PUNCT, text, line, column, filename))
            else:
                body = text.rstrip("uUlL")
                if body in ("0x", "0X"):
                    pos = Position(line, column, filename)
                    self._error("invalid hex literal", pos)
                    # no digits: the suffix letters lex on their own
                    text, value, end = body, 0, i + 2
                else:
                    value = _number_value(body)
                    if value is None:
                        pos = Position(line, column, filename)
                        self._error(f"invalid octal literal {body!r}", pos)
                        value = 0
                    elif value is _TOO_LARGE:
                        pos = Position(line, column, filename)
                        self._error("integer literal too large", pos)
                        value = 0
                append(_token(TokenKind.NUMBER, text, line, column, filename, value))
            i = end

    def _scan_other(self) -> Token | None:
        """Scan one token (or skip one directive) the master regex missed."""
        pos = self._pos()
        ch = self._peek()
        if ch == "#" and self._i == self._line_start:
            self._skip_directive_line()
            return None
        if ch == "/":  # a block comment that never closes
            self._error("unterminated block comment", pos)
            self._advance(len(self._src) - self._i)
            return None
        if ch == "'":
            return self._scan_char(pos)
        if ch == '"':
            return self._scan_string(pos)
        if ch.isalpha():
            return self._scan_ident(pos)
        self._error(f"unexpected character {ch!r}", pos)
        self._advance()  # recovery: drop the offending character
        return None

    def _skip_directive_line(self) -> None:
        """Skip a ``#`` line, honouring continuations and linemarkers."""
        start = self._i
        while not self._at_end():
            if self._peek() == "\\" and self._peek(1) == "\n":
                self._advance(2)
            elif self._peek() == "\n":
                break
            else:
                self._advance()
        text = self._src[start : self._i]
        saw_newline = not self._at_end()
        if saw_newline:
            self._advance()  # consume the newline
        m = _LINEMARKER.match(text)
        if m is not None:
            # ``# N "file"``: the *next* line is line N of ``file``. The
            # delta must be against the *physical* next line (markers are
            # rare, so counting newlines here is fine), not the possibly
            # already-marker-shifted line counter.
            raw_next_line = self._src.count("\n", 0, self._i) + 1
            self._line = int(m.group(1))
            if m.group(2) is not None:
                self._filename = m.group(2)
            self._marker_file = self._filename
            self._marker_delta = self._line - raw_next_line

    def _scan_ident(self, pos: Position) -> Token:
        start = self._i
        self._advance(_IDENT_REST.match(self._src, start + 1).end() - start)
        text = self._src[start : self._i]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, pos, text)

    def _scan_escape(self, pos: Position) -> str:
        self._advance()  # backslash
        ch = self._peek()
        if ch == "x":
            self._advance()
            digits = ""
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                digits += self._advance()
            if not digits:
                self._error("invalid hex escape", pos)
                return "?"
            return chr(int(digits, 16) & 0xFF)
        if ch in _OCTAL_DIGITS:
            digits = ""
            while self._peek() in _OCTAL_DIGITS and len(digits) < 3:
                digits += self._advance()
            return chr(int(digits, 8) & 0xFF)
        if ch in _ESCAPES:
            self._advance()
            return _ESCAPES[ch]
        self._error(f"unknown escape sequence '\\{ch}'", pos)
        # recovery: treat the escaped character literally
        if not self._at_end() and ch != "\n":
            self._advance()
            return ch
        return "?"

    def _scan_char(self, pos: Position) -> Token:
        self._advance()  # opening quote
        if self._peek() == "\\":
            value = self._scan_escape(pos)
        else:
            if self._at_end() or self._peek() == "\n":
                self._error("unterminated character literal", pos)
                return Token(TokenKind.CHAR, "'", pos, 0)
            value = self._advance()
        if self._peek() != "'":
            self._error("unterminated character literal", pos)
            return Token(TokenKind.CHAR, f"'{value}", pos, ord(value))
        self._advance()
        return Token(TokenKind.CHAR, f"'{value}'", pos, ord(value))

    def _scan_string(self, pos: Position) -> Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self._at_end() or self._peek() == "\n":
                self._error("unterminated string literal", pos)
                break
            if self._peek() == '"':
                self._advance()
                break
            if self._peek() == "\\":
                chars.append(self._scan_escape(pos))
            else:
                chars.append(self._advance())
        value = "".join(chars)
        return Token(TokenKind.STRING, f'"{value}"', pos, value)


def tokenize(
    source: str,
    filename: str = "<input>",
    diagnostics: DiagnosticBag | None = None,
) -> list[Token]:
    """Convenience wrapper: tokenize ``source`` into a token list.

    With ``diagnostics``, lexical errors are recorded and skipped instead
    of raised.
    """
    return Lexer(source, filename, diagnostics).tokenize()
