"""Lexer of the polynomial expression grammar (see ``polyring``): the
tokens, the cursor the recursive-descent parser reads them through, and
the integer-size guards on literals and coefficients."""

from __future__ import annotations

import re
import sys

from .errors import ParseError

IDENTIFIER_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    rf"(?P<ws>\s+)|(?P<int>\d+)|(?P<ident>{IDENTIFIER_RE.pattern})"
    r"|(?P<op>[-+*/^()])")
# Deepest parenthesis nesting the recursive-descent parser accepts.
MAX_NESTING = 64


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


class _Cursor:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.idx = 0
        self.length = length
        self.depth = 0

    def peek(self):
        if self.idx < len(self.tokens):
            return self.tokens[self.idx]
        return (None, "", self.length)

    def advance(self):
        tok = self.peek()
        self.idx += 1
        return tok


def _size(poly) -> int:
    """Largest numerator or denominator among the coefficients."""
    return max((max(abs(c.numerator), c.denominator)
                for c in poly.terms.values()), default=0)


def _sized(poly, pos: int, message: str = "coefficient too long"):
    """``poly``, unless a coefficient's numerator or denominator passes the
    interpreter's integer-string limit (it could not be printed back)."""
    limit, size = sys.get_int_max_str_digits(), _size(poly)
    # 2 ** (3 * limit) < 10 ** limit: only long coefficients pay for 10 ** limit
    if limit and size.bit_length() > 3 * limit and size >= 10 ** limit:
        raise ParseError(message, pos)
    return poly


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's integer-string limit
        raise ParseError("integer literal too long", pos) from None
