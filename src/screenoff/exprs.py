"""Event expressions.

Grammar, loosest binding first:

    expr := or
    or   := and ('|' and)*
    and  := term ('&' term)*
    term := '!' term | '(' expr ')' | IDENT '=' INT

'&' binds tighter than '|', '!' tightest.  Whitespace is insignificant.
An expression denotes an event bitmask over a site's history space.
"""
from __future__ import annotations

import re

from .order import CausalSite
from .events import cylinder, omega

# Deepest nesting of '!' and '(' a term may have; each level costs the
# parser up to three stack frames.
_DEPTH_LIMIT = 100
_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<op>[|&!()=]))")


class ExpressionError(ValueError):
    """Bad event expression; position is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"expression error: {message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, site: CausalSite, text: str):
        self.site = site
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                break
            kind = m.lastgroup
            assert kind is not None
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        rest = text[pos:]
        if rest.strip():
            bad = pos + (len(rest) - len(rest.lstrip()))
            raise ExpressionError(f"unexpected character {text[bad]!r}", bad)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ExpressionError(f"expected {op!r}, found {tok[1]!r}", tok[2])

    def parse(self) -> int:
        mask = self.or_expr()
        tok = self.peek()
        if tok is not None:
            raise ExpressionError(f"trailing input {tok[1]!r}", tok[2])
        return mask

    def or_expr(self) -> int:
        mask = self.and_expr()
        while (tok := self.peek()) is not None and tok[:2] == ("op", "|"):
            self.take()
            mask |= self.and_expr()
        return mask

    def and_expr(self) -> int:
        mask = self.term()
        while (tok := self.peek()) is not None and tok[:2] == ("op", "&"):
            self.take()
            mask &= self.term()
        return mask

    def term(self) -> int:
        tok = self.take()
        kind, text, pos = tok
        if kind == "op" and text in "!(":
            if self.depth == _DEPTH_LIMIT:
                raise ExpressionError(f"nested more than {_DEPTH_LIMIT} deep", pos)
            self.depth += 1
            if text == "!":
                mask = omega(self.site) ^ self.term()
            else:
                mask = self.or_expr()
                self.expect_op(")")
            self.depth -= 1
            return mask
        if kind == "ident":
            self.expect_op("=")
            vtok = self.take()
            if vtok[0] != "int":
                raise ExpressionError(f"expected a value after '=', found {vtok[1]!r}", vtok[2])
            if text not in self.site.elements:
                raise ExpressionError(f"unknown element {text!r}", pos)
            i = self.site.index(text)
            k = self.site.alphabets[i]
            value = vtok[1].lstrip("0") or "0"  # compared by length first: int() refuses over 4,300 digits
            if len(value) > len(str(k)) or int(value) >= k:
                raise ExpressionError(f"value {value} out of range for {text!r} (alphabet {k})", vtok[2])
            return cylinder(self.site, i, int(value))
        raise ExpressionError(f"unexpected token {text!r}", pos)


def parse_event(site: CausalSite, text: str) -> int:
    """Parse an event expression against a site; returns the event mask."""
    if not text.strip():
        raise ExpressionError("empty expression", 0)
    return _Parser(site, text).parse()
