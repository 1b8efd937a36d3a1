"""Recursive-descent parsing for polynomial expressions and rewrite rules.

Rule text looks like ``u -> u*v; v -> 4*u^2``: one rule per segment, with
semicolons or newlines between rules.  Expressions use '+', '-', '*', '^',
nonnegative integer literals and parentheses; other whitespace is
insignificant.  Every letter appearing on any right-hand side must own a
rule of its own (forward references are fine).

The alphabet is read off the tokens first (the names of a polynomial in
first-occurrence order, or the names that open rules), so each polynomial
is built while it is read and the first error in reading order is the one
reported.  Sums and products are loops; only parentheses recurse, and they
nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .grammar import Grammar
from .poly import MultiPoly, check_letters

__all__ = ["MAX_NESTING", "ParseError", "parse_grammar", "parse_poly"]

# Deepest parenthesis nesting an expression may use; deeper input is a ParseError.
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# kind is one of NAME, INT, SYM, ARROW, SEP, END.
_Token = namedtuple("_Token", "kind value line col")

# Whitespace other than a newline matches with no named group.
_TOKEN = re.compile(r"[ \t\r]+|(?P<NL>\n)|(?P<ARROW>->)|(?P<SYM>[-+*^()])|(?P<SEP>;)"
                    r"|(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9]*)")


def _tokenize(text: str, newline_sep: bool) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        col = pos - line_start + 1
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        if kind == "NL":
            if newline_sep:
                toks.append(_Token("SEP", ";", line, col))
            line, line_start = line + 1, m.end()
        elif kind:
            toks.append(_Token(kind, m.group(), line, col))
        pos = m.end()
    toks.append(_Token("END", "", line, pos - line_start + 1))
    return toks


class _Parser:
    """Builds each polynomial while reading it, over an alphabet fixed up front."""

    def __init__(self, tokens: list[_Token], letters: tuple[str, ...]):
        self.toks = tokens
        self.i = 0
        self.letters = letters
        self.variables = dict(zip(letters, MultiPoly.variables(letters)))
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at(self, symbols: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.value in symbols

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # expr := sign? term (('+'|'-') term)*
    def expression(self) -> MultiPoly:
        negate = self.at("+-") and self.advance().value == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while self.at("+-"):
            sign = self.advance().value
            rhs = self.term()
            acc = acc + rhs if sign == "+" else acc - rhs
        return acc

    # term := factor ('*' factor)*
    def term(self) -> MultiPoly:
        acc = self.factor()
        while self.at("*"):
            self.advance()
            acc = acc * self.factor()
        return acc

    # factor := atom ('^' INT)?
    def factor(self) -> MultiPoly:
        base = self.atom()
        if not self.at("^"):
            return base
        self.advance()
        exp = self.peek()
        if exp.kind != "INT":
            self.fail("expected a nonnegative integer exponent after '^'")
        self.advance()
        return base ** int(exp.value)

    # atom := INT | NAME | '(' expr ')'
    def atom(self) -> MultiPoly:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return MultiPoly.const(self.letters, int(tok.value))
        if tok.kind == "NAME":
            if tok.value not in self.variables:
                self.fail(f"undeclared letter {tok.value!r}")
            self.advance()
            return self.variables[tok.value]
        if self.at("("):
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nest deeper than the limit of {MAX_NESTING}")
            self.advance()
            self.depth += 1
            node = self.expression()
            if not self.at(")"):
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return node
        if tok.kind == "END":
            self.fail("unexpected end of input")
        self.fail(f"expected a value, found {tok.value!r}")


def parse_poly(text: str, letters=None) -> MultiPoly:
    """Parse one polynomial expression.

    With letters given, every name must belong to that alphabet; otherwise
    the alphabet is inferred in first-occurrence order.
    """
    tokens = _tokenize(text, newline_sep=False)
    if letters is None:
        letters = tuple(dict.fromkeys(t.value for t in tokens if t.kind == "NAME"))
    parser = _Parser(tokens, check_letters(letters))
    result = parser.expression()
    trailing = parser.peek()
    if trailing.kind != "END":
        parser.fail(f"unexpected trailing input {trailing.value!r}", trailing)
    return result


def parse_grammar(text: str) -> Grammar:
    """Parse rule text into a Grammar; the alphabet is the rule order."""
    tokens = _tokenize(text, newline_sep=True)
    parser = _Parser(tokens, tuple(dict.fromkeys(
        tok.value for tok, nxt in zip(tokens, tokens[1:])
        if tok.kind == "NAME" and nxt.kind == "ARROW")))
    table: dict[str, MultiPoly] = {}
    while True:
        while parser.peek().kind == "SEP":
            parser.advance()
        if parser.peek().kind == "END":
            break
        lhs = parser.peek()
        if lhs.kind != "NAME":
            parser.fail(f"expected a letter to open a rule, found {lhs.value!r}")
        parser.advance()
        if parser.peek().kind != "ARROW":
            parser.fail("expected '->' after the rule letter")
        if lhs.value in table:
            parser.fail(f"duplicate rule for letter {lhs.value!r}", lhs)
        parser.advance()
        table[lhs.value] = parser.expression()
        nxt = parser.peek()
        if nxt.kind not in ("SEP", "END"):
            parser.fail(f"unexpected token {nxt.value!r} after rule body")
    if not table:
        parser.fail("no rules found")
    return Grammar(parser.letters, table)
