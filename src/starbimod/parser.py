"""Recursive-descent parser for algebra expressions over q, p, d, i.

Grammar (LL(1), juxtaposition is not multiplication):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ['-'] atom ('^' uint)?
    atom   := 'q' | 'p' | 'd' | 'i' | rational | '(' expr ')'

``p`` elaborates to -i*d, so every well-formed input lands in the
normal-ordered ambient algebra.  Errors carry the byte offset and the
token kinds that would have been accepted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import I, Scalar
from .errors import ParseError
from .weyl import WeylElement


class Token(NamedTuple):
    kind: str  # sym | number | op | lparen | rparen | end
    text: str
    offset: int


_SYMBOLS = {"q", "p", "d", "i"}
_OPS = set("+-*^")


def tokenize(src: str) -> list[Token]:
    out = []
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            out.append(Token("op", ch, pos))
            pos += 1
        elif ch == "(":
            out.append(Token("lparen", ch, pos))
            pos += 1
        elif ch == ")":
            out.append(Token("rparen", ch, pos))
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < n and src[pos].isdigit():
                pos += 1
            if pos < n and src[pos] == "/":
                mark = pos
                pos += 1
                if pos >= n or not src[pos].isdigit():
                    raise ParseError("expected digits after '/'", mark + 1, {"digit"})
                while pos < n and src[pos].isdigit():
                    pos += 1
                if int(src[mark + 1 : pos]) == 0:
                    raise ParseError("zero denominator", mark + 1, {"nonzero denominator"})
            out.append(Token("number", src[start:pos], start))
        elif ch.isalpha():
            if ch not in _SYMBOLS:
                raise ParseError(
                    f"unknown symbol {ch!r}", pos, {"q", "p", "d", "i"}
                )
            out.append(Token("sym", ch, pos))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", pos, set())
    out.append(Token("end", "", n))
    return out


_Q = WeylElement.q_power(1)
_D = WeylElement.d_power(1)
_P = WeylElement.p_generator()
_I = WeylElement.monomial(0, 0, I)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.current
        shown = tok.text or "end of input"
        raise ParseError(f"unexpected {shown!r}", tok.offset, expected)

    def parse_expr(self) -> WeylElement:
        value = self.parse_term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> WeylElement:
        value = self.parse_factor()
        while self.current.kind == "op" and self.current.text == "*":
            self.advance()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> WeylElement:
        negate = False
        if self.current.kind == "op" and self.current.text == "-":
            self.advance()
            negate = True
        value = self.parse_atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            tok = self.current
            if tok.kind != "number" or "/" in tok.text:
                self.fail({"nonnegative integer"})
            self.advance()
            value = value ** int(tok.text)
        return -value if negate else value

    def parse_atom(self) -> WeylElement:
        tok = self.current
        if tok.kind == "sym":
            self.advance()
            return {"q": _Q, "d": _D, "p": _P, "i": _I}[tok.text]
        if tok.kind == "number":
            self.advance()
            return WeylElement.monomial(0, 0, Scalar(Fraction(tok.text)))
        if tok.kind == "lparen":
            self.advance()
            value = self.parse_expr()
            if self.current.kind != "rparen":
                self.fail({")"})
            self.advance()
            return value
        self.fail({"q", "p", "d", "i", "number", "("})


def parse_expression(src: str) -> WeylElement:
    """Parse and normal-order an expression; total on well-formed input."""
    parser = _Parser(tokenize(src))
    value = parser.parse_expr()
    if parser.current.kind != "end":
        parser.fail({"+", "-", "*", "end of input"})
    return value
