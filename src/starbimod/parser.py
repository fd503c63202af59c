"""Recursive-descent parser for algebra expressions over q, p, d, i.

Grammar (LL(1), juxtaposition is not multiplication):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ['-'] atom ('^' uint)?
    atom   := 'q' | 'p' | 'd' | 'i' | rational | '(' expr ')'

``p`` elaborates to -i*d, so every well-formed input lands in the
normal-ordered ambient algebra.  Errors carry the offset of the offending
token, as an index into the source string (a code point, not a byte),
and the token kinds that would have been accepted.

A power may raise the degree of its base to at most ``MAX_EXPONENT``:
``x^n`` is refused when n times the larger of the q- and d-degree of x
exceeds it.  Measuring against the base's degree bounds nested powers
too, and a constant base counts as degree 1, so no exponent exceeds
``MAX_EXPONENT``.  A power of the generator ``q`` or ``d`` is read, once
those checks pass, from a table of the monomials q^0..q^MAX_EXPONENT and
d^0..d^MAX_EXPONENT built at import, so it builds no element per parse;
any other base, ``p`` and ``i`` among them, is raised by
square-and-multiply, in at most 2*floor(log2 n) products.

A product costs about one normal-ordering step per term pair, one term
of each factor, whatever the degree it reaches: the last squaring of
``(q+d+q*d)^64`` pairs two 1089-term elements.  So no product of the
parse, of a term or of a power, may pair more than ``MAX_TERM_PAIRS``
terms: the term counts of its factors are multiplied before the product
is formed, an O(1) check, and a product over the cap is refused at its
``*``, or at the exponent of the power whose squaring or step it is.
At the cap, the slowest product of two powers inside the degree and
digit caps takes about a second on a 2-vCPU host.  A pair costs more
when both factors reach a higher degree through chains of products, and
this cap does not bound that.

No number in a parsed expression has more than ``MAX_DIGITS`` decimal
digits, in a numerator or a denominator.  A longer literal is refused at
its offset, a longer sum or product at its operator, and a longer power
at its exponent.  ``x^n`` is refused before it is computed when n times
the bit length of the largest numerator or denominator of x exceeds the
bit length of 10^MAX_DIGITS.  This keeps every result well inside the
interpreter's limit on int-to-string conversion, so it can be printed.
Each sum, product and power is checked by one scan of its stored
numerators; the reduced coefficient parts are read only when that scan
reaches the cap.

Parentheses nest at most ``MAX_NESTING`` deep: each level costs a few
frames of the recursive descent, so a deeper ``(`` is refused at its
offset before the interpreter's recursion limit is reached.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .algebra import MAX_DIGITS, I, power
from .errors import ParseError
from .weyl import _ONE, P, WeylElement, _new


MAX_EXPONENT = 64
# term pairs of one product: two polynomials of degree MAX_EXPONENT in one
# monomial, 65 terms each, still multiply
MAX_TERM_PAIRS = (MAX_EXPONENT + 1) ** 2
MAX_NESTING = 100
_LIMIT = 10**MAX_DIGITS


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
        elif ch.isdecimal():
            start = pos
            pos = _digits_end(src, pos)
            if pos < n and src[pos] == "/":
                mark = pos
                pos += 1
                if pos >= n or not src[pos].isdecimal():
                    raise ParseError("expected digits after '/'", mark + 1, {"digit"})
                pos = _digits_end(src, pos)
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


def _digits_end(src: str, start: int) -> int:
    """End of the digit run at ``start``, refusing one above MAX_DIGITS."""
    pos = start
    while pos < len(src) and src[pos].isdecimal():
        pos += 1
    if pos - start > MAX_DIGITS:
        raise ParseError(
            f"number of {pos - start} digits exceeds the limit of {MAX_DIGITS}",
            start,
            {f"at most {MAX_DIGITS} digits"},
        )
    return pos


def _parts(value: WeylElement):
    for c in value.terms.values():
        for part in (c.re, c.im):
            yield abs(part.numerator)
            yield part.denominator


def _too_long(offset: int) -> ParseError:
    return ParseError(
        f"result has a number of more than {MAX_DIGITS} digits, exceeding the limit",
        offset,
        {f"numbers of at most {MAX_DIGITS} digits"},
    )


def _stored_max(value: WeylElement) -> int:
    """The largest stored numerator (in absolute value) or denominator.

    A reduced coefficient part is at most its stored numerator and divides
    the denominator, so no part exceeds this; the Scalar view of the parts
    is read only when this reaches a cap.
    """
    return max([value.den, *map(abs, chain.from_iterable(value.nums.values()))])


def exceeds_digits(value: WeylElement) -> bool:
    """Has a numerator or denominator of the value more than MAX_DIGITS digits?"""
    return _stored_max(value) >= _LIMIT and any(part >= _LIMIT for part in _parts(value))


def _check_size(value: WeylElement, offset: int) -> WeylElement:
    """Refuse a value with a numerator or denominator above MAX_DIGITS digits."""
    if exceeds_digits(value):
        raise _too_long(offset)
    return value


def _power_too_long(value: WeylElement, n: int) -> bool:
    """Does n times the largest bit length of a part exceed that of 10^MAX_DIGITS?"""
    cap = _LIMIT.bit_length()
    if n * _stored_max(value).bit_length() <= cap:
        return False
    return n * max((part.bit_length() for part in _parts(value)), default=0) > cap


def _product(u: WeylElement, v: WeylElement, offset: int) -> WeylElement:
    """u * v, refused at ``offset`` when it pairs more than MAX_TERM_PAIRS terms."""
    m, n = len(u.nums), len(v.nums)
    if m * n > MAX_TERM_PAIRS:
        raise ParseError(
            f"product of factors of {m} and {n} terms makes {m * n} term pairs, "
            f"exceeding the limit of {MAX_TERM_PAIRS}",
            offset,
            {f"at most {MAX_TERM_PAIRS} term pairs"},
        )
    return u * v


# q^0..q^MAX_EXPONENT and d^0..d^MAX_EXPONENT, built once; p = -i*d and i
# are raised by square-and-multiply: i^n is not a monomial in i
_GENERATOR_POWERS = {
    "q": tuple(WeylElement.monomial(n, 0) for n in range(MAX_EXPONENT + 1)),
    "d": tuple(WeylElement.monomial(0, n) for n in range(MAX_EXPONENT + 1)),
}
_ATOMS = {
    "q": _GENERATOR_POWERS["q"][1],
    "d": _GENERATOR_POWERS["d"][1],
    "p": P,
    "i": WeylElement.monomial(0, 0, I),
}


class _Parser:
    """Recursive descent over the token list.

    The lookahead is ``self.tokens[self.pos]``.  Only an operator token
    has the text "+", "-", "*" or "^", so a lookahead is matched on its
    text alone.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open at the current token

    def fail(self, expected):
        tok = self.tokens[self.pos]
        shown = tok.text or "end of input"
        raise ParseError(f"unexpected {shown!r}", tok.offset, expected)

    def parse_expr(self) -> WeylElement:
        tokens = self.tokens
        value = self.parse_term()
        while (op := tokens[self.pos]).text in ("+", "-"):
            self.pos += 1
            rhs = self.parse_term()
            value = _check_size(value + rhs if op.text == "+" else value - rhs, op.offset)
        return value

    def parse_term(self) -> WeylElement:
        tokens = self.tokens
        value = self.parse_factor()
        while (op := tokens[self.pos]).text == "*":
            self.pos += 1
            value = _check_size(_product(value, self.parse_factor(), op.offset), op.offset)
        return value

    def parse_factor(self) -> WeylElement:
        tokens = self.tokens
        negate = tokens[self.pos].text == "-"
        if negate:
            self.pos += 1
        base = tokens[self.pos].text
        value = self.parse_atom()
        if tokens[self.pos].text == "^":
            self.pos += 1
            tok = tokens[self.pos]
            if tok.kind != "number" or "/" in tok.text:
                self.fail({"nonnegative integer"})
            self.pos += 1
            n = int(tok.text)
            degree = max(value.max_q_degree, value.max_d_degree, 1)
            if n * degree > MAX_EXPONENT:
                raise ParseError(
                    f"power {n} of a degree-{degree} base exceeds the limit of "
                    f"{MAX_EXPONENT}",
                    tok.offset,
                    {f"exponent <= {MAX_EXPONENT // degree}"},
                )
            if _power_too_long(value, n):
                raise _too_long(tok.offset)
            powers = _GENERATOR_POWERS.get(base)
            if powers is None:
                at = tok.offset
                value = _check_size(power(value, n, _ONE, lambda u, v: _product(u, v, at)), at)
            else:
                # the degree check above bounds n by MAX_EXPONENT
                value = powers[n]
        return -value if negate else value

    def parse_atom(self) -> WeylElement:
        tok = self.tokens[self.pos]
        if tok.kind == "sym":
            self.pos += 1
            return _ATOMS[tok.text]
        if tok.kind == "number":
            self.pos += 1
            num, _, den = tok.text.partition("/")
            return _new([((0, 0), int(num), 0)], int(den or 1))
        if tok.kind == "lparen":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested more than {MAX_NESTING} deep",
                    tok.offset,
                    {f"at most {MAX_NESTING} nested '('"},
                )
            self.pos += 1
            self.depth += 1
            value = self.parse_expr()
            if self.tokens[self.pos].kind != "rparen":
                self.fail({")"})
            self.pos += 1
            self.depth -= 1
            return value
        self.fail({"q", "p", "d", "i", "number", "("})


def parse_expression(src: str) -> WeylElement:
    """Parse and normal-order an expression; total on well-formed input."""
    parser = _Parser(tokenize(src))
    value = parser.parse_expr()
    if parser.tokens[parser.pos].kind != "end":
        parser.fail({"+", "-", "*", "end of input"})
    return value
