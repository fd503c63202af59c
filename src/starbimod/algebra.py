"""Exact coefficient arithmetic: Gaussian rationals and polynomials in q.

Everything here is exact.  A ``Scalar`` is a complex number with rational
real and imaginary parts (``fractions.Fraction`` keeps them reduced with
positive denominators).  A ``Poly`` is a dense univariate polynomial in
the hermitian generator q, stored as Gaussian-integer numerators over one
denominator, ``(re, im, den)`` with coefficient k equal to
(re[k] + im[k]*i) / den, in canonical form: den > 0, gcd(den, *re, *im)
== 1, and no trailing zero coefficient; the zero polynomial is
((), (), 1).  Equality and hashing are structural on that form.

Every Poly operation runs on the numerators and normalises its result
once: sums and differences over the lcm of the two denominators, scalar
products, the conjugate (negate ``im``), derivatives, Horner evaluation
at a rational or Gaussian point, and ``sum_of_products``, which brings
the left and the right factors each to a common denominator by integer
rescaling and accumulates, in plain ints, sum_j u_j * v_j^(r) for each
derivative order r it is asked for: the d^2 coefficient triple is its
orders 0, 1, 2, and a functional F_t reads order t alone.
``Poly.__mul__`` convolves its one pair directly, over the product of the
two canonical denominators, and a zero or a unit factor costs it no
product.

Scalars meet numerators only at the boundaries: ``Poly(seq)`` and
``gauss_numerators`` convert Scalars in, over the lcm of their
denominators; ``Poly.coeffs``, ``coefficient`` and ``gauss_scalar``
build reduced Scalars out, for the parser, JSON, text and ``Matrix``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from math import gcd, lcm, perm
from operator import mul

from .errors import ParseError

_RAT = r"-?\d+(?:/0*[1-9]\d*)?"  # no zero denominator
_RAT_RE = re.compile(rf"^{_RAT}$")
_DIGITS_RE = re.compile(r"\d+")
MAX_DIGITS = 1000  # digits of a literal's or a parsed number's numerator or denominator


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RAT_RE.match(value):
            raise ParseError(f"not a rational literal: {value!r}", 0)
        return Fraction(value)
    raise TypeError(f"cannot build a rational from {type(value).__name__}")


class Scalar:
    """A Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    def __add__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.re * other, self.im * other)
        if isinstance(other, Scalar):
            return Scalar(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real Scalar equals its rational part, so it must hash like it
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def format_scalar(z: Scalar) -> str:
    """Render per the literal grammar: ``<rat>`` | ``<rat>i`` | ``<rat>+<rat>i``."""
    if z.im == 0:
        return str(z.re)
    if z.re == 0:
        return f"{z.im}i"
    return f"{z.re}+{z.im}i"


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar literal grammar.

    Accepts the emitted form (``2+-3i``) and the tolerant variant ``2-3i``,
    with no number of more than ``MAX_DIGITS`` digits.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a scalar literal string, got {text!r}", 0)
    s = text.strip()
    longest = max(map(len, _DIGITS_RE.findall(s)), default=0)
    if longest > MAX_DIGITS:
        raise ParseError(f"number of {longest} digits exceeds the limit of {MAX_DIGITS}", 0)
    if _RAT_RE.match(s):
        return Scalar(Fraction(s))
    if not s.endswith("i"):
        raise ParseError(f"bad scalar literal: {text!r}", 0)
    body = s[:-1]
    if _RAT_RE.match(body):
        return Scalar(0, Fraction(body))
    # combined form: <rat> then a sign then <rat>
    for idx in range(1, len(body)):
        if body[idx] in "+-" and body[idx - 1].isdigit():
            re_part, sign, im_part = body[:idx], body[idx], body[idx + 1 :]
            if _RAT_RE.match(re_part) and _RAT_RE.match(im_part):
                im = Fraction(im_part)
                return Scalar(Fraction(re_part), im if sign == "+" else -im)
            break
    raise ParseError(f"bad scalar literal: {text!r}", 0)


def parse_real(text: str) -> Fraction:
    """Parse a scalar literal that must be real."""
    z = parse_scalar(text)
    if not z.is_real():
        raise ParseError(f"expected a real literal: {text!r}", 0)
    return z.re


class Poly:
    """Polynomial in q with Gaussian-rational coefficients, in canonical form.

    Stored as Gaussian-integer numerators over one denominator: the
    coefficient of q^k is (re[k] + im[k]*i) / den, with den > 0,
    gcd(den, *re, *im) == 1 and no trailing zero coefficient.  The zero
    polynomial is ((), (), 1).
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, coeffs=()):
        [(re, im)], den = gauss_numerators([[Scalar.coerce(c) for c in coeffs]])
        _store(self, re, im, den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_numerators(cls, re, im, den: int) -> "Poly":
        """The polynomial with coefficients (re[k] + im[k]*i) / den, den > 0."""
        p = object.__new__(cls)
        _store(p, re, im, den)
        return p

    @classmethod
    def monomial(cls, power: int, coeff=ONE) -> "Poly":
        cr, ci, cd = (1, 0, 1) if coeff is ONE else _parts(Scalar.coerce(coeff))
        if not (cr or ci):
            return cls()
        pad = (0,) * power
        return cls.from_numerators(pad + (cr,), pad + (ci,), cd)

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls.monomial(0, value)

    @staticmethod
    def coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction, Scalar)):
            return Poly.constant(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Poly")

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coefficients as Scalars, from q^0 up (a view, built per call)."""
        den = self.den
        return tuple([gauss_scalar(a, b, den) for a, b in zip(self.re, self.im)])

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.re) - 1

    def is_zero(self) -> bool:
        return not self.re

    def __bool__(self):
        return bool(self.re)

    def is_one(self) -> bool:
        """True for the constant polynomial 1."""
        return self.den == 1 and self.re == (1,) and self.im == (0,)

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self.re):
            return gauss_scalar(self.re[k], self.im[k], self.den)
        return ZERO

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        n = max(len(self.re), len(other.re))
        pad = [0] * (n - len(self.re))
        re = [f * c for c in self.re] + pad
        im = [f * c for c in self.im] + pad
        for k, (a, b) in enumerate(zip(other.re, other.im)):
            re[k] += g * a
            im[k] += g * b
        return Poly.from_numerators(re, im, den)

    def __add__(self, other):
        if not isinstance(other, (Poly, int, Fraction, Scalar)):
            return NotImplemented
        return self._combine(Poly.coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Poly, int, Fraction, Scalar)):
            return NotImplemented
        return self._combine(Poly.coerce(other), -1)

    def __rsub__(self, other):
        if not isinstance(other, (Poly, int, Fraction, Scalar)):
            return NotImplemented
        return Poly.coerce(other) - self

    def __neg__(self):
        return Poly.from_numerators(
            [-c for c in self.re], [-c for c in self.im], self.den
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            cr, ci, cd = _parts(Scalar.coerce(other))
            return Poly.from_numerators(
                [a * cr - b * ci for a, b in zip(self.re, self.im)],
                [a * ci + b * cr for a, b in zip(self.re, self.im)],
                self.den * cd,
            )
        if not isinstance(other, Poly):
            return NotImplemented
        # a zero or a unit factor costs no product
        if not self.re or other.is_one():
            return self
        if not other.re or self.is_one():
            return other
        # both factors are canonical, so the product is over den * den as it is
        size = len(self.re) + len(other.re) - 1
        acc_re = [0] * size
        acc_im = [0] * size
        _convolve_into(acc_re, acc_im, self.re, self.im, other.re, other.im)
        return Poly.from_numerators(acc_re, acc_im, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, P_ONE)

    def conjugate(self) -> "Poly":
        """The involution of C[q]: conjugate coefficients, q fixed."""
        return Poly.from_numerators(self.re, [-c for c in self.im], self.den)

    def derivative(self, order: int = 1) -> "Poly":
        if order < 0:
            raise ValueError("negative derivative order")
        ks = range(order, len(self.re))
        return Poly.from_numerators(
            [perm(k, order) * self.re[k] for k in ks],
            [perm(k, order) * self.im[k] for k in ks],
            self.den,
        )

    def __call__(self, point) -> Scalar:
        """Horner evaluation at an exact point, in integers.

        With the point (a + b*i) / e and n the degree, the sum
        sum_k c_k (a + b*i)^k e^(n-k) is accumulated homogeneously and
        divided by den * e^n once.
        """
        if not self.re:
            return ZERO
        a, b, e = _parts(Scalar.coerce(point))
        acc_re, acc_im = self.re[-1], self.im[-1]
        scale = 1
        for cr, ci in zip(reversed(self.re[:-1]), reversed(self.im[:-1])):
            scale *= e
            acc_re, acc_im = (
                acc_re * a - acc_im * b + cr * scale,
                acc_re * b + acc_im * a + ci * scale,
            )
        return gauss_scalar(acc_re, acc_im, self.den * scale)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        # a constant equals its coefficient (and the zero polynomial 0)
        if len(self.re) <= 1:
            return hash(self.coefficient(0))
        return hash((self.re, self.im, self.den))

    def coeff_strings(self) -> list[str]:
        """Coefficient list in the scalar literal grammar (JSON form)."""
        return [format_scalar(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items) -> "Poly":
        return cls([parse_scalar(s) for s in items])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        """The polynomial in the expression grammar, highest power first."""
        terms = [(power_text("q", k), c) for k, c in enumerate(self.coeffs) if c]
        return format_sum(reversed(terms))


def power_text(var: str, k: int) -> str:
    """``var^k`` in the expression grammar: "" for k = 0, ``var`` for k = 1."""
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def format_sum(terms) -> str:
    """The sum of (monomial text, nonzero Scalar) terms in the expression grammar.

    Terms are joined in the given order and a leading minus becomes the
    joining sign; the empty sum is "0".  Both ``Poly`` and
    ``WeylElement`` print through here, so the parser reads either back.
    """
    parts = [_term_expr(mono, c) for mono, c in terms]
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _term_expr(mono: str, c: Scalar) -> str:
    im = "i" if c.im == 1 else "-i" if c.im == -1 else f"{c.im}*i"
    if c.re and c.im:
        coeff = f"({c.re} - {im[1:]})" if im.startswith("-") else f"({c.re} + {im})"
    else:
        coeff = im if c.im else str(c.re)
    if not mono:
        return coeff
    if coeff in ("1", "-1"):
        return coeff[:-1] + mono
    return f"{coeff}*{mono}"


def _store(p: Poly, re, im, den: int) -> None:
    """Set p to (re + im*i) / den in canonical form: one gcd, no trailing zeros."""
    n = len(re)
    while n and not (re[n - 1] or im[n - 1]):
        n -= 1
    # tuples are built from lists: a tuple fed by a generator is resized
    # into place, which bypasses and overfills the tuple free lists
    re, im = tuple(re[:n]), tuple(im[:n])
    g = gcd(den, *re, *im)
    if g != 1:
        re = tuple([c // g for c in re])
        im = tuple([c // g for c in im])
        den //= g
    object.__setattr__(p, "re", re)
    object.__setattr__(p, "im", im)
    object.__setattr__(p, "den", den)


def _parts(c: Scalar) -> tuple[int, int, int]:
    """(re, im, den) with c == (re + im*i) / den and den the lcm of its parts'."""
    rd, id_ = c.re.denominator, c.im.denominator
    den = rd if rd == id_ else lcm(rd, id_)
    return c.re.numerator * (den // rd), c.im.numerator * (den // id_), den


P_ONE = Poly.constant(1)
Q = Poly.monomial(1)


def gauss_numerators(seqs):
    """Gaussian-integer numerators of Scalar sequences over one denominator.

    Returns ``(nums, den)``: ``den`` is the least common denominator of
    every real and imaginary part, and ``nums`` holds one ``(re, im)``
    pair of int lists per sequence, with ``seq[k] == (re[k] + im[k]*i) / den``.
    """
    dens = {c.re.denominator for seq in seqs for c in seq}
    dens.update(c.im.denominator for seq in seqs for c in seq)
    den = lcm(*dens)
    nums = [
        (
            [c.re.numerator * (den // c.re.denominator) for c in seq],
            [c.im.numerator * (den // c.im.denominator) for c in seq],
        )
        for seq in seqs
    ]
    return nums, den


def gauss_scalar(re: int, im: int, den: int) -> Scalar:
    """The Scalar (re + im*i) / den, each part reduced once."""
    return Scalar(_over(re, den), _over(im, den))


def _over(n: int, den: int) -> Fraction:
    # Fraction(n) skips the gcd, which n/1 and 0/den do not need
    return Fraction(n) if den == 1 or not n else Fraction(n, den)


def gauss_dot(ar, ai, br, bi) -> tuple[int, int]:
    """(re, im) of sum_k a_k b_k for Gaussian integers a = ar + ai*i, b = br + bi*i.

    The sum runs over the shorter of the two sequences.
    """
    return (
        sum(map(mul, ar, br)) - sum(map(mul, ai, bi)),
        sum(map(mul, ar, bi)) + sum(map(mul, ai, br)),
    )


def sum_of_products(pairs, orders=(0,)) -> tuple[Poly, ...]:
    """The sums sum_j u_j * v_j^(r) over (u_j, v_j), one per derivative order r.

    ``orders`` lists the derivative orders r ascending, and only those
    sums are formed: (0,) is sum_j u_j v_j, (0, 1, 2) the d^2 triple.
    The u_j are brought to the lcm of their denominators, and so are the
    v_j, by integer rescaling; the derivatives are taken step by step on
    the integer numerators, every sum is accumulated in ints, and each
    output is normalised once.  A single product goes to ``Poly.__mul__``,
    which needs none of that set-up and skips a unit factor.
    """
    pairs = [(u, v) for u, v in pairs if u.re and v.re]
    if len(pairs) == 1 and tuple(orders) == (0,):
        ((u, v),) = pairs
        return (u * v,)
    du = lcm(*(u.den for u, _ in pairs))
    dv = lcm(*(v.den for _, v in pairs))
    terms = [(_rescaled(u, du), _rescaled(v, dv)) for u, v in pairs]
    den = du * dv
    out = []
    at = 0
    for r in orders:
        for _ in range(r - at):
            # a v_j of degree below the order has no derivative left
            terms = [(u, (_derive(vr), _derive(vi))) for u, (vr, vi) in terms if len(vr) > 1]
        at = r
        size = max((len(ur) + len(vr) - 1 for (ur, _), (vr, _) in terms), default=0)
        acc_re = [0] * size
        acc_im = [0] * size
        for (ur, ui), (vr, vi) in terms:
            _convolve_into(acc_re, acc_im, ur, ui, vr, vi)
        out.append(Poly.from_numerators(acc_re, acc_im, den))
    return tuple(out)


def _rescaled(p: Poly, den: int):
    """The numerators of p over ``den``, a multiple of p.den."""
    f = den // p.den
    if f == 1:
        return p.re, p.im
    return [f * c for c in p.re], [f * c for c in p.im]


def _derive(cs: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(cs[1:], 1)]


def power(base, n: int, one):
    """base**n by square-and-multiply, ``one`` for n == 0: at most
    2*floor(log2 n) products, and no square beyond the last one the result needs."""
    if n < 0:
        raise ValueError("negative power")
    if not n:
        return one
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def _convolve_into(acc_re, acc_im, ur, ui, vr, vi) -> None:
    """acc += u * v on Gaussian-integer coefficient lists."""
    for j, (ar, ai) in enumerate(zip(ur, ui)):
        if ai:
            for k, br, bi in zip(count(j), vr, vi):
                acc_re[k] += ar * br - ai * bi
                acc_im[k] += ar * bi + ai * br
        elif ar:
            for k, br, bi in zip(count(j), vr, vi):
                acc_re[k] += ar * br
                acc_im[k] += ar * bi
