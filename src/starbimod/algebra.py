"""Exact coefficient arithmetic: Gaussian rationals and polynomials in q.

Everything here is exact, and stored as Gaussian-integer numerators over
one denominator.  A ``Scalar`` is a complex number with rational real and
imaginary parts, held as three ints ``(re_num, im_num, den)`` with value
(re_num + im_num*i) / den, in canonical form: den > 0 and
gcd(re_num, im_num, den) == 1.  A ``Poly`` is a dense univariate
polynomial in the hermitian generator q, stored as ``(re, im, den)`` with
coefficient k equal to (re[k] + im[k]*i) / den, in canonical form: den > 0,
gcd(den, *re, *im) == 1, and no trailing zero coefficient; the zero
polynomial is ((), (), 1).  Equality and hashing are structural on both
forms.

Every Poly operation runs on the numerators and normalises its result
once: sums and differences over the lcm of the two denominators, scalar
products, derivatives, Horner evaluation at a rational or Gaussian
point, and ``sum_of_products``, which accumulates, in plain ints,
left * sum_j u_j * (v_j right)^(r) for each derivative order r it is
asked for: the d^2 coefficient triple is its orders 0, 1, 2, and a
functional F_t reads order t alone.  Each pair is convolved on its
stored numerators, with its share of the common denominator applied as
an integer scale inside the convolution; ``right`` multiplies each v_j
before the derivative, and ``left`` multiplies each order's sum once,
so the components of a * x * b come from x's pairs with no acted pair
built and one normalisation per order.  The conjugate negates ``im``,
which keeps the canonical form, so it takes no gcd.  ``Poly.__mul__``
and ``__eq__`` test for a Poly operand before the scalar types
(``Fraction`` is an ABC, so that test is the dear one); the product
convolves its one pair directly, over the product of the two canonical
denominators, and a zero or a unit factor costs it no product.  Every
convolution runs its outer loop over the shorter factor.

Scalar arithmetic runs on its three ints as well, and normalises each
result by one gcd in ``gauss_scalar``.  ``Poly(seq)`` and
``gauss_numerators`` bring Scalars to one denominator, the lcm of theirs;
``Poly.coeffs``, ``coefficient`` and ``gauss_scalar`` read a coefficient
out as a Scalar, with no reduction beyond that gcd.  ``Fraction`` meets
the numerators only at the boundaries: literals, which ``parse_scalar``
alone reads, and ``Fraction`` inputs come in through ``Scalar(re, im)``,
and ``Scalar.re``, ``Scalar.im`` and ``abs2`` hand reduced Fractions
out.  Text is printed from the ints.  Past this module a Fraction is
handed out only by an atomic measure's ``atoms`` view, the two sides of
a Cauchy-Schwarz report, the LDL pivots and the norm lemma's bounds, so
``gns-check`` and ``cs-check`` build no other.  A float, a ``Decimal`` or
a string is refused with TypeError wherever a rational is taken, atoms
and atom values included: text enters only through the literal grammar,
under its cap of ``MAX_DIGITS`` digits per number.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from math import gcd, lcm, perm

from .errors import ParseError

# <rat>, <rat>i or <rat>[+-]<rat>i, <rat> in decimal digits of any script;
# the sign takes its <rat> only before a final i
_RAT = r"-?\d+(?:/\d+)?"
_LITERAL_RE = re.compile(rf"({_RAT})(?:([+-])({_RAT})(?=i))?(i?)")
_DIGITS_RE = re.compile(r"\d+")
MAX_DIGITS = 1000  # digits of a literal's or a parsed number's numerator or denominator


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot build a rational from {type(value).__name__}")


class Immutable:
    """A base for the hand-slotted value types: no attribute is set after construction.

    Construction sets the slots through their descriptors or
    ``object.__setattr__``, which this method does not reach.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Scalar(Immutable):
    """A Gaussian rational (re_num + im_num*i) / den, stored as three ints.

    The form is canonical, as one ``Poly`` coefficient is: den > 0 and
    gcd(re_num, im_num, den) == 1, so equality is structural.  Arithmetic
    runs on the ints and normalises each result once.  ``.re`` and
    ``.im`` are read-only views, reduced ``Fraction``s built per read.
    """

    __slots__ = ("re_num", "im_num", "den")

    def __init__(self, re=0, im=0):
        (a, rd), (b, id_) = _ratio(re), _ratio(im)
        # both parts are reduced, so over the lcm of their denominators
        # the three ints have no common factor
        den = rd if rd == id_ else lcm(rd, id_)
        _set_re(self, a * (den // rd))
        _set_im(self, b * (den // id_))
        _set_den(self, den)

    def __reduce__(self):
        # copy and pickle rebuild from the canonical ints, not through __setattr__
        return gauss_scalar, (self.re_num, self.im_num, self.den)

    @property
    def re(self) -> Fraction:
        """The real part, a reduced Fraction built per read."""
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        """The imaginary part, a reduced Fraction built per read."""
        return Fraction(self.im_num, self.den)

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
        d, e = self.den, other.den
        return gauss_scalar(
            self.re_num * e + other.re_num * d, self.im_num * e + other.im_num * d, d * e
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self + -Scalar.coerce(other)

    def __rsub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        a, b, c, e = self.re_num, self.im_num, other.re_num, other.im_num
        return gauss_scalar(a * c - b * e, a * e + b * c, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        a, b, c, e = self.re_num, self.im_num, other.re_num, other.im_num
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero Scalar")
        # (a + b*i) / d over (c + e*i) / f is f (a + b*i)(c - e*i) / (d |c + e*i|^2)
        f = other.den
        return gauss_scalar(f * (a * c + b * e), f * (b * c - a * e), self.den * norm)

    def __rtruediv__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) / self

    def __neg__(self):
        return _canonical(-self.re_num, -self.im_num, self.den)

    def conjugate(self) -> "Scalar":
        return _canonical(self.re_num, -self.im_num, self.den)

    def abs2(self) -> Fraction:
        """|z|^2, exact."""
        return Fraction(self.re_num * self.re_num + self.im_num * self.im_num, self.den * self.den)

    def is_zero(self) -> bool:
        return not (self.re_num or self.im_num)

    def is_real(self) -> bool:
        return not self.im_num

    def __bool__(self):
        return bool(self.re_num or self.im_num)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (
                self.re_num == other.re_num
                and self.im_num == other.im_num
                and self.den == other.den
            )
        # a real canonical Scalar is re_num / den in lowest terms
        if isinstance(other, int):
            return not self.im_num and self.den == 1 and self.re_num == other
        if isinstance(other, Fraction):
            return (
                not self.im_num
                and self.den == other.denominator
                and self.re_num == other.numerator
            )
        return NotImplemented

    def __hash__(self):
        # a real Scalar equals its rational part, so it must hash like it
        if not self.im_num:
            return hash(self.re_num) if self.den == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        # int / int rounds correctly, as float(Fraction) does
        return complex(self.re_num / self.den, self.im_num / self.den)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


# the slots' own setters, past the immutable __setattr__
_set_re = Scalar.re_num.__set__
_set_im = Scalar.im_num.__set__
_set_den = Scalar.den.__set__


def _canonical(re: int, im: int, den: int) -> Scalar:
    """The Scalar of three ints already in canonical form."""
    z = object.__new__(Scalar)
    _set_re(z, re)
    _set_im(z, im)
    _set_den(z, den)
    return z


def gauss_scalar(re: int, im: int, den: int) -> Scalar:
    """The Scalar (re + im*i) / den, den > 0, brought to canonical form by one gcd."""
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            re //= g
            im //= g
            den //= g
    return _canonical(re, im, den)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def format_scalar(z: Scalar) -> str:
    """Render per the literal grammar: ``<rat>`` | ``<rat>i`` | ``<rat>+<rat>i``."""
    if not z.im_num:
        return _rat_text(z.re_num, z.den)
    if not z.re_num:
        return f"{_rat_text(z.im_num, z.den)}i"
    return f"{_rat_text(z.re_num, z.den)}+{_rat_text(z.im_num, z.den)}i"


def _rat_text(n: int, den: int) -> str:
    """``str(Fraction(n, den))`` for den > 0, reduced once from the ints."""
    if den == 1:
        return str(n)
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar literal grammar.

    Accepts the emitted form (``2+-3i``) and the tolerant variant ``2-3i``,
    with no number of more than ``MAX_DIGITS`` digits.  Whitespace around
    the literal is ignored; none may stand inside it.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a scalar literal string, got {text!r}", 0)
    s = text.strip()
    longest = max(map(len, _DIGITS_RE.findall(s)), default=0)
    if longest > MAX_DIGITS:
        raise ParseError(f"number of {longest} digits exceeds the limit of {MAX_DIGITS}", 0)
    match = _LITERAL_RE.fullmatch(s)
    try:
        if match:
            first, sign, second, imaginary = match.groups()
            if sign:
                im = Fraction(second)
                return Scalar(Fraction(first), im if sign == "+" else -im)
            return Scalar(0, Fraction(first)) if imaginary else Scalar(Fraction(first))
    except ZeroDivisionError:  # a zero denominator makes no literal
        pass
    raise ParseError(f"bad scalar literal: {text!r}", 0)


def parse_real(text: str) -> Fraction:
    """Parse a scalar literal that must be real."""
    z = parse_scalar(text)
    if not z.is_real():
        raise ParseError(f"expected a real literal: {text!r}", 0)
    return z.re


class Poly(Immutable):
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

    def __reduce__(self):
        return Poly.from_numerators, (self.re, self.im, self.den)

    @classmethod
    def from_numerators(cls, re, im, den: int) -> "Poly":
        """The polynomial with coefficients (re[k] + im[k]*i) / den, den > 0."""
        p = object.__new__(cls)
        _store(p, re, im, den)
        return p

    @classmethod
    def monomial(cls, power: int, coeff=ONE) -> "Poly":
        """coeff * q^power, for power >= 0.

        A Scalar is canonical, gcd(re_num, im_num, den) == 1, so its
        numerators padded with zeros below are the canonical form as they
        stand, and no gcd is taken.
        """
        if power < 0:
            raise ValueError("negative power")
        c = Scalar.coerce(coeff)
        if not c:
            return cls()
        pad = (0,) * power
        p = object.__new__(cls)
        _set_pre(p, pad + (c.re_num,))
        _set_pim(p, pad + (c.im_num,))
        _set_pden(p, c.den)
        return p

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
        # a Poly operand first: the ABC check for Fraction costs more than the product's set-up
        if isinstance(other, Poly):
            # a zero or a unit factor costs no product
            if not self.re or other.is_one():
                return self
            if not other.re or self.is_one():
                return other
            # both factors are canonical, so the product is over den * den as it is
            re, im = _product(self.re, self.im, other.re, other.im)
            return Poly.from_numerators(re, im, self.den * other.den)
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.coerce(other)
            cr, ci, cd = c.re_num, c.im_num, c.den
            return Poly.from_numerators(
                [a * cr - b * ci for a, b in zip(self.re, self.im)],
                [a * ci + b * cr for a, b in zip(self.re, self.im)],
                self.den * cd,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n, P_ONE, Poly.__mul__)

    def conjugate(self) -> "Poly":
        """The involution of C[q]: conjugate coefficients, q fixed.

        Negating ``im`` keeps den, the content gcd and the length, so the
        result is canonical as it stands and takes no gcd.
        """
        p = object.__new__(Poly)
        _set_pre(p, self.re)
        _set_pim(p, tuple([-c for c in self.im]))
        _set_pden(p, self.den)
        return p

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
        z = Scalar.coerce(point)
        a, b, e = z.re_num, z.im_num, z.den
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
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, Scalar)):
                return NotImplemented
            other = Poly.constant(other)
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
    a, b, den = c.re_num, c.im_num, c.den
    if b:
        im = "i" if b == den else "-i" if b == -den else f"{_rat_text(b, den)}*i"
        if a:
            re = _rat_text(a, den)
            coeff = f"({re} - {im[1:]})" if im.startswith("-") else f"({re} + {im})"
        else:
            coeff = im
    else:
        coeff = _rat_text(a, den)
    if not mono:
        return coeff
    if coeff in ("1", "-1"):
        return coeff[:-1] + mono
    return f"{coeff}*{mono}"


def _store(p: Poly, re, im, den: int) -> None:
    """Set p to (re + im*i) / den in canonical form: one gcd, no trailing zeros.

    ``re`` and ``im`` are int lists or tuples of one length.  Trailing
    zeros are trimmed first, so the gcd runs over the coefficients that
    stay; the lists are divided only when that gcd is not 1, and each
    stored tuple is built once.
    """
    n = len(re)
    while n and not (re[n - 1] or im[n - 1]):
        n -= 1
    if n != len(re):
        re, im = re[:n], im[:n]
    g = gcd(den, *re, *im)
    if g != 1:
        re = [c // g for c in re]
        im = [c // g for c in im]
        den //= g
    # tuples are built from lists: a tuple fed by a generator is resized
    # into place, which bypasses and overfills the tuple free lists
    _set_pre(p, tuple(re))
    _set_pim(p, tuple(im))
    _set_pden(p, den)


# Poly's slot setters, past the immutable __setattr__
_set_pre = Poly.re.__set__
_set_pim = Poly.im.__set__
_set_pden = Poly.den.__set__

P_ONE = Poly.constant(1)
Q = Poly.monomial(1)


def gauss_numerators(seqs):
    """Gaussian-integer numerators of Scalar sequences over one denominator.

    Returns ``(nums, den)``: ``den`` is the least common denominator of
    every real and imaginary part, and ``nums`` holds one ``(re, im)``
    pair of int lists per sequence, with ``seq[k] == (re[k] + im[k]*i) / den``.
    """
    den = lcm(*{c.den for seq in seqs for c in seq})
    nums = [
        (
            [c.re_num * (den // c.den) for c in seq],
            [c.im_num * (den // c.den) for c in seq],
        )
        for seq in seqs
    ]
    return nums, den


def sum_of_products(pairs, orders=(0,), left=P_ONE, right=P_ONE) -> tuple[Poly, ...]:
    """The sums left * sum_j u_j * (v_j right)^(r) over (u_j, v_j), one per derivative order r.

    ``orders`` lists the orders r ascending from 0 (else ValueError), and
    only those sums are formed: (0,) is sum_j u_j v_j, (0, 1, 2) the d^2
    triple.  The outer factors are shared by every pair, so the sums are
    those of the acted pairs (left u_j, v_j right); a unit factor costs
    no product, and a zero one leaves every sum zero.  Each pair
    keeps its stored numerators, and its scale L / (u_j.den * v_j.den),
    with L the lcm of those products, goes into its convolution.  ``left``
    multiplies each order's sum once, by bilinearity.  ``right`` multiplies
    each v_j before the derivative, and each acted right factor
    (v_j right)^(r) is differentiated, an order gap at a time: no Leibniz
    sum is formed, so the left route of ``check_identity`` shares none of
    theta's.  Every sum is accumulated in ints and normalised once.  A
    single product with unit outer factors goes to ``Poly.__mul__``.
    """
    if not (left.re and right.re):
        pairs = ()
    pairs = [(u, v) for u, v in pairs if u.re and v.re]
    by_left, by_right = not left.is_one(), not right.is_one()
    if len(pairs) == 1 and not (by_left or by_right) and tuple(orders) == (0,):
        ((u, v),) = pairs
        return (u * v,)
    den = lcm(*(u.den * v.den for u, v in pairs))
    terms = [(u, den // (u.den * v.den), v.re, v.im) for u, v in pairs]
    if by_right:
        terms = [(u, f, *_product(vr, vi, right.re, right.im)) for u, f, vr, vi in terms]
    den *= left.den * right.den
    out = []
    at = 0
    for r in orders:
        if r < at:
            raise ValueError(f"derivative orders must ascend from 0: {orders!r}")
        s, at = r - at, r
        if s:
            # a v_j of degree below the gap has no derivative left
            terms = [
                (u, f, [perm(k, s) * c for k, c in enumerate(vr[s:], s)],
                 [perm(k, s) * c for k, c in enumerate(vi[s:], s)])
                for u, f, vr, vi in terms if len(vr) > s
            ]
        size = max((len(u.re) + len(vr) - 1 for u, _, vr, _ in terms), default=0)
        acc_re = [0] * size
        acc_im = [0] * size
        for u, f, vr, vi in terms:
            _convolve_into(acc_re, acc_im, u.re, u.im, vr, vi, f)
        if by_left and size:
            acc_re, acc_im = _product(left.re, left.im, acc_re, acc_im)
        out.append(Poly.from_numerators(acc_re, acc_im, den))
    return tuple(out)


def _product(ur, ui, vr, vi):
    """The numerators of u * v, unnormalised, from those of two nonzero factors."""
    size = len(ur) + len(vr) - 1
    acc_re = [0] * size
    acc_im = [0] * size
    _convolve_into(acc_re, acc_im, ur, ui, vr, vi)
    return acc_re, acc_im


def power(base, n: int, one, mul):
    """base**n by square-and-multiply, ``one`` for n == 0: at most
    2*floor(log2 n) products ``mul(u, v)``, and no square beyond the last
    one the result needs."""
    if n < 0:
        raise ValueError("negative power")
    if not n:
        return one
    out = None
    while True:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if not n:
            return out
        base = mul(base, base)


def _convolve_into(acc_re, acc_im, ur, ui, vr, vi, f=1) -> None:
    """acc += f * u * v on Gaussian-integer coefficient lists.

    The integer scale f multiplies each outer coefficient once, so
    ``sum_of_products`` brings a pair to its common denominator with no
    rescaled copy.  The shorter factor drives the outer loop, so the
    fewest inner loops are set up.
    """
    if len(ur) > len(vr):
        ur, ui, vr, vi = vr, vi, ur, ui
    for j, (ar, ai) in enumerate(zip(ur, ui)):
        if ai:
            ar *= f
            ai *= f
            for k, br, bi in zip(count(j), vr, vi):
                acc_re[k] += ar * br - ai * bi
                acc_im[k] += ar * bi + ai * br
        elif ar:
            ar *= f
            for k, br, bi in zip(count(j), vr, vi):
                acc_re[k] += ar * br
                acc_im[k] += ar * bi
