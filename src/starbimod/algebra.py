"""Exact coefficient arithmetic: Gaussian rationals and polynomials in q.

Everything here is exact.  A ``Scalar`` is a complex number with rational
real and imaginary parts (``fractions.Fraction`` keeps them reduced with
positive denominators), a ``Poly`` is a dense univariate polynomial in the
hermitian generator q with Scalar coefficients and no trailing zeros.

Products run in integers.  ``gauss_numerators`` writes a batch of Scalar
sequences as Gaussian-integer numerators (a real and an imaginary int
list) over one shared denominator, the lcm of all their denominators.
``sum_of_products`` accumulates sum_j u_j * v_j, and optionally the same
sums against the derivatives of the v_j, over a list of polynomial pairs
in plain ints, and ``gauss_scalar`` builds each output coefficient once
as a reduced Fraction pair.  ``Poly.__mul__`` is its one-pair case, the
d^2 coefficient triple its three fused sums, and ``Matrix.__matmul__``
takes integer dot products of rows and columns converted the same way.
The stored forms stay as above; no gcd is taken inside a product.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from math import lcm

from .errors import ParseError

_RAT = r"-?\d+(?:/0*[1-9]\d*)?"  # no zero denominator
_RAT_RE = re.compile(rf"^{_RAT}$")


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

    Accepts the emitted form (``2+-3i``) and the tolerant variant ``2-3i``.
    """
    s = text.strip()
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


class Poly:
    """Polynomial in q with Scalar coefficients, canonical (no trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Scalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def monomial(cls, power: int, coeff=ONE) -> "Poly":
        c = Scalar.coerce(coeff)
        if c.is_zero():
            return cls()
        return cls([ZERO] * power + [c])

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls([Scalar.coerce(value)])

    @staticmethod
    def coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction, Scalar)):
            return Poly.constant(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Poly")

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __add__(self, other):
        if not isinstance(other, (Poly, int, Fraction, Scalar)):
            return NotImplemented
        other = Poly.coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Poly, int, Fraction, Scalar)):
            return NotImplemented
        other = Poly.coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __rsub__(self, other):
        if not isinstance(other, (Poly, int, Fraction, Scalar)):
            return NotImplemented
        return Poly.coerce(other) - self

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return sum_of_products([(self, other)])[0]

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Poly":
        """The involution of C[q]: conjugate coefficients, q fixed."""
        return Poly([c.conjugate() for c in self.coeffs])

    def derivative(self, order: int = 1) -> "Poly":
        if order < 0:
            raise ValueError("negative derivative order")
        p = self
        for _ in range(order):
            p = Poly([p.coeffs[k] * k for k in range(1, len(p.coeffs))])
        return p

    def __call__(self, point) -> Scalar:
        """Horner evaluation at an exact point."""
        pt = Scalar.coerce(point)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * pt + c
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its coefficient (and the zero polynomial 0)
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def coeff_strings(self) -> list[str]:
        """Coefficient list in the scalar literal grammar (JSON form)."""
        return [format_scalar(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items) -> "Poly":
        return cls([parse_scalar(s) for s in items])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            mono = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
            if k == 0:
                body = format_scalar(c)
            elif c == ONE:
                body = mono
            elif c == -ONE:
                body = f"-{mono}"
            elif c.is_real() or c.re == 0:
                body = f"{format_scalar(c)}*{mono}"
            else:
                body = f"({format_scalar(c)})*{mono}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


P_ZERO = Poly()
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


def sum_of_products(pairs, derivatives: int = 0) -> tuple[Poly, ...]:
    """The sums sum_j u_j * v_j^(r) for r = 0..derivatives, over (u_j, v_j).

    The u_j share one denominator and the v_j another; the derivatives are
    taken on the integer numerators, every sum is accumulated in ints, and
    each output coefficient is reduced once.
    """
    pairs = [(u, v) for u, v in pairs if u.coeffs and v.coeffs]
    us, du = gauss_numerators([u.coeffs for u, _ in pairs])
    vs, dv = gauss_numerators([v.coeffs for _, v in pairs])
    size = max((len(u.coeffs) + len(v.coeffs) - 1 for u, v in pairs), default=0)
    den = du * dv
    out = []
    for r in range(derivatives + 1):
        if r:
            vs = [(_derive(vr), _derive(vi)) for vr, vi in vs]
        acc_re = [0] * size
        acc_im = [0] * size
        for (ur, ui), (vr, vi) in zip(us, vs):
            _convolve_into(acc_re, acc_im, ur, ui, vr, vi)
        out.append(Poly([gauss_scalar(x, y, den) for x, y in zip(acc_re, acc_im)]))
    return tuple(out)


def _derive(cs: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(cs[1:], 1)]


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
