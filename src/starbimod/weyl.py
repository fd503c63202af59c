"""The ambient noncommutative algebra: one pair of generators q, d with dq = qd + 1.

Elements are kept in normal-ordered form, all q powers to the left of all
d powers, as a map (m, n) -> coefficient for the monomial q^m d^n.  The
generator d is i*p for the hermitian generator p, so the single rewrite
rule has integer coefficients:

    d^n q^m = sum_k  C(n, k) * m!/(m-k)! * q^(m-k) d^(n-k).

``apply`` realises q^m d^n as the differential operator t^m (d/dt)^n acting
on polynomials; it is an independent model of the product and serves as
the soundness oracle for the rewriting.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm

from .algebra import I, ONE, Poly, Scalar, gauss_numerators


def _normal_dq(n: int, m: int):
    """Normal ordering of d^n q^m as ((m', n'), integer coefficient) pairs."""
    for k in range(min(n, m) + 1):
        yield (m - k, n - k), comb(n, k) * perm(m, k)


class WeylElement:
    """Normal-ordered element sum c_{mn} q^m d^n."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data: dict[tuple[int, int], Scalar] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (m, n), c in items:
            c = Scalar.coerce(c)
            if (m, n) in data:
                c = data[(m, n)] + c
            if c.is_zero():
                data.pop((m, n), None)
            else:
                data[(m, n)] = c
        object.__setattr__(self, "terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    @classmethod
    def zero(cls) -> "WeylElement":
        return cls()

    @classmethod
    def one(cls) -> "WeylElement":
        return cls({(0, 0): ONE})

    @classmethod
    def monomial(cls, m: int, n: int, coeff=ONE) -> "WeylElement":
        return cls({(m, n): Scalar.coerce(coeff)})

    @classmethod
    def q_power(cls, m: int) -> "WeylElement":
        return cls.monomial(m, 0)

    @classmethod
    def d_power(cls, n: int) -> "WeylElement":
        return cls.monomial(0, n)

    @classmethod
    def p_generator(cls) -> "WeylElement":
        """The hermitian generator p = -i*d."""
        return cls.monomial(0, 1, -I)

    @classmethod
    def from_poly(cls, p: Poly) -> "WeylElement":
        return cls({(m, 0): c for m, c in enumerate(p.coeffs) if not c.is_zero()})

    def coefficient(self, m: int, n: int) -> Scalar:
        return self.terms.get((m, n), Scalar(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def max_q_degree(self) -> int:
        return max((m for m, _ in self.terms), default=-1)

    @property
    def max_d_degree(self) -> int:
        return max((n for _, n in self.terms), default=-1)

    def d_profile(self) -> dict[int, Poly]:
        """Coefficient polynomial of each d power: n -> sum_m c_{mn} q^m."""
        out: dict[int, list] = {}
        for (m, n), c in self.terms.items():
            out.setdefault(n, []).append((m, c))
        profile = {}
        for n, pairs in out.items():
            top = max(m for m, _ in pairs)
            coeffs = [Scalar(0)] * (top + 1)
            for m, c in pairs:
                coeffs[m] = c
            profile[n] = Poly(coeffs)
        return profile

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return WeylElement(list(self.terms.items()) + list(other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return WeylElement({mn: -c for mn, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.coerce(other)
            return WeylElement({mn: v * c for mn, v in self.terms.items()})
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: list = []
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                c = c1 * c2
                for (mm, nn), k in _normal_dq(n1, m2):
                    acc.append(((m1 + mm, nn + n2), c * k))
        return WeylElement(acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self * other
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = WeylElement.one()
        for _ in range(n):
            out = out * self
        return out

    def involution(self) -> "WeylElement":
        """Antilinear involution with q^+ = q and d^+ = -d."""
        acc: list = []
        for (m, n), c in self.terms.items():
            cc = c.conjugate() * ((-1) ** n)
            for (mm, nn), k in _normal_dq(n, m):
                acc.append(((mm, nn), cc * k))
        return WeylElement(acc)

    def apply(self, p: Poly) -> Poly:
        """Act as a differential operator: q^m d^n maps p to t^m p^(n).

        The term c q^m d^n sends a t^j to c a j!/(j-n)! t^(j-n+m), so the
        image is built by shifting coefficient indices in one pass, on the
        numerators of p and of the term coefficients over one denominator.
        """
        [(cr, ci)], cd = gauss_numerators([self.terms.values()])
        ar, ai = p.re, p.im
        size = len(ar) + max((m - n for m, n in self.terms), default=0)
        out_re = [0] * size
        out_im = [0] * size
        for (m, n), tr, ti in zip(self.terms, cr, ci):
            for j in range(n, len(ar)):
                if ar[j] or ai[j]:
                    f, k = perm(j, n), j - n + m
                    out_re[k] += f * (tr * ar[j] - ti * ai[j])
                    out_im[k] += f * (tr * ai[j] + ti * ar[j])
        return Poly.from_numerators(out_re, out_im, p.den * cd)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # an element free of d equals its polynomial, so it must hash like it
        if self.max_d_degree <= 0:
            return hash(self.d_profile().get(0, Poly()))
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"WeylElement({dict(sorted(self.terms.items()))!r})"

    def __str__(self):
        return self.to_expression()

    def to_expression(self) -> str:
        """Canonical expression string, parseable by the expression grammar."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda mn: (mn[0] + mn[1], mn[0]), reverse=True)
        parts = [_term_expr(m, n, self.terms[(m, n)]) for m, n in keys]
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _coerce(value):
    if isinstance(value, WeylElement):
        return value
    if isinstance(value, (int, Fraction, Scalar)):
        return WeylElement({(0, 0): Scalar.coerce(value)})
    if isinstance(value, Poly):
        return WeylElement.from_poly(value)
    return NotImplemented


def _term_expr(m: int, n: int, c: Scalar) -> str:
    mono = "*".join(
        ([f"q^{m}" if m > 1 else "q"] if m else [])
        + ([f"d^{n}" if n > 1 else "d"] if n else [])
    )
    if not mono:
        if c.is_real():
            return str(c.re)
        if c.re == 0:
            im = c.im
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        return f"({_complex_expr(c)})"
    if c == ONE:
        return mono
    if c == -ONE:
        return f"-{mono}"
    if c.is_real():
        return f"{c.re}*{mono}"
    if c.re == 0:
        im = c.im
        if im == 1:
            return f"i*{mono}"
        if im == -1:
            return f"-i*{mono}"
        return f"{im}*i*{mono}"
    return f"({_complex_expr(c)})*{mono}"


def _complex_expr(c: Scalar) -> str:
    im = c.im
    if im == 1:
        tail = "i"
    elif im == -1:
        tail = "-i"
    else:
        tail = f"{im}*i"
    return f"{c.re} + {tail}" if not tail.startswith("-") else f"{c.re} - {tail[1:]}"


D = WeylElement.d_power(1)
P = WeylElement.p_generator()
