"""The ambient noncommutative algebra: one pair of generators q, d with dq = qd + 1.

Elements are kept in normal-ordered form, all q powers to the left of all
d powers.  Like a ``Poly``, an element is stored as Gaussian-integer
numerators over one denominator: ``nums`` maps (m, n) to the read-only
pair (re, im) of the coefficient (re + im*i) / den of q^m d^n, with
den > 0, gcd(den, every numerator) == 1 and no zero entry.  Every
operation runs on the integers and normalises its result once; ``terms``
is a Scalar view built per read.  An element is built from its terms,
as ``monomial(m, n, c)``, or as ``from_profile`` of its d-profile (a
polynomial p is ``from_profile({0: p})``).  The generator d is i*p for the
hermitian generator p, ``P``, so the single rewrite rule has integer
coefficients:

    d^n q^m = sum_k  C(n, k) * m!/(m-k)! * q^(m-k) d^(n-k).

``apply`` realises q^m d^n as the differential operator t^m (d/dt)^n acting
on polynomials; it is an independent model of the product and serves as
the soundness oracle for the rewriting.  It reads the terms grouped by
d-power from a cache that its first call fills; the cache is not part of
the value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm, perm
from types import MappingProxyType

from .algebra import I, ONE, Poly, Scalar, format_sum, gauss_numerators, gauss_scalar
from .algebra import power, power_text


def _normal_dq(n: int, m: int):
    """Normal ordering of d^n q^m as ((m', n'), integer coefficient) pairs."""
    for k in range(min(n, m) + 1):
        yield (m - k, n - k), comb(n, k) * perm(m, k)


class WeylElement:
    """Normal-ordered element sum c_{mn} q^m d^n."""

    # _groups caches the terms for apply; it is not part of the value
    __slots__ = ("nums", "den", "_groups")

    def __init__(self, terms=()):
        items = list(terms.items() if isinstance(terms, dict) else terms)
        if any(m < 0 or n < 0 for (m, n), _ in items):
            raise ValueError("negative power")
        [(re, im)], den = gauss_numerators([[Scalar.coerce(c) for _, c in items]])
        _store(self, (((m, n), a, b) for ((m, n), _), a, b in zip(items, re, im)), den)

    def __setattr__(self, name, value):
        raise AttributeError("WeylElement is immutable")

    def __reduce__(self):
        # the stored dict is a read-only view, which pickle cannot take
        return _new, ([(mn, a, b) for mn, (a, b) in self.nums.items()], self.den)

    @classmethod
    def monomial(cls, m: int, n: int, coeff=ONE) -> "WeylElement":
        """coeff * q^m d^n, for m, n >= 0."""
        if m < 0 or n < 0:
            raise ValueError("negative power")
        c = Scalar.coerce(coeff)
        return _new([((m, n), c.re_num, c.im_num)], c.den)

    @classmethod
    def from_profile(cls, profile: dict[int, Poly]) -> "WeylElement":
        """The element sum_n h_n(q) d^n of {n: h_n}, n >= 0; the inverse of ``d_profile``."""
        if any(n < 0 for n in profile):
            raise ValueError("negative power")
        den = lcm(*(h.den for h in profile.values()))
        triples = [
            ((m, n), den // h.den * a, den // h.den * b)
            for n, h in profile.items()
            for m, (a, b) in enumerate(zip(h.re, h.im))
        ]
        return _new(triples, den)

    @property
    def terms(self) -> dict[tuple[int, int], Scalar]:
        """The coefficients as Scalars, keyed by (m, n) (a new dict per read)."""
        den = self.den
        return {mn: gauss_scalar(a, b, den) for mn, (a, b) in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    @property
    def max_q_degree(self) -> int:
        return max((m for m, _ in self.nums), default=-1)

    @property
    def max_d_degree(self) -> int:
        return max((n for _, n in self.nums), default=-1)

    def d_profile(self) -> dict[int, Poly]:
        """Coefficient polynomial of each d power: n -> sum_m c_{mn} q^m."""
        out: dict[int, tuple[list, list]] = {}
        for (m, n), (a, b) in self.nums.items():
            re, im = out.setdefault(n, ([], []))
            if m >= len(re):
                re += [0] * (m + 1 - len(re))
                im += [0] * (m + 1 - len(im))
            re[m], im[m] = a, b
        return {n: Poly.from_numerators(*nums, self.den) for n, nums in out.items()}

    def _combine(self, other: "WeylElement", sign: int) -> "WeylElement":
        """self + sign * other over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        triples = [(mn, f * a, f * b) for mn, (a, b) in self.nums.items()]
        triples += [(mn, g * a, g * b) for mn, (a, b) in other.nums.items()]
        return _new(triples, den)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _new(((mn, -a, -b) for mn, (a, b) in self.nums.items()), self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        triples = []
        for (m1, n1), (a1, b1) in self.nums.items():
            for (m2, n2), (a2, b2) in other.nums.items():
                cr, ci = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                if n1 and m2:
                    for (mm, nn), k in _normal_dq(n1, m2):
                        triples.append(((m1 + mm, nn + n2), k * cr, k * ci))
                else:
                    # q^m1 d^n1 q^m2 d^n2 is already normal-ordered
                    triples.append(((m1 + m2, n1 + n2), cr, ci))
        return _new(triples, self.den * other.den)

    def __rmul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, n: int):
        return power(self, n, _ONE, WeylElement.__mul__)

    def involution(self) -> "WeylElement":
        """Antilinear involution with q^+ = q and d^+ = -d."""
        triples = []
        for (m, n), (a, b) in self.nums.items():
            s = (-1) ** n
            triples += [(mn, s * k * a, -s * k * b) for mn, k in _normal_dq(n, m)]
        return _new(triples, self.den)

    def apply(self, p) -> Poly:
        """Act as a differential operator: q^m d^n maps p to t^m p^(n).

        The term c q^m d^n sends a t^j to c a j!/(j-n)! t^(j-n+m), so the
        image is built by shifting coefficient indices in one pass, on the
        numerators of p and of the element.  The terms are read grouped by
        d-power n, ascending, as (m - n, re, im) triples: the first apply
        fills them into a cache that is not part of the value, so ``==``,
        ``hash``, copy and pickle ignore it.  The loop visits only the
        nonzero coefficients t^j of p; it takes j!/(j-n)! once per group
        and stops at the first group with n > j.  A real coefficient
        (every one of q^k) costs two products per term, not the four of a
        Gaussian one.  A scalar p acts as the constant polynomial.  This
        is the oracle for the product, and it shares no code with
        ``__mul__`` or ``_normal_dq``.
        """
        if not isinstance(p, Poly):
            p = Poly.coerce(p)
        try:
            groups, reach = self._groups
        except AttributeError:
            groups, reach = _fill_groups(self)
        re, im = p.re, p.im
        # the image has degree at most deg p + reach; a negative length gives []
        out_re = [0] * (len(re) + reach)
        out_im = out_re[:]
        for j, a in enumerate(re):
            b = im[j]
            if b:
                for n, group in groups:
                    if j < n:
                        break
                    f = perm(j, n)
                    fa, fb = f * a, f * b
                    for s, tr, ti in group:
                        k = j + s
                        out_re[k] += tr * fa - ti * fb
                        out_im[k] += tr * fb + ti * fa
            elif a:
                for n, group in groups:
                    if j < n:
                        break
                    fa = perm(j, n) * a
                    for s, tr, ti in group:
                        k = j + s
                        out_re[k] += fa * tr
                        out_im[k] += fa * ti
        return Poly.from_numerators(out_re, out_im, p.den * self.den)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # an element free of d equals its polynomial, so it must hash like it
        if self.max_d_degree <= 0:
            return hash(self.d_profile().get(0, Poly()))
        return hash((frozenset(self.nums.items()), self.den))

    def __repr__(self):
        return f"WeylElement({dict(sorted(self.terms.items()))!r})"

    def __str__(self):
        return self.to_expression()

    def to_expression(self) -> str:
        """Canonical expression string, parseable by the expression grammar."""
        terms = self.terms
        keys = sorted(terms, key=lambda mn: (mn[0] + mn[1], mn[0]), reverse=True)
        return format_sum(
            ("*".join(filter(None, (power_text("q", m), power_text("d", n)))), terms[(m, n)])
            for m, n in keys
        )


def _store(u: WeylElement, triples, den: int) -> None:
    """Set u to the sum of the ((m, n), re, im) triples over den; one gcd."""
    acc: dict = {}
    for mn, a, b in triples:
        c = acc.get(mn)
        if c is None:
            acc[mn] = [a, b]
        else:
            c[0] += a
            c[1] += b
    # over den 1 there is nothing to reduce
    g = gcd(den, *chain.from_iterable(acc.values())) if den != 1 else 1
    if g == 1:
        nums = {mn: (a, b) for mn, (a, b) in acc.items() if a or b}
    else:
        nums = {mn: (a // g, b // g) for mn, (a, b) in acc.items() if a or b}
        den //= g
    _set_nums(u, MappingProxyType(nums))
    _set_den(u, den)


# WeylElement's slot setters, past the immutable __setattr__
_set_nums = WeylElement.nums.__set__
_set_den = WeylElement.den.__set__
_set_groups = WeylElement._groups.__set__


def _fill_groups(u: WeylElement):
    """Cache and return u's terms for ``apply``: (groups, reach).

    groups holds (n, ((m - n, re, im), ...)) for each d-power n of u,
    ascending, and reach is the largest shift m - n (0 for zero).
    """
    by_n: dict = {}
    for (m, n), (a, b) in u.nums.items():
        by_n.setdefault(n, []).append((m - n, a, b))
    groups = tuple([(n, tuple(by_n[n])) for n in sorted(by_n)])
    reach = max([m - n for m, n in u.nums], default=0)
    _set_groups(u, (groups, reach))
    return groups, reach


def _new(triples, den: int) -> WeylElement:
    u = object.__new__(WeylElement)
    _store(u, triples, den)
    return u


def _coerce(value):
    if isinstance(value, WeylElement):
        return value
    if isinstance(value, (int, Fraction, Scalar)):
        return WeylElement({(0, 0): value})
    if isinstance(value, Poly):
        return WeylElement.from_profile({0: value})
    return NotImplemented


_ONE = WeylElement.monomial(0, 0)
P = WeylElement.monomial(0, 1, -I)  # the hermitian generator p = -i*d
