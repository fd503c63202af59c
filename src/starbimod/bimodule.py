"""Concrete *-bimodules over C[q].

Two generators are supported.  ``Generator.D2`` is the span of a*d^2*b
inside the Weyl algebra; an element is stored as its list of (a, b) pairs
and classified, completely, by its coefficient triple

    (h0, h1, h2) = (sum a_j b_j, sum a_j b_j', sum a_j b_j''),

which is exactly the data of its normal-ordered embedding
h0*d^2 + 2*h1*d + h2.  ``Generator.GAUSS`` is the span of w(q)*exp(-q^2);
since the weight commutes with everything, the canonical form is the
single polynomial factor.

The order-lowering map sends a*d^2*b to i*a*d*b.  The factor i (rather
than the sign-only variant) is what makes the map compatible with the
involutions on both sides, given d^+ = -d, and it reproduces the value
1/2 * identity for the image of the hermitian generator p under the
composed position/derivative representation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .algebra import I, P_ONE, Poly, Q, Scalar, sum_of_products
from .errors import NotHermitianError, TagMismatchError
from .weyl import WeylElement


class Generator(Enum):
    """Distinguished generator of the bimodule."""

    D2 = "d2"
    GAUSS = "gauss"


class BimodElement:
    """Finite sum of a_j * g * b_j over the generator g of the tag."""

    __slots__ = ("tag", "terms")

    def __init__(self, tag: Generator, terms=()):
        pairs = []
        for a, b in terms:
            a = Poly.coerce(a)
            b = Poly.coerce(b)
            if a.is_zero() or b.is_zero():
                continue
            pairs.append((a, b))
        if tag is Generator.GAUSS and pairs:
            # the weight commutes: a * g * b = g * (a*b)
            (total,) = sum_of_products(pairs)
            pairs = [(P_ONE, total)] if total else []
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "terms", tuple(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("BimodElement is immutable")

    @classmethod
    def zero(cls, tag: Generator = Generator.D2) -> "BimodElement":
        return cls(tag)

    @classmethod
    def d_squared(cls) -> "BimodElement":
        return cls(Generator.D2, [(P_ONE, P_ONE)])

    @classmethod
    def gauss(cls, p) -> "BimodElement":
        """The element p(q) * exp(-q^2)."""
        return cls(Generator.GAUSS, [(P_ONE, Poly.coerce(p))])

    @classmethod
    def from_weyl(cls, u: WeylElement) -> "BimodElement":
        """Rebuild a D2 element from a normal-ordered value with d-degree <= 2.

        The target triple (t0, t1, t2) is realised by explicit pairs; any
        such triple is reachable, so membership only constrains the
        d-degree.
        """
        if u.max_d_degree > 2:
            raise ValueError(
                f"d-degree {u.max_d_degree} exceeds 2; not in the d^2 span"
            )
        profile = u.d_profile()
        t0 = profile.get(2, Poly())
        t1 = profile.get(1, Poly()) * Fraction(1, 2)
        t2 = profile.get(0, Poly())
        pairs = [(t0, P_ONE)]
        # (0, t1, 0) = t1*g*q - (t1*q)*g*1
        pairs += [(t1, Q), (-(t1 * Q), P_ONE)]
        # (0, 0, t2) = (t2/2)*g*q^2 - (t2*q)*g*q + (t2*q^2/2)*g*1
        half = Fraction(1, 2)
        pairs += [
            (t2 * half, Q * Q),
            (-(t2 * Q), Q),
            (t2 * Q * Q * half, P_ONE),
        ]
        return cls(Generator.D2, pairs)

    def _require(self, tag: Generator, what: str):
        if self.tag is not tag:
            raise TagMismatchError(f"{what} needs a {tag.value} element")

    def act(self, a, b) -> "BimodElement":
        """The two-sided action a * x * b, termwise on the pairs."""
        a = Poly.coerce(a)
        b = Poly.coerce(b)
        return BimodElement(self.tag, [(a * aj, bj * b) for aj, bj in self.terms])

    def involution(self) -> "BimodElement":
        """(a * g * b)^+ = b^+ * g * a^+; both generators are hermitian."""
        return BimodElement(
            self.tag, [(b.conjugate(), a.conjugate()) for a, b in self.terms]
        )

    def __add__(self, other):
        if not isinstance(other, BimodElement):
            return NotImplemented
        if self.tag is not other.tag:
            raise TagMismatchError("cannot add elements over different generators")
        return BimodElement(self.tag, self.terms + other.terms)

    def __sub__(self, other):
        if not isinstance(other, BimodElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BimodElement(self.tag, [(-a, b) for a, b in self.terms])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.coerce(other)
            return BimodElement(self.tag, [(a * c, b) for a, b in self.terms])
        return NotImplemented

    __rmul__ = __mul__

    def triple(self) -> tuple[Poly, Poly, Poly]:
        """Classifying triple (sum a b, sum a b', sum a b'') of a D2 element."""
        self._require(Generator.D2, "coefficient triple")
        return sum_of_products(self.terms, derivatives=2)

    def gauss_poly(self) -> Poly:
        """Canonical polynomial factor of a GAUSS element."""
        self._require(Generator.GAUSS, "canonical weight polynomial")
        return self.terms[0][1] if self.terms else Poly()

    def equivalent(self, other: "BimodElement") -> bool:
        """Semantic equality inside the bimodule."""
        if not isinstance(other, BimodElement):
            raise TypeError("can only compare BimodElement values")
        if self.tag is not other.tag:
            raise TagMismatchError("cannot compare elements over different generators")
        if self.tag is Generator.D2:
            return self.triple() == other.triple()
        return self.gauss_poly() == other.gauss_poly()

    def is_zero(self) -> bool:
        if self.tag is Generator.D2:
            return all(h.is_zero() for h in self.triple())
        return self.gauss_poly().is_zero()

    def is_hermitian(self) -> bool:
        return self.equivalent(self.involution())

    def weyl(self) -> WeylElement:
        """Normal-ordered embedding of a D2 element: h0*d^2 + 2*h1*d + h2."""
        h0, h1, h2 = self.triple()
        acc: list = []
        for m, c in enumerate(h0.coeffs):
            acc.append(((m, 2), c))
        for m, c in enumerate(h1.coeffs):
            acc.append(((m, 1), c * 2))
        for m, c in enumerate(h2.coeffs):
            acc.append(((m, 0), c))
        return WeylElement(acc)

    def weyl_by_products(self) -> WeylElement:
        """Embedding computed term by term in the ambient algebra.

        Slower route used to cross-check ``weyl``; it multiplies out
        a * d^2 * b with the normal-ordering product.
        """
        self._require(Generator.D2, "ambient embedding")
        d2 = WeylElement.d_power(2)
        out = WeylElement.zero()
        for a, b in self.terms:
            out = out + WeylElement.from_poly(a) * d2 * WeylElement.from_poly(b)
        return out

    def theta_map(self) -> WeylElement:
        """Order-lowering homomorphism: i*(h0*d + h1) from the triple."""
        h0, h1, _ = self.triple()
        acc: list = []
        for m, c in enumerate(h0.coeffs):
            acc.append(((m, 1), c * I))
        for m, c in enumerate(h1.coeffs):
            acc.append(((m, 0), c * I))
        return WeylElement(acc)

    def schrodinger_table(self, degree: int) -> list[Poly]:
        """Image polynomials of the monomials q^0..q^degree under the
        position/derivative representation of the lowered element."""
        image = self.theta_map()
        return [image.apply(Poly.monomial(k)) for k in range(degree + 1)]

    def __repr__(self):
        body = ", ".join(f"({a!r}, {b!r})" for a, b in self.terms)
        return f"BimodElement({self.tag!r}, [{body}])"

    def to_json(self) -> dict:
        return {
            "tag": self.tag.value,
            "terms": [[a.coeff_strings(), b.coeff_strings()] for a, b in self.terms],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BimodElement":
        tag = Generator(data["tag"])
        terms = [
            (Poly.from_coeff_strings(a), Poly.from_coeff_strings(b))
            for a, b in data["terms"]
        ]
        return cls(tag, terms)


def verify_quadratic_certificate(target: BimodElement, certificate) -> bool:
    """Check that sum_j a_j^+ * y_j * a_j equals the target.

    Every y_j must be hermitian; a true result witnesses that the target
    lies in the quadratic module generated by the y_j.
    """
    total = BimodElement.zero(target.tag)
    for a, y in certificate:
        a = Poly.coerce(a)
        if y.tag is not target.tag:
            raise TagMismatchError("certificate generator over a different tag")
        if not y.is_hermitian():
            raise NotHermitianError("certificate generator is not hermitian")
        total = total + y.act(a.conjugate(), a)
    return total.equivalent(target)
