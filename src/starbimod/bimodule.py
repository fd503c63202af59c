"""Concrete *-bimodules over C[q].

Two generators are supported.  ``Generator.D2`` is the span of a*d^2*b
inside the Weyl algebra; an element is stored as its list of (a, b) pairs
and classified, completely, by its coefficient triple

    (h0, h1, h2) = (sum a_j b_j, sum a_j b_j', sum a_j b_j''),

which is exactly the data of its normal-ordered embedding
h0*d^2 + 2*h1*d + h2.  ``Generator.GAUSS`` is the span of w(q)*exp(-q^2);
since the weight commutes with everything, the canonical form is the
single polynomial factor.  A ``BimodElement`` is a frozen slotted
dataclass of its tag and its canonical pairs, compared by identity:
``equivalent`` compares the classes.

The order-lowering map sends a*d^2*b to i*a*d*b.  The factor i (rather
than the sign-only variant) is what makes the map compatible with the
involutions on both sides, given d^+ = -d, and it reproduces the value
1/2 * identity for the image of the hermitian generator p under the
composed position/derivative representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .algebra import I, P_ONE, Poly, Q, Scalar, sum_of_products
from .errors import TagMismatchError
from .weyl import WeylElement


class Generator(Enum):
    """Distinguished generator of the bimodule."""

    D2 = "d2"
    GAUSS = "gauss"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class BimodElement:
    """Finite sum of a_j * g * b_j over the generator g of the tag.

    ``terms`` is stored as a tuple of (a_j, b_j) Poly pairs with no zero
    factor; a GAUSS element keeps at most the one pair (1, sum a_j b_j).
    """

    tag: Generator
    terms: tuple[tuple[Poly, Poly], ...] = ()

    def __post_init__(self):
        pairs = []
        for a, b in self.terms:
            a = Poly.coerce(a)
            b = Poly.coerce(b)
            if a.is_zero() or b.is_zero():
                continue
            pairs.append((a, b))
        if self.tag is Generator.GAUSS and pairs:
            # the weight commutes: a * g * b = g * (a*b)
            (total,) = sum_of_products(pairs)
            pairs = [(P_ONE, total)] if total else []
        object.__setattr__(self, "terms", tuple(pairs))

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

        The target triple (t0, t1, t2) is realised by the canonical pairs
        (A, 1), (B, q), (C, q^2), the only ones whose right factors are
        1, q, q^2: C = t2/2, B = t1 - t2*q, A = t0 - B*q - C*q^2.  Any
        triple is reachable, so membership only constrains the d-degree.
        """
        if u.max_d_degree > 2:
            raise ValueError(
                f"d-degree {u.max_d_degree} exceeds 2; not in the d^2 span"
            )
        profile = u.d_profile()
        half = Fraction(1, 2)
        t2 = profile.get(0, Poly())
        c = t2 * half
        b = profile.get(1, Poly()) * half - t2 * Q
        a = profile.get(2, Poly()) - b * Q - c * Q * Q
        return cls(Generator.D2, [(a, P_ONE), (b, Q), (c, Q * Q)])

    def _require(self, tag: Generator, what: str):
        if self.tag is not tag:
            raise TagMismatchError(f"{what} needs a {tag.value} element")

    def act(self, a, b) -> "BimodElement":
        """The two-sided action a * x * b, termwise on the pairs.

        A unit side costs no product: ``Poly.__mul__`` returns the other
        factor.
        """
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

    def components(self, orders, a=P_ONE, b=P_ONE) -> tuple[Poly, ...]:
        """The triple components h_r = sum a_j b_j^(r) of the D2 element
        a * x * b, for the orders r in ``orders``, ascending from 0 (else
        ValueError); no other component is formed.

        They are read off x's pairs by ``sum_of_products`` on the
        numerators: b multiplies each b_j, and each acted right factor
        (b_j b)^(r) is differentiated, while a multiplies each order's
        sum once.  No acted element is built, and a unit side costs no
        product.
        """
        self._require(Generator.D2, "coefficient triple")
        return sum_of_products(self.terms, orders, Poly.coerce(a), Poly.coerce(b))

    def triple(self) -> tuple[Poly, Poly, Poly]:
        """Classifying triple (sum a b, sum a b', sum a b'') of a D2 element."""
        return self.components((0, 1, 2))

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

    def weyl_by_products(self) -> WeylElement:
        """Embedding computed term by term in the ambient algebra.

        The reference for the classifying triple: it multiplies out each
        a * d^2 * b with the normal-ordering product, and never reads
        ``triple``, so h0*d^2 + 2*h1*d + h2 can be checked against it.
        """
        self._require(Generator.D2, "ambient embedding")
        d2 = WeylElement.monomial(0, 2)
        out = WeylElement()
        for a, b in self.terms:
            out = out + WeylElement.from_profile({0: a}) * d2 * WeylElement.from_profile({0: b})
        return out

    def theta_map(self) -> WeylElement:
        """Order-lowering homomorphism: i*(h0*d + h1) from the triple."""
        h0, h1, _ = self.triple()
        return WeylElement.from_profile({1: h0 * I, 0: h1 * I})

    def schrodinger_table(self, degree: int) -> list[Poly]:
        """Image polynomials of the monomials q^0..q^degree under the
        position/derivative representation of the lowered element."""
        image = self.theta_map()
        return [image.apply(Poly.monomial(k)) for k in range(degree + 1)]

    def __repr__(self):
        body = ", ".join(f"({a!r}, {b!r})" for a, b in self.terms)
        return f"BimodElement({self.tag!r}, [{body}])"

    @classmethod
    def from_json(cls, data) -> "BimodElement":
        """Read ``{"tag": "d2" | "gauss", "terms": [[a, b], ..]}``, with a and b
        coefficient lists of scalar literals; any other shape raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
            raise ValueError('an element is an object with "tag" and a "terms" list')
        tag = Generator(data.get("tag"))
        if not all(
            isinstance(t, list) and len(t) == 2 and all(isinstance(p, list) for p in t)
            for t in data["terms"]
        ):
            raise ValueError("each term is a pair of coefficient lists")
        terms = [
            (Poly.from_coeff_strings(a), Poly.from_coeff_strings(b))
            for a, b in data["terms"]
        ]
        return cls(tag, terms)

