"""Positive functionals on C[q] presented by atoms or by a moment list.

An atomic source is a finite list of (point, weight) pairs with
nonnegative rational weights, and every moment of it is computable.  A
moment-list source stores f(q^k) directly up to a truncation; whether it
really is a positive functional is checked later, by the exact Gram
factorisation in the GNS layer.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Poly, Scalar, format_scalar, parse_scalar
from .errors import MomentOutOfRangeError

_ZERO = Scalar(0)


class MomentFunctional:
    """f(p) = integral of p against a measure, exactly."""

    __slots__ = ("atoms", "values")

    def __init__(self, atoms=None, values=None):
        if (atoms is None) == (values is None):
            raise ValueError("exactly one of atoms/values must be given")
        if atoms is not None:
            pts = []
            for x, w in atoms:
                x = Fraction(x)
                w = Fraction(w)
                if w < 0:
                    raise ValueError(f"negative atom weight {w}")
                pts.append((x, w))
            object.__setattr__(self, "atoms", tuple(pts))
            object.__setattr__(self, "values", None)
        else:
            object.__setattr__(self, "atoms", None)
            object.__setattr__(
                self, "values", tuple(Scalar.coerce(v) for v in values)
            )

    def __setattr__(self, name, value):
        raise AttributeError("MomentFunctional is immutable")

    @classmethod
    def atomic(cls, pairs) -> "MomentFunctional":
        return cls(atoms=pairs)

    @classmethod
    def from_moments(cls, seq) -> "MomentFunctional":
        return cls(values=seq)

    @classmethod
    def gaussian(cls, count: int) -> "MomentFunctional":
        """Standard normal moments: m_0 = 1, m_{2n} = (2n-1) m_{2n-2}, odd zero."""
        vals = [Fraction(0)] * count
        vals[0] = Fraction(1)
        for k in range(2, count, 2):
            vals[k] = (k - 1) * vals[k - 2]
        return cls(values=vals)

    @classmethod
    def lebesgue_unit(cls, count: int) -> "MomentFunctional":
        """Lebesgue measure on [0, 1]: m_k = 1/(k+1)."""
        return cls(values=[Fraction(1, k + 1) for k in range(count)])

    @property
    def is_atomic(self) -> bool:
        return self.atoms is not None

    def moment(self, k: int) -> Scalar:
        if k < 0:
            raise MomentOutOfRangeError(f"negative moment index {k}")
        if self.atoms is not None:
            return Scalar(sum(w * x**k for x, w in self.atoms))
        if k >= len(self.values):
            raise MomentOutOfRangeError(
                f"moment {k} beyond stored truncation {len(self.values) - 1}"
            )
        return self.values[k]

    def apply(self, p: Poly) -> Scalar:
        """f(p) by linearity in the moments."""
        acc = _ZERO
        for k, c in enumerate(p.coeffs):
            if c:
                acc = acc + c * self.moment(k)
        return acc

    def shifted_values(self, p: Poly, count: int) -> list[Scalar]:
        """[f(q^s p) for s < count], reading each needed moment once.

        The moments read are those of f(q^(count-1) p) and below it, so
        this fails exactly where ``apply`` on the top shift would.
        """
        terms = [(t, c) for t, c in enumerate(p.coeffs) if c]
        if count <= 0 or not terms:
            return [_ZERO] * max(count, 0)
        low = terms[0][0]
        ms = [self.moment(k) for k in range(low, count + p.degree)]
        out = []
        for s in range(count):
            acc = _ZERO
            for t, c in terms:
                acc = acc + c * ms[s + t - low]
            out.append(acc)
        return out

    def pairing(self, u: Poly, v: Poly) -> Scalar:
        """The GNS inner product <u, v> = f(v^+ u)."""
        return self.apply(v.conjugate() * u)

    def moments_up_to(self, degree: int) -> tuple[Scalar, ...]:
        return tuple(self.moment(k) for k in range(degree + 1))

    def __eq__(self, other):
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return self.atoms == other.atoms and self.values == other.values

    def __hash__(self):
        return hash((self.atoms, self.values))

    def __repr__(self):
        if self.atoms is not None:
            return f"MomentFunctional(atoms={self.atoms!r})"
        return f"MomentFunctional(values={[str(v) for v in self.values]!r})"

    def to_json(self) -> dict:
        if self.atoms is not None:
            return {
                "type": "atomic",
                "atoms": [{"x": str(x), "w": str(w)} for x, w in self.atoms],
            }
        return {"type": "moments", "values": [format_scalar(v) for v in self.values]}

    @classmethod
    def from_json(cls, data: dict) -> "MomentFunctional":
        kind = data.get("type")
        if kind == "atomic":
            return cls(
                atoms=[(Fraction(a["x"]), Fraction(a["w"])) for a in data["atoms"]]
            )
        if kind == "moments":
            return cls(values=[parse_scalar(v) for v in data["values"]])
        raise ValueError(f"unknown measure type {kind!r}")
