"""Positive functionals on C[q] presented by atoms or by a moment list.

An atomic source is a finite list of (point, weight) pairs with
nonnegative rational weights, and every moment of it is computable.  A
moment-list source stores f(q^k) directly up to a truncation; whether it
really is a positive functional is checked later, by the exact Gram
factorisation in the GNS layer.

Moments are held the way ``Poly`` holds coefficients: Gaussian-integer
numerators ``(re, im)`` over one denominator.  A moment list converts its
values once, at construction, to that canonical form (gcd of the
denominator and all numerators 1).  An atomic measure fills the same
kind of table on demand, up to the highest index read so far, over the
denominator W * X^top (W and X the lcms of the weight and point
denominators).  ``apply`` and ``shifted_values`` are integer dot products
of a polynomial's numerators with that table (``apply`` reduces its value
to a ``Scalar`` once, ``shifted_values`` keeps the numerators), and
``numerators`` hands out the table, which the GNS Hankel Gram slices.

An atomic measure also gives its points and weights as integers over X
and W (``atom_numerators``), and ``at_atoms`` evaluates a polynomial at
every atom by integer Horner; the gauss-atoms functional sums on those.
``power_sums`` forms sum_i c_i x_i^k on integers, for the moment table
and for the probe's gauss-atoms sequence.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import (
    Poly,
    Scalar,
    format_scalar,
    gauss_dot,
    gauss_numerators,
    gauss_scalar,
    parse_real,
    parse_scalar,
)
from .errors import MomentOutOfRangeError


def power_sums(re, im, xs, x_den: int, top: int):
    """sum_i c_i x_i^k for k <= top, with c_i = re[i] + im[i]*i and x_i = xs[i] / X.

    Returns ``(re, im)``, two int lists of the sums over X^top.
    """
    out_re, out_im = [], []
    for _ in range(top + 1):
        out_re.append(sum(re))
        out_im.append(sum(im))
        re = [c * x for c, x in zip(re, xs)]
        im = [c * x for c, x in zip(im, xs)]
    # the k-th sum is over X^k; bring each to X^top
    scale = 1
    for k in range(top, -1, -1):
        out_re[k] *= scale
        out_im[k] *= scale
        scale *= x_den
    return out_re, out_im


class MomentFunctional:
    """f(p) = integral of p against a measure, exactly."""

    # _nums is the moment table (re, im, den); an atomic measure's table
    # is a cache that grows, and is not part of ==, hash or repr.
    # _atom_nums is (xs, X, ws, W) of an atomic measure, else None.
    # _gram_factor is the factor of the Hankel Gram at the largest degree
    # factored so far, a complete ``gns.GramFactor`` (the LDL and every row
    # of L^-1) set by ``gns.gram_factor`` once its positivity gate has
    # passed, else None; replaced whole, never changed in place; a cache of
    # this object alone, not part of ==, hash, repr or to_json.
    __slots__ = ("atoms", "_nums", "_atom_nums", "_gram_factor")

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
            object.__setattr__(self, "_nums", ((), (), 1))
            x_den = lcm(*(x.denominator for x, _ in pts))
            w_den = lcm(*(w.denominator for _, w in pts))
            nums = (
                tuple([x.numerator * (x_den // x.denominator) for x, _ in pts]),
                x_den,
                tuple([w.numerator * (w_den // w.denominator) for _, w in pts]),
                w_den,
            )
            object.__setattr__(self, "_atom_nums", nums)
        else:
            [(re, im)], den = gauss_numerators([[Scalar.coerce(v) for v in values]])
            object.__setattr__(self, "atoms", None)
            object.__setattr__(self, "_nums", (tuple(re), tuple(im), den))
            object.__setattr__(self, "_atom_nums", None)
        object.__setattr__(self, "_gram_factor", None)

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

    @property
    def values(self) -> tuple[Scalar, ...] | None:
        """The stored moments of a moment list as Scalars; None when atomic."""
        if self.atoms is not None:
            return None
        re, im, den = self._nums
        return tuple([gauss_scalar(a, b, den) for a, b in zip(re, im)])

    def numerators(self, top: int, low: int = 0, reads: Poly | None = None):
        """The moment table ``(re, im, den)``, reaching at least index ``top``.

        An atomic measure extends its cache to ``top``.  A moment list that
        stops short raises at the first index it lacks among those the
        caller reads: every index from ``low`` up, or with ``reads`` the
        indices of that polynomial's nonzero coefficients.
        """
        re, im, den = self._nums
        if top < len(re):
            return self._nums
        if self.atoms is None:
            k = max(low, len(re))
            while reads is not None and not (reads.re[k] or reads.im[k]):
                k += 1
            raise MomentOutOfRangeError(
                f"moment {k} beyond stored truncation {len(re) - 1}"
            )
        return self._extend(top)

    def _extend(self, top: int):
        """Fill the atomic cache: m_k = sum w x^k over W * X^top, k <= top."""
        xs, x_den, ws, w_den = self._atom_nums
        re, _ = power_sums(ws, (0,) * len(ws), xs, x_den, top)
        nums = (tuple(re), (0,) * (top + 1), w_den * x_den**top)
        object.__setattr__(self, "_nums", nums)
        return nums

    def atom_numerators(self):
        """``(xs, X, ws, W)``: atom i sits at xs[i] / X with weight ws[i] / W.

        X and W are the lcms of the point and the weight denominators.
        """
        if self._atom_nums is None:
            raise ValueError("a moment list has no atoms")
        return self._atom_nums

    def at_atoms(self, p: Poly):
        """p(x_i) at every atom as ``(re, im, den)``: p(x_i) = (re[i] + im[i]*i) / den.

        Horner on the numerators, homogeneous in X: with n the degree,
        sum_k c_k xs_i^k X^(n-k) over p.den * X^n.
        """
        xs, x_den, _, _ = self.atom_numerators()
        if not p.re:
            return [0] * len(xs), [0] * len(xs), 1
        # c_k X^(n-k), highest power first
        scaled = []
        scale = 1
        for cr, ci in zip(reversed(p.re), reversed(p.im)):
            scaled.append((cr * scale, ci * scale))
            scale *= x_den
        re, im = [], []
        for x in xs:
            acc_re = acc_im = 0
            for cr, ci in scaled:
                acc_re = acc_re * x + cr
                acc_im = acc_im * x + ci
            re.append(acc_re)
            im.append(acc_im)
        return re, im, p.den * (scale // x_den)

    def moment(self, k: int) -> Scalar:
        if k < 0:
            raise MomentOutOfRangeError(f"negative moment index {k}")
        re, im, den = self.numerators(k, low=k)
        return gauss_scalar(re[k], im[k], den)

    def apply(self, p: Poly) -> Scalar:
        """f(p) by linearity in the moments: one integer dot product."""
        mr, mi, den = self.numerators(p.degree, reads=p)
        return gauss_scalar(*gauss_dot(p.re, p.im, mr, mi), p.den * den)

    def shifted_values(self, p: Poly, count: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """[f(q^s p) for s < count] as ``(re, im, den)``, over p.den times the table's den.

        The moments read are those of f(q^(count-1) p) and below it, so
        this fails exactly where ``apply`` on the top shift would.
        """
        if count <= 0 or not p.re:
            return (0,) * max(count, 0), (0,) * max(count, 0), 1
        low = next(k for k, (a, b) in enumerate(zip(p.re, p.im)) if a or b)
        mr, mi, den = self.numerators(count - 1 + p.degree, low=low)
        n = len(p.re)
        re, im = zip(*[gauss_dot(p.re, p.im, mr[s : s + n], mi[s : s + n]) for s in range(count)])
        return re, im, p.den * den

    def pairing(self, u: Poly, v: Poly) -> Scalar:
        """The GNS inner product <u, v> = f(v^+ u)."""
        return self.apply(v.conjugate() * u)

    def moments_up_to(self, degree: int) -> tuple[Scalar, ...]:
        re, im, den = self.numerators(degree)
        return tuple([gauss_scalar(re[k], im[k], den) for k in range(degree + 1)])

    def __eq__(self, other):
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        if self.atoms is not None or other.atoms is not None:
            return self.atoms == other.atoms
        return self._nums == other._nums

    def __hash__(self):
        return hash(self.atoms if self.atoms is not None else self._nums)

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
    def from_json(cls, data) -> "MomentFunctional":
        """Read ``{"type": "atomic", "atoms": [{"x": .., "w": ..}, ..]}`` or
        ``{"type": "moments", "values": [..]}``.

        Every number is a string in the scalar literal grammar, and atoms
        are real.  Any other shape raises ValueError.
        """
        kind = data.get("type") if isinstance(data, dict) else None
        if kind == "atomic":
            atoms = data.get("atoms")
            if not isinstance(atoms, list) or not all(
                isinstance(a, dict) and "x" in a and "w" in a for a in atoms
            ):
                raise ValueError('"atoms" must be a list of {"x": .., "w": ..} objects')
            return cls(atoms=[(parse_real(a["x"]), parse_real(a["w"])) for a in atoms])
        if kind == "moments":
            values = data.get("values")
            if not isinstance(values, list):
                raise ValueError('"values" must be a list of scalar literals')
            return cls(values=[parse_scalar(v) for v in values])
        got = repr(kind) if isinstance(data, dict) else f"a JSON {type(data).__name__}"
        raise ValueError(f'a measure has "type" "atomic" or "moments", got {got}')
