"""Positive functionals on C[q] presented by atoms or by a moment list.

An atomic source is a finite list of (point, weight) pairs with
nonnegative rational weights, and every moment of it is computable.  A
moment-list source stores f(q^k) directly up to a truncation.  q is
hermitian, so every moment of a positive functional is real, and a list
with a non-real value is refused at construction; whether the rest really
is a positive functional is checked later, by the exact Gram
factorisation in the GNS layer.

Moments come in one format, from ``numerators``: integer numerators
``nums``, a denominator ``den`` and a scale ``x``, with
m_k = nums[k] / (den * x^k).  A moment list converts its values once, at
construction, to a table in lowest terms (gcd of the denominator and all
numerators 1), with x = 1.  An atomic
measure stores its atoms once, as integer numerators: point i is
xs_i / X and its weight ws_i / W, with X and W the lcms of the point and
weight denominators; ``atoms`` is a view of them as reduced Fractions,
built per read.  It keeps its integer power sums N_k = sum_i ws_i xs_i^k
over den = W, with x = X, on
demand up to the highest index read so far; the cache only grows, a
growth continues from the sums it has, and an entry never changes with
its reach.  ``apply`` and ``shifted_values`` read the moments through
``numerators`` alone,
bring the moments they read to one denominator, den * x^top (``_over_top``,
which at x = 1 has nothing to do), and take one integer dot product of
them with a polynomial's real numerators and one with its imaginary
numerators (``apply`` reduces its value to a ``Scalar`` once;
``shifted_values`` keeps the numerators).  The GNS layer
factors the Hankel matrix of the N_k themselves.

An atomic measure is its own GNS realization: C^n, one coordinate per
atom, with p acting as (p(x_i))_i and <u, v> = sum_i w_i u_i conj(v_i).
Its atom vectors are ``(re, im, den)``: ``at_atoms`` evaluates p at every
atom by integer Horner, and ``atom_product``, ``atom_pairing`` and
``atom_power_sums`` are that realization's arithmetic, for every
gauss-atoms sum.  One power-sum loop, over one integer sequence, serves
the moments, which sum the real atoms and weights only, and each part of
``atom_power_sums``.  The moments are the power sums of the unit vector;
the gauss-atoms value, Cauchy-Schwarz bound and identity sides each end
in one pairing, and the probe's sequence is the power sums of the atom
images, so the GNS and probe layers read the points and weights only
through these four.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index, mul

from .algebra import (
    Immutable,
    Poly,
    Scalar,
    gauss_numerators,
    gauss_scalar,
    parse_real,
    parse_scalar,
)
from .errors import MomentOutOfRangeError, NotPositiveError


class MomentFunctional(Immutable):
    """f(p) = integral of p against a measure, exactly."""

    # _nums is ``numerators``' (nums, den, x); an atomic measure's power
    # sums are a cache that grows, and is not part of ==, hash or repr.
    # _atom_nums is (xs, X, ws, W) of an atomic measure, its one store of
    # the atoms, else None.
    # _gns is the ``gns.GnsRealization`` at the largest degree realized so
    # far (the LDL of the Hankel Gram, every row of L^-1 and the kernel),
    # set by ``gns.build_gns`` once its positivity gate has passed, else
    # None; replaced whole, never changed in place; a cache of this object
    # alone, not part of ==, hash or repr.
    __slots__ = ("_nums", "_atom_nums", "_gns")

    def __init__(self, atoms=None, values=None):
        if (atoms is None) == (values is None):
            raise ValueError("exactly one of atoms/values must be given")
        if atoms is not None:
            xs, ws = [], []
            for x, w in atoms:
                # an int or a Fraction only: text comes through parse_real
                x, w = Scalar(x), Scalar(w)
                if w.re_num < 0:
                    raise ValueError(f"negative atom weight {w}")
                xs.append(x)
                ws.append(w)
            [(x_nums, _)], x_den = gauss_numerators([xs])
            [(w_nums, _)], w_den = gauss_numerators([ws])
            object.__setattr__(self, "_nums", ((), w_den, x_den))
            object.__setattr__(self, "_atom_nums", (tuple(x_nums), x_den, tuple(w_nums), w_den))
        else:
            [(re, im)], den = gauss_numerators([[Scalar.coerce(v) for v in values]])
            if any(im):
                raise NotPositiveError("moments of a positive functional must be real")
            object.__setattr__(self, "_nums", (tuple(re), den, 1))
            object.__setattr__(self, "_atom_nums", None)
        object.__setattr__(self, "_gns", None)

    def __reduce__(self):
        # copy and pickle rebuild from the constructor's data; the caches are dropped
        if self._atom_nums is not None:
            return MomentFunctional.atomic, (self.atoms,)
        return MomentFunctional.from_moments, (self.values,)

    @classmethod
    def atomic(cls, pairs) -> "MomentFunctional":
        return cls(atoms=pairs)

    @classmethod
    def from_moments(cls, seq) -> "MomentFunctional":
        return cls(values=seq)

    @classmethod
    def gaussian(cls, count: int) -> "MomentFunctional":
        """The first ``count`` standard normal moments.

        m_0 = 1, m_{2n} = (2n-1) m_{2n-2}, and every odd moment is zero.
        """
        if count < 0:
            raise ValueError(f"negative moment count {count}")
        vals = [Fraction(0)] * count
        for k in range(0, count, 2):
            vals[k] = (k - 1) * vals[k - 2] if k else Fraction(1)
        return cls(values=vals)

    @classmethod
    def lebesgue_unit(cls, count: int) -> "MomentFunctional":
        """The first ``count`` moments of Lebesgue measure on [0, 1]: m_k = 1/(k+1)."""
        if count < 0:
            raise ValueError(f"negative moment count {count}")
        return cls(values=[Fraction(1, k + 1) for k in range(count)])

    @property
    def is_atomic(self) -> bool:
        return self._atom_nums is not None

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...] | None:
        """The (point, weight) pairs of an atomic measure, in input order, as
        reduced Fractions built per read from the stored numerators; None for
        a moment list."""
        if self._atom_nums is not None:
            xs, x_den, ws, w_den = self._atom_nums
            return tuple([(Fraction(x, x_den), Fraction(w, w_den)) for x, w in zip(xs, ws)])

    @property
    def values(self) -> tuple[Scalar, ...] | None:
        """The stored moments of a moment list as Scalars; None when atomic."""
        if self._atom_nums is not None:
            return None
        nums, den, _ = self._nums
        return tuple([gauss_scalar(a, 0, den) for a in nums])

    def numerators(self, top: int, low: int = 0, reads: Poly | None = None):
        """The moments to index ``top`` at their natural scale, ``(nums, den, x)``.

        m_k = nums[k] / (den * x^k), all real.  A moment list gives its
        table, with x = 1; one that stops short raises at the first index it
        lacks among those the caller reads: every index from ``low`` up, or
        with ``reads`` the indices of that polynomial's nonzero
        coefficients.  An atomic measure gives its integer power sums N_k =
        sum ws_i xs_i^k over den = W, with x = X, and grows its cache to
        ``top``; an entry never changes with the cache's reach.
        """
        cached = self._nums
        nums, den, x = cached
        if top < len(nums):
            return cached
        if self._atom_nums is None:
            k = max(low, len(nums))
            while reads is not None and not (reads.re[k] or reads.im[k]):
                k += 1
            raise MomentOutOfRangeError(
                f"moment {k} beyond stored truncation {len(nums) - 1}"
            )
        # the sums from len(nums) on continue the cached ones, and the cache
        # is replaced whole when it reaches further; the caller reads the one
        # made here, whatever another thread stores
        more = self._power_sums([a ** len(nums) for a in self._atom_nums[0]], top + 1 - len(nums))
        grown = (nums + tuple(more), den, x)
        if top >= len(self._nums[0]):
            object.__setattr__(self, "_nums", grown)
        return grown

    def _atoms(self):
        """``(xs, X, ws, W)``: atom i at xs[i] / X with weight ws[i] / W (X, W the lcms)."""
        if self._atom_nums is None:
            raise ValueError("a moment list has no atoms")
        return self._atom_nums

    def at_atoms(self, p: Poly):
        """p(x_i) at every atom as ``(re, im, den)``: p(x_i) = (re[i] + im[i]*i) / den.

        Horner on the numerators, homogeneous in X: with n the degree,
        sum_k c_k xs_i^k X^(n-k) over p.den * X^n.
        """
        xs, x_den, _, _ = self._atoms()
        cr, ci, den = _over_top(p.den, x_den, p.degree, p.re, p.im)
        scaled = list(zip(reversed(cr), reversed(ci)))  # c_k X^(n-k), highest power first
        re, im = [], []
        for x in xs:
            acc_re = acc_im = 0
            for a, b in scaled:
                acc_re = acc_re * x + a
                acc_im = acc_im * x + b
            re.append(acc_re)
            im.append(acc_im)
        return re, im, den

    def atom_product(self, u, v):
        """The pointwise product u_i v_i of two atom vectors, as ``(re, im, den)``."""
        self._atoms()  # a moment list refuses, as in at_atoms
        (ur, ui, u_den), (vr, vi, v_den) = u, v
        return (
            [a * c - b * d for a, b, c, d in zip(ur, ui, vr, vi)],
            [a * d + b * c for a, b, c, d in zip(ur, ui, vr, vi)],
            u_den * v_den,
        )

    def atom_pairing(self, u, v) -> Scalar:
        """<u, v> = sum_i w_i u_i conj(v_i) of two atom vectors, reduced once."""
        _, _, ws, w_den = self._atoms()
        (ur, ui, u_den), (vr, vi, v_den) = u, v
        re = im = 0
        for a, b, c, d, w in zip(ur, ui, vr, vi, ws):
            re += (a * c + b * d) * w
            im += (b * c - a * d) * w
        return gauss_scalar(re, im, u_den * v_den * w_den)

    def atom_power_sums(self, u, count: int):
        """[sum_i w_i u_i x_i^k for k < count] as ``(re, im, den)``.

        ``re`` and ``im`` are tuples over one denominator, u's times
        W * X^(count-1).  The real and imaginary parts of u are summed
        apart.  The moments are the power sums of the unit vector.
        """
        re, im, den = u
        _, x_den, _, w_den = self._atoms()
        sums = self._power_sums(re, count), self._power_sums(im, count)
        return _over_top(den * w_den, x_den, count - 1, *sums)

    def _power_sums(self, vals, count: int):
        """[sum_i ws_i vals_i xs_i^k for k < count] for integers vals_i, the k-th over X^k."""
        xs, _, ws, _ = self._atoms()
        vals = [a * w for a, w in zip(vals, ws)]
        out = []
        for _ in range(count):
            out.append(sum(vals))
            vals = [a * x for a, x in zip(vals, xs)]
        return out

    def apply(self, p: Poly) -> Scalar:
        """f(p) by linearity in the real moments: one integer dot product per part of p."""
        top = len(p.re) - 1
        nums, den, x = self.numerators(top, reads=p)
        m, den = _over_top(den, x, top, nums)
        return gauss_scalar(sum(map(mul, p.re, m)), sum(map(mul, p.im, m)), p.den * den)

    def shifted_values(self, p: Poly, count: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """[f(q^s p) for s < count] as ``(re, im, den)``, over one denominator.

        The moments read are those of f(q^(count-1) p) and below it, so
        this fails exactly where ``apply`` on the top shift would.  The
        denominator is p.den * den * x^top of those moments' ``numerators``,
        top = count - 1 + deg p, whatever the cache's reach.
        """
        if count <= 0 or not p.re:
            return (0,) * max(count, 0), (0,) * max(count, 0), 1
        low = next(k for k, (a, b) in enumerate(zip(p.re, p.im)) if a or b)
        top = count - 1 + p.degree
        nums, den, x = self.numerators(top, low=low)
        m, den = _over_top(den, x, top, nums)
        n = len(p.re)
        windows = [m[s : s + n] for s in range(count)]
        re = tuple([sum(map(mul, p.re, w)) for w in windows])
        im = tuple([sum(map(mul, p.im, w)) for w in windows])
        return re, im, p.den * den

    def pairing(self, u: Poly, v: Poly) -> Scalar:
        """The GNS inner product <u, v> = f(v^+ u)."""
        return self.apply(v.conjugate() * u)

    def moments_up_to(self, degree: int) -> tuple[Scalar, ...]:
        """m_0..m_degree, reduced; a negative degree raises ValueError."""
        degree = index(degree)
        if degree < 0:
            raise ValueError(f"negative degree {degree}")
        nums, den, x = self.numerators(degree)
        m, den = _over_top(den, x, degree, nums)
        return tuple([gauss_scalar(a, 0, den) for a in m[: degree + 1]])

    def __eq__(self, other):
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        if self._atom_nums is not None or other._atom_nums is not None:
            return self._atom_nums == other._atom_nums
        return self._nums == other._nums

    def __hash__(self):
        return hash(self._atom_nums if self._atom_nums is not None else self._nums)

    def __repr__(self):
        if self._atom_nums is not None:
            return f"MomentFunctional(atoms={self.atoms!r})"
        return f"MomentFunctional(values={[str(v) for v in self.values]!r})"

    @classmethod
    def from_json(cls, data) -> "MomentFunctional":
        """Read ``{"type": "atomic", "atoms": [{"x": .., "w": ..}, ..]}`` or
        ``{"type": "moments", "values": [..]}``.

        Every number is a string in the scalar literal grammar, and atoms
        are real.  A non-real moment raises NotPositiveError, as in the
        constructor; any other shape raises ValueError.
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


def _over_top(den: int, x: int, top: int, *seqs):
    """Each sequence's entries k <= top, the k-th over den * x^k, all
    brought to den * x^top: ``(*seqs, den)``.

    At x = 1 they share den already and come back whole, any entries past
    ``top`` included.
    """
    if x == 1:
        return (*map(tuple, seqs), den)
    scales = [1]
    for _ in range(top):
        scales.append(scales[-1] * x)
    scales.reverse()  # scales[k] = x^(top - k)
    return (*[tuple(map(mul, s, scales)) for s in seqs], den * scales[0])
