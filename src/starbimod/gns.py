"""GNS-style realization of a moment functional and the paired bimodule functionals.

``build_gns`` turns a moment functional into the truncated quotient data:
an exact positivity certificate of the Hankel Gram matrix
G_{jk} = m_{j+k} on the monomials q^0..q^N (natural-order LDL, with the
rows of U = L^-1), and an exact basis of the kernel polynomials, solved
from that same LDL (one per skipped index s, monic in q^s, on the pivot
monomials below it).  No orthonormalisation happens anywhere; all inner
products go through the Gram matrix so the whole exact path stays in
rational arithmetic.

The realization belongs to f alone, not to a bimodule functional or an
element, and ``build_gns`` is the one route to it: each
``MomentFunctional`` object keeps the realization of the largest degree
M asked so far, and a degree N <= M gets its leading part (the pivots
<= N, the matching entries of D, L and U, and the kernel vectors of the
skipped indices <= N).  That is exact because natural-order elimination
nests, row a of U depends only on rows <= a of L, and the kernel vector
of a skipped index s only on the leading block up to s.  A larger degree
is realized afresh and replaces the entry whole, once its positivity
gate has passed.  So the gate, the kernel and every probe at or below M
share one elimination.  The Gram itself is not kept: ``gram`` builds it
from the moment table on each read.

The elimination runs at the moments' natural scale.  With m_k =
N_k / (den x^k) from ``MomentFunctional.scaled_numerators`` (x = X, the
lcm of an atomic measure's point denominators; x = 1 for a moment list)
and S = diag(x^0..x^N), S G S is the integer Hankel matrix of the N_k
over den.  That positive diagonal congruence keeps the pivots and the
skipped indices, so the LDL, the rows of U and the kernel of S G S map
back to those of G by exact powers of x (``_unscaled``), and the Bareiss
minors never carry the powers of X of the table over W X^(2N).

``Functional`` bundles the five functional variants on the bimodules:

* F0/F1/F2 on the d^2 bimodule pick off f(h0), f(h1), f(h2) of the
  coefficient triple of the argument; F_t forms its one component h_t
  and no other,
* gauss-poly carries a polynomial weight w and sends w(q)p(q)exp(-q^2)
  to f(w p),
* gauss-atoms carries one exact value v_i per atom x_i of an atomic
  measure and works in that measure's atom realization: its images
  v_i p(x_i) (``atom_images``) are atom vectors, and its value
  <images, phi>, Cauchy-Schwarz bound and identity sides each end in one
  ``MomentFunctional.atom_pairing``.

The operator theta(x) of the polynomial variants is stated once, as the
terms (r, c, h) of ``theta_terms`` with theta(x) b = sum c h b^(r): the
Leibniz terms (r, C(t, r), h_(t-r)) of F_t, which need the components
h_0..h_t only, or the single term (0, 1, w p) of gauss-poly.  ``theta``
sums them, and the probe's quadratic form reads the same list.

The central check, ``check_identity``, verifies

    F(a * x * b) = < theta(x) rho(b) phi, rho(a^+) phi >

exactly, computing the two sides along genuinely different routes (act
then classify, versus classify then multiply out).  The left side reads
component t of the acted element's own pairs; it must never be computed
from the triple of x by the closed form of the action, whose component t
is term for term the Leibniz sum of the right side.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .algebra import P_ONE, Poly, Scalar, sum_of_products
from .bimodule import BimodElement, Generator
from .errors import (
    MomentMismatchError,
    NotPositiveError,
    UnsupportedVariantError,
    VariantMismatchError,
)
from .exactla import LdlResult, Matrix, _inverse_rows, _reduced, ldl_psd, nullspace
from .moments import MomentFunctional


@dataclass(frozen=True, eq=False, slots=True)
class GnsRealization:
    """Truncated quotient data of a moment functional at degree N.

    ``ldl`` is ``ldl_psd`` of the Hankel Gram, ``rows`` the rows of
    U = L^-1 as ``_inverse_rows(ldl.lower)`` gives them, one per pivot, and
    ``kernel`` the kernel polynomials of ``nullspace``, one per skipped
    index.
    """

    functional: MomentFunctional
    degree: int
    ldl: LdlResult
    rows: tuple
    kernel: tuple[Poly, ...]

    @property
    def gram(self) -> Matrix:
        """The Hankel Gram, built afresh on every read."""
        return hankel_gram(self.functional, self.degree)

    @property
    def rank(self) -> int:
        return self.ldl.rank

    @property
    def pivots(self) -> tuple[int, ...]:
        """Monomial exponents spanning a positive-definite complement."""
        return self.ldl.pivots


def hankel_gram(mf: MomentFunctional, degree: int) -> Matrix:
    """The Gram matrix G_{jk} = m_{j+k} on q^0..q^N; needs moments up to 2N.

    The Hankel matrix of the moment table's numerators, reduced once.
    """
    re, im, den = mf.numerators(2 * degree)
    if any(im[: 2 * degree + 1]):
        raise NotPositiveError("moments of a positive functional must be real")
    return Matrix.hankel(re, den, degree + 1)


def build_gns(mf: MomentFunctional, degree: int) -> GnsRealization:
    """The positivity-checked degree-N truncation, through the measure's cache.

    Above the cached degree M (or on a new measure) the Gram is factored
    at the moments' natural scale, and the realization is cached once
    ``ldl_psd`` has passed it; this raises NotPositiveError when the moment
    data is not a truncated positive sequence, MomentOutOfRangeError when
    the moments are short.  At or below M it is the cached realization's
    leading part.
    """
    top = mf._gns
    if top is None or degree > top.degree:
        sums, _, den, x = mf.scaled_numerators(2 * degree)
        # S G S = Hankel(sums) / den for S = diag(x^0..x^N); at x = 1 that is G
        gram = hankel_gram(mf, degree) if x == 1 else Matrix.hankel(sums, den, degree + 1)
        ldl = ldl_psd(gram)
        rows = tuple(_inverse_rows(ldl.lower))
        kernel = tuple(nullspace(gram, ldl, rows))
        if x != 1:
            ldl, rows, kernel = _unscaled(ldl, rows, kernel, x, degree)
        top = GnsRealization(mf, degree, ldl, rows, kernel)
        object.__setattr__(mf, "_gns", top)
    if degree == top.degree:
        return top
    pivots, diag, lower = top.ldl
    r = bisect_right(pivots, degree)
    ldl = LdlResult(pivots[:r], diag[:r], lower[:r])
    return GnsRealization(mf, degree, ldl, top.rows[:r], top.kernel[: degree + 1 - r])


def _unscaled(ldl: LdlResult, rows, kernel, x: int, degree: int):
    """The LDL, rows of U and kernel of G, from those of S G S, S = diag(x^0..x^N), x > 0.

    The congruence keeps the pivots p and the skipped indices: D_a =
    D'_a / x^(2 p_a), L_ab = L'_ab x^(p_b - p_a), U_ab = U'_ab x^(p_b - p_a),
    and the kernel vector of s is v_j = v'_j x^(j - s), still monic in q^s.
    """
    pivots, diag, lower = ldl
    powers = [1]
    for _ in range(degree):
        powers.append(powers[-1] * x)
    at = [powers[p] for p in pivots]
    diag = tuple([d / (s * s) for d, s in zip(diag, at)])
    lower = tuple(
        tuple([_reduced(re, im, den * (sa // sb)) for (re, im, den), sb in zip(row, at)])
        for row, sa in zip(lower, at)
    )
    out = []
    for (re, im, den), sa in zip(rows, at):
        re = [v * s for v, s in zip(re, at)]
        im = [v * s for v, s in zip(im, at)]
        den *= sa
        g = gcd(den, *re, *im)
        out.append(([v // g for v in re], [v // g for v in im], den // g))
    kernel = tuple(
        Poly.from_numerators(
            [c * s for c, s in zip(v.re, powers)],
            [c * s for c, s in zip(v.im, powers)],
            v.den * powers[len(v.re) - 1],
        )
        for v in kernel
    )
    return LdlResult(pivots, diag, lower), tuple(out), kernel


class Functional:
    """One of the functional variants F0, F1, F2, gauss-poly, gauss-atoms."""

    __slots__ = ("kind", "weight", "atom_values")

    _D2_KINDS = ("F0", "F1", "F2")

    def __init__(self, kind: str, weight=None, atom_values=None):
        if kind in self._D2_KINDS:
            if weight is not None or atom_values is not None:
                raise ValueError(f"{kind} takes no parameters")
        elif kind == "gauss-poly":
            if weight is None or atom_values is not None:
                raise ValueError("gauss-poly needs a polynomial weight")
            weight = Poly.coerce(weight)
        elif kind == "gauss-atoms":
            if atom_values is None or weight is not None:
                raise ValueError("gauss-atoms needs per-atom values")
            atom_values = tuple(Fraction(v) for v in atom_values)
        else:
            raise ValueError(f"unknown functional kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "atom_values", atom_values)

    def __setattr__(self, name, value):
        raise AttributeError("Functional is immutable")

    @classmethod
    def f0(cls):
        return cls("F0")

    @classmethod
    def f1(cls):
        return cls("F1")

    @classmethod
    def f2(cls):
        return cls("F2")

    @classmethod
    def gauss_poly(cls, weight) -> "Functional":
        return cls("gauss-poly", weight=weight)

    @classmethod
    def gauss_atoms(cls, values) -> "Functional":
        return cls("gauss-atoms", atom_values=values)

    @property
    def tag(self) -> Generator:
        return Generator.D2 if self.kind in self._D2_KINDS else Generator.GAUSS

    def _check_tag(self, x: BimodElement):
        if x.tag is not self.tag:
            raise VariantMismatchError(
                f"{self.kind} expects a {self.tag.value} element, got {x.tag.value}"
            )

    def value(self, x: BimodElement, mf: MomentFunctional) -> Scalar:
        """F(x), exact; depends only on the semantic class of x."""
        if self.kind != "gauss-atoms":
            return mf.apply(self.coefficient_poly(x))
        return mf.atom_pairing(self.atom_images(x, mf), mf.at_atoms(P_ONE))

    def coefficient_poly(self, x: BimodElement) -> Poly:
        """The polynomial h with F(a^+ . x) = f(a^+ h); Cauchy-Schwarz partner.

        F_t reads the one triple component h_t.
        """
        self._check_tag(x)
        if self.kind in self._D2_KINDS:
            return x.components((self._D2_KINDS.index(self.kind),))[0]
        if self.kind == "gauss-poly":
            return self.weight * x.gauss_poly()
        raise UnsupportedVariantError(
            "gauss-atoms has no polynomial partner; use atom coordinates"
        )

    def theta_terms(self, x: BimodElement) -> list[tuple[int, int, Poly]]:
        """theta(x) as terms (r, c, h), with theta(x) b = sum c * h * b^(r).

        F_t: (r, C(t, r), h_(t-r)) for r = 0..t over the triple of x;
        gauss-poly: (0, 1, w p).  The gauss-atoms operator leaves
        polynomial coordinates and has no terms.
        """
        if self.kind == "gauss-atoms":
            raise UnsupportedVariantError(
                "gauss-atoms acts on atom coordinates, not polynomials"
            )
        self._check_tag(x)
        if self.kind == "gauss-poly":
            return [(0, 1, self.weight * x.gauss_poly())]
        t = self._D2_KINDS.index(self.kind)
        hs = x.components(range(t + 1))
        return [(r, comb(t, r), hs[t - r]) for r in range(t + 1)]

    def theta(self, x: BimodElement, b) -> Poly:
        """The image polynomial theta(x) applied to b * phi: ``theta_terms`` summed."""
        b = Poly.coerce(b)
        # the unit factor and b^(0) = b cost no product
        pairs = [
            (h * c if c != 1 else h, b.derivative(r) if r else b)
            for r, c, h in self.theta_terms(x)
        ]
        return sum_of_products(pairs)[0]

    def atom_images(self, x: BimodElement, mf: MomentFunctional):
        """The gauss-atoms images v_i p(x_i) of x = p exp(-q^2), one per atom x_i.

        Returned as ``(re, im, den)``: the image at atom i is
        (re[i] + im[i]*i) / den.
        """
        if self.kind != "gauss-atoms":
            raise UnsupportedVariantError("atom coordinates are for gauss-atoms")
        self._check_tag(x)
        if not mf.is_atomic:
            raise VariantMismatchError("gauss-atoms needs an atomic measure")
        if len(self.atom_values) != len(mf.atoms):
            raise VariantMismatchError(
                f"{len(self.atom_values)} values for {len(mf.atoms)} atoms"
            )
        v_den = lcm(*(v.denominator for v in self.atom_values))
        vs = [v.numerator * (v_den // v.denominator) for v in self.atom_values]
        return mf.atom_product(mf.at_atoms(x.gauss_poly()), (vs, [0] * len(vs), v_den))

    def theta_atom_vector(self, x: BimodElement, b, mf: MomentFunctional):
        """theta(x) rho(b) phi in atom coordinates, for the gauss-atoms variant.

        Returned as ``(re, im, den)``, entry i being v_i p(x_i) b(x_i).
        """
        return mf.atom_product(self.atom_images(x, mf), mf.at_atoms(Poly.coerce(b)))

    def describe(self) -> str:
        if self.kind == "gauss-poly":
            return f"gauss-poly:{self.weight}"
        if self.kind == "gauss-atoms":
            return "gauss-atoms:" + ",".join(str(v) for v in self.atom_values)
        return self.kind

    def __repr__(self):
        return f"Functional({self.describe()!r})"


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of F(a x b) = <theta(x) rho(b) phi, rho(a^+) phi>."""

    lhs: Scalar
    rhs: Scalar

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def check_identity(
    func: Functional,
    a,
    x: BimodElement,
    b,
    mf: MomentFunctional,
) -> IdentityReport:
    """Exact two-route check of the representation identity.

    The left side acts on the element first and evaluates F.  The right
    side forms the image polynomial theta(x)(b * phi) and pairs it with
    rho(a^+) phi, which by the Gram pairing is f(a * theta-poly).  For
    gauss-atoms the left side reads the atom images of a x b, the right
    multiplies p, b and a^+ at the atoms pointwise; only the closing
    ``atom_pairing`` is shared, as ``mf.apply`` is for the other variants.
    """
    a = Poly.coerce(a)
    b = Poly.coerce(b)
    lhs = func.value(x.act(a, b), mf)
    if func.kind == "gauss-atoms":
        # rho(a^+) phi in atom coordinates, conjugated by the inner product
        rhs = mf.atom_pairing(func.theta_atom_vector(x, b, mf), mf.at_atoms(a.conjugate()))
    else:
        image = func.theta(x, b)
        rhs = mf.apply(a * image)
    return IdentityReport(lhs, rhs)


@dataclass(frozen=True)
class CauchySchwarzReport:
    """|F(a^+ x)|^2 against the product bound C_x f(a^+ a)."""

    lhs_squared: Fraction
    bound: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs_squared <= self.bound


def check_cauchy_schwarz(
    func: Functional,
    a,
    x: BimodElement,
    mf: MomentFunctional,
) -> CauchySchwarzReport:
    """Exact check of |F(a^+ x)|^2 <= f(h^+ h) f(a^+ a).

    h is the variant's coefficient polynomial of x; for gauss-atoms the
    squared norm <images, images> of its atom images replaces f(h^+ h).
    """
    a = Poly.coerce(a)
    lhs = func.value(x.act(a.conjugate(), P_ONE), mf)
    gram_aa = mf.pairing(a, a)
    if func.kind == "gauss-atoms":
        images = func.atom_images(x, mf)
        c = mf.atom_pairing(images, images)
    else:
        h = func.coefficient_poly(x)
        c = mf.apply(h.conjugate() * h)
    bound = c * gram_aa
    if not bound.is_real():
        raise NotPositiveError("Cauchy-Schwarz bound must be real")
    return CauchySchwarzReport(lhs.abs2(), bound.re)


@dataclass(frozen=True)
class UniquenessReport:
    """Consistency data for two presentations of one functional."""

    degree: int
    gram_equal: bool
    kernel_equal: bool
    shift_consistent: bool
    cyclic_preserved: bool

    @property
    def verified(self) -> bool:
        return (
            self.gram_equal
            and self.kernel_equal
            and self.shift_consistent
            and self.cyclic_preserved
        )


def check_intertwiner(
    mf1: MomentFunctional, mf2: MomentFunctional, degree: int
) -> UniquenessReport:
    """Verify the canonical unitary between two equal-moment presentations.

    The map sends the class of q^k to the class of q^k.  When the moments
    agree up to 2N this is inner-product preserving by construction; this
    check recomputes both Gram matrices, both kernels, and the pairing of
    shifted basis vectors, all exactly.  Differing moments raise
    MomentMismatchError.
    """
    m1 = mf1.moments_up_to(2 * degree)
    m2 = mf2.moments_up_to(2 * degree)
    for k, (u, v) in enumerate(zip(m1, m2)):
        if u != v:
            raise MomentMismatchError(f"moment {k} differs: {u} vs {v}")
    r1 = build_gns(mf1, degree)
    r2 = build_gns(mf2, degree)
    gram_equal = r1.gram == r2.gram
    kernel_equal = r1.kernel == r2.kernel
    shift_ok = True
    for j in range(degree):
        shifted = Poly.monomial(j + 1)
        for k in range(degree + 1):
            if mf1.pairing(shifted, Poly.monomial(k)) != mf2.pairing(
                shifted, Poly.monomial(k)
            ):
                shift_ok = False
    cyclic = mf1.pairing(P_ONE, P_ONE) == mf2.pairing(P_ONE, P_ONE)
    return UniquenessReport(degree, gram_equal, kernel_equal, shift_ok, cyclic)
