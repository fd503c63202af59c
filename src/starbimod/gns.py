"""GNS-style realization of a moment functional and the paired bimodule functionals.

``build_gns`` turns a moment functional into the truncated quotient data:
an exact positivity certificate of the Hankel Gram matrix
G_{jk} = m_{j+k} on the monomials q^0..q^N (natural-order LDL, of which
the pivots and D are kept), and what one recurrence over the rows of L
reads off it: the rows of U = L^-1 at the pivots, which are the monic
orthogonal polynomials P_a with ||P_a||^2 = D_a, and an exact basis of
the kernel polynomials at the skipped indices (one per skipped index s,
monic in q^s, on the pivot monomials below it).  L itself is not kept.
No orthonormalisation happens anywhere; all inner products go through
the Gram matrix so the whole exact path stays in rational arithmetic.

The realization belongs to f alone, not to a bimodule functional or an
element, and ``build_gns`` is the one route to it: each
``MomentFunctional`` object keeps the realization of the largest degree
M asked so far, and a degree N <= M gets its leading part (the pivots
<= N, the matching entries of D and U, and the kernel vectors of the
skipped indices <= N).  That is exact because natural-order elimination
nests, and the recurrence's vector at an index a, a row of U or a kernel
vector, depends only on the rows <= a of L.  A larger degree
is realized afresh and replaces the entry whole, once its positivity
gate has passed.  So the gate, the kernel and every probe at or below M
share one elimination.  The Gram itself is not kept, and a realization
holds no reference to its measure: ``hankel_gram`` builds the Gram from
the moments on each call.

The elimination runs at the moments' natural scale.  With m_k =
N_k / (den x^k) from ``MomentFunctional.numerators`` (x = X, the lcm of
an atomic measure's point denominators, and N_k its integer power sums;
x = 1 for a moment list, whose table is G's) and S = diag(x^0..x^N),
S G S is the integer Hankel matrix of the N_k over den.  That positive
diagonal congruence keeps the pivots and the skipped indices, so D,
the P_a and the kernel of S G S map back to those of G by exact
powers of x (``_unscaled``), and the Bareiss minors never carry
the powers of X that G over W X^(2N) has.

``Functional`` bundles the five functional variants on the bimodules, a
frozen slotted dataclass compared by identity, as ``GnsRealization`` is:

* F0/F1/F2 on the d^2 bimodule pick off f(h0), f(h1), f(h2) of the
  coefficient triple of the argument; F_t forms its one component h_t
  and no other,
* gauss-poly carries a polynomial weight w and sends w(q)p(q)exp(-q^2)
  to f(w p),
* gauss-atoms carries one exact value v_i per atom x_i of an atomic
  measure and works in that measure's atom realization: its images
  v_i p(x_i) (``atom_images``) are atom vectors, theta(x) rho(b) phi is
  their ``atom_product`` with b at the atoms, and its value
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
then classify, versus classify then multiply out).  For F_t the left side
is a * sum_j a_j (b_j b)^(t), which ``sum_of_products`` forms on the
integer numerators: a multiplies the sum once, by bilinearity, but each
acted right factor b_j b is still differentiated on its own.  It builds
no canonical a * x * b and never reads the triple of x.  It must never
be computed from that triple by the closed form of the action, whose
component t is term for term the right side's Leibniz sum
sum_r C(t, r) h_(t-r) b^(r): the two routes would then be one.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .algebra import P_ONE, Poly, Scalar, _ratio, sum_of_products
from .bimodule import BimodElement, Generator
from .errors import (
    MomentMismatchError,
    UnsupportedVariantError,
    VariantMismatchError,
)
from .exactla import Matrix, ldl_psd, nullspace
from .moments import MomentFunctional, _over_top


@dataclass(frozen=True, eq=False, slots=True)
class GnsRealization:
    """Truncated quotient data of a moment functional at degree N.

    ``pivots`` are the monomial exponents of the positive pivots of the
    Hankel Gram's ``ldl_psd`` and ``diag`` their values D; ``rows`` and
    ``kernel`` are what ``nullspace`` reads off that factor, one ``Poly``
    per index, monic there: the rows of U = L^-1 are the orthogonal
    polynomials P_a, zero off the pivots, with f(P_a P_b) = D_a delta_ab.
    Both are real, as the moments are: ``MomentFunctional`` refuses a
    non-real one at construction.  The Gram is not kept: ``hankel_gram``
    builds it from the measure.  Nor is the measure, which caches this
    realization, so the two form no reference cycle.
    """

    degree: int
    pivots: tuple[int, ...]
    diag: tuple[Fraction, ...]
    rows: tuple[Poly, ...]
    kernel: tuple[Poly, ...]


def hankel_gram(mf: MomentFunctional, degree: int) -> Matrix:
    """The Gram matrix G_{jk} = m_{j+k} on q^0..q^N; needs moments up to 2N.

    The Hankel matrix of the moments' numerators over den * x^(2N),
    reduced once.
    """
    nums, den, x = mf.numerators(2 * degree)
    m, den = _over_top(den, x, 2 * degree, nums)
    return _hankel(m, den, degree + 1)


def _hankel(values, den: int, n: int) -> Matrix:
    """The real n x n Hankel matrix values[j + k] / den, den > 0, reduced once."""
    rows = [values[j : j + n] for j in range(n)]
    return Matrix.from_numerators(rows, [[0] * n] * n, den, n)


def build_gns(mf: MomentFunctional, degree: int) -> GnsRealization:
    """The positivity-checked degree-N truncation, through the measure's cache.

    Above the cached degree M (or on a new measure) the Gram is factored
    at the moments' natural scale, and the realization is cached once
    ``ldl_psd`` has passed it; this raises NotPositiveError when the moment
    data is not a truncated positive sequence, MomentOutOfRangeError when
    the moments are short.  At or below M it is the cached realization's
    leading part.  A negative degree raises ValueError, and one that is not
    an integer TypeError.
    """
    degree = operator.index(degree)
    if degree < 0:
        raise ValueError(f"negative degree {degree}")
    top = mf._gns
    if top is None or degree > top.degree:
        sums, den, x = mf.numerators(2 * degree)
        # S G S = Hankel(sums) / den for S = diag(x^0..x^N); at x = 1 that is G
        ldl = ldl_psd(_hankel(sums, den, degree + 1))
        pivots, diag = ldl.pivots, ldl.diag
        rows, kernel = nullspace(ldl)
        if x != 1:
            diag, rows, kernel = _unscaled(pivots, diag, rows, kernel, x, degree)
        top = GnsRealization(degree, pivots, diag, rows, kernel)
        object.__setattr__(mf, "_gns", top)
    if degree == top.degree:
        return top
    r = bisect_right(top.pivots, degree)
    return GnsRealization(
        degree, top.pivots[:r], top.diag[:r], top.rows[:r], top.kernel[: degree + 1 - r]
    )


def _unscaled(pivots, diag, rows, kernel, x: int, degree: int):
    """D, the P_a and the kernel of G, from those of S G S, S = diag(x^0..x^N), x > 0.

    The congruence keeps the pivots p and the skipped indices, and D_a =
    D'_a / x^(2 p_a).  Every vector, a P_a or a kernel vector, follows one
    rule: coefficient j of a vector of degree s gains x^(j - s), so it
    stays monic in q^s.  Both are real (see ``GnsRealization``), so only
    real parts are rescaled, and the zero imaginary part is passed on.
    """
    powers = [x**j for j in range(degree + 1)]
    diag = tuple([d / powers[p] ** 2 for d, p in zip(diag, pivots)])

    def unscaled(v: Poly) -> Poly:
        return Poly.from_numerators(
            [c * s for c, s in zip(v.re, powers)], v.im, v.den * powers[len(v.re) - 1]
        )

    return diag, tuple(map(unscaled, rows)), tuple(map(unscaled, kernel))


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Functional:
    """One of the functional variants F0, F1, F2, gauss-poly, gauss-atoms.

    ``weight`` is the gauss-poly weight as a ``Poly``, ``atom_values`` the
    gauss-atoms values as reduced Fractions; each is None for the others.
    """

    kind: str
    weight: Poly | None = None
    atom_values: tuple[Fraction, ...] | None = None

    _D2_KINDS = ("F0", "F1", "F2")

    def __post_init__(self):
        if self.kind in self._D2_KINDS:
            if self.weight is not None or self.atom_values is not None:
                raise ValueError(f"{self.kind} takes no parameters")
        elif self.kind == "gauss-poly":
            if self.weight is None or self.atom_values is not None:
                raise ValueError("gauss-poly needs a polynomial weight")
            object.__setattr__(self, "weight", Poly.coerce(self.weight))
        elif self.kind == "gauss-atoms":
            if self.atom_values is None or self.weight is not None:
                raise ValueError("gauss-atoms needs per-atom values")
            # an int or a Fraction only, as for a Scalar: text comes through parse_real
            values = tuple(Fraction(*_ratio(v)) for v in self.atom_values)
            object.__setattr__(self, "atom_values", values)
        else:
            raise ValueError(f"unknown functional kind {self.kind!r}")

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

    def value(self, x: BimodElement, mf: MomentFunctional, a=P_ONE, b=P_ONE) -> Scalar:
        """F(a * x * b), exact; depends only on the semantic class of x.

        F_t reads a * sum_j a_j (b_j b)^(t) through
        ``BimodElement.components``: a multiplies the sum once, each acted
        right factor b_j b is differentiated, and neither a * x * b nor the
        triple of x is formed, so the left route of ``check_identity``
        stays apart from theta's Leibniz sum.  The Gaussian variants act on
        x first, and a unit side costs them no product.
        """
        if self.kind in self._D2_KINDS:
            self._check_tag(x)
            return mf.apply(x.components((self._D2_KINDS.index(self.kind),), a, b)[0])
        x = x.act(a, b)
        if self.kind == "gauss-poly":
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
        images = mf.at_atoms(x.gauss_poly())
        if len(self.atom_values) != len(images[0]):
            raise VariantMismatchError(
                f"{len(self.atom_values)} values for {len(images[0])} atoms"
            )
        v_den = lcm(*(v.denominator for v in self.atom_values))
        vs = [v.numerator * (v_den // v.denominator) for v in self.atom_values]
        return mf.atom_product(images, (vs, [0] * len(vs), v_den))

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

    The left side is F(a * x * b): for F_t, component t of the acted
    pairs (a a_j, b_j b), formed on the numerators with no canonical
    a * x * b and no read of x's triple; the Gaussian variants act on x
    first.  The right side forms the image polynomial theta(x)(b * phi)
    and pairs it with rho(a^+) phi, which by the Gram pairing is
    f(a * theta-poly).  For gauss-atoms the left side reads the atom
    images of a x b, the right multiplies p, b and a^+ at the atoms
    pointwise; only the closing ``atom_pairing`` is shared, as
    ``mf.apply`` is for the other variants.
    """
    a = Poly.coerce(a)
    b = Poly.coerce(b)
    lhs = func.value(x, mf, a, b)
    if func.kind == "gauss-atoms":
        # theta(x) rho(b) phi, entry i being v_i p(x_i) b(x_i), paired with
        # rho(a^+) phi in atom coordinates, conjugated by the inner product
        image = mf.atom_product(func.atom_images(x, mf), mf.at_atoms(b))
        rhs = mf.atom_pairing(image, mf.at_atoms(a.conjugate()))
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

    F(a^+ x) reads, for F_t, a^+ * sum_j a_j b_j^(t), with a^+ applied to
    the sum once and each b_j differentiated, as ``check_identity``'s left
    side does.  h is the variant's coefficient polynomial of x; for
    gauss-atoms the squared norm <images, images> of its atom images
    replaces f(h^+ h).
    """
    a = Poly.coerce(a)
    lhs = func.value(x, mf, a.conjugate())
    gram_aa = mf.pairing(a, a)
    if func.kind == "gauss-atoms":
        images = func.atom_images(x, mf)
        c = mf.atom_pairing(images, images)
    else:
        h = func.coefficient_poly(x)
        c = mf.pairing(h, h)
    # both factors are real: the moments are, h^+ h and a^+ a have real
    # coefficients, and <u, u> sums to a zero imaginary part
    return CauchySchwarzReport(lhs.abs2(), (c * gram_aa).re)


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
    gram_equal = hankel_gram(mf1, degree) == hankel_gram(mf2, degree)
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
