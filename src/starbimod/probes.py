"""Floating-point probes for boundedness questions on the truncation tower.

The exact layer can certify identities but not (un)boundedness; these
probes watch the Rayleigh quotient

    lambda_N = max |Re F(a^+ x a)| / f(a^+ a)   over deg(a) <= N

along a list of degrees and report a verdict: a plateau of the final
three values within a relative tolerance reads as Bounded, anything else
as GrowthDetected.  Neither verdict is a proof; the quotient is exact
data, the verdict a finite-degree heuristic.  The form read is the
hermitian part (H + H^H)/2 of H[j][k] = F(q^j x q^k), whose value at a
is Re F(a^+ x a).  For F0, and for gauss-poly and gauss-atoms with real
data, H is hermitian and Re changes nothing; F1 and F2 are not
hermitian functionals (F1(q d^2) = 0 but F1(d^2 q) = 1), and for them
lambda_N is not max |F(a^+ x a)| / f(a^+ a).

All exact work happens once, at the top degree M of the list.  H is
built from its Hankel structure, one shifted moment sequence per term of
``Functional.theta_terms`` (gauss-atoms feeds the measure's power sums
of its atom images instead), and hermitised exactly.  The factor
G = L D L^H of the Hankel Gram G of degree M, in natural order, which
skips the indices of an exact kernel, is read from the degree-M
``gns.build_gns`` realization as its pivots, D and the rows of
U = L^-1 (it also holds the kernel K, and not L): a measure object
caches one realization, at the largest degree asked of it, and the
positivity gate and every probe at or below that degree read its
leading part.  The congruence
Z = L^-1 H_P L^-T on the pivot indices P is done once per probe.  All
three steps run on integer numerators over shared denominators: the form
is summed and hermitised on its Gaussian-integer numerators into a
``Matrix``, ``ldl_psd`` eliminates fraction-free on the Gram's stored
numerators, and the rows of U, read off L by ``nullspace``, are the
orthogonal polynomials P_a, integers over one denominator du_a each.
``GnsRealization`` guarantees that the Gram and U are real, so U
reduces the real and imaginary parts of H apart.  Z is kept as a
``Pencil``, the upper triangle of integer numerators N with Z[a][c] =
N[a][c] / (du_a den du_c), c >= a, formed per part A of H as the
products U A and (U A) U^T; an imaginary part that is zero everywhere,
as for every real element and functional, takes no product.
One gcd per nonzero part of Z gives the reduced bit lengths behind
``max_bits`` and the float shifts; nothing on this path builds a
``Scalar``.  Natural order nests the tower: the degree-N pencil is the
leading r_N x r_N block of Z, with r_N the number of pivots <= N.  Only
the diagonal scaling by d^-1/2 and one hermitian eigensolve per degree
run in doubles, on entries whose exact powers of two are put back on
each lambda afterwards.  Moment Gram matrices in the monomial basis are
far too ill-conditioned for a float Cholesky, so this exact reduction is
what keeps degree ten reachable.

The norm lemma ||T|| <= 4 w(T) is decided here too, exactly: floats only
pick two vectors and a bound, from which exact arithmetic proves the
lemma or refuses it.  This module is the only one that uses numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import copysign, frexp, gcd, inf, isfinite, lcm, ldexp, perm, sqrt
from operator import index, mul
from sys import float_info
from typing import NamedTuple

import numpy as np

from .algebra import Poly, Scalar, gauss_scalar
from .bimodule import BimodElement
from .errors import DoubleRangeError, NotHermitianError, NotPositiveError, SingularGramError
from .exactla import Matrix, ldl_psd
from .forms import FormMatrix
from .gns import Functional, build_gns
from .moments import MomentFunctional

BOUNDED = "Bounded"
GROWTH = "GrowthDetected"
PLATEAU_TOLERANCE = 1e-3  # the default relative spread of a plateau's final three lambdas


@dataclass(frozen=True)
class ProbeReport:
    """lambda_N per degree and the verdict, with the exact data behind them.

    ``pivots`` are the pivot indices of the top-degree Gram, ``ranks`` the
    r_N of each degree, and ``max_bits`` the largest bit length of a
    numerator or denominator in the reduced pencil Z.
    """

    degrees: tuple[int, ...]
    lambdas: tuple[float, ...]
    tolerance: float
    verdict: str
    pivots: tuple[int, ...]
    ranks: tuple[int, ...]
    max_bits: int


def form_numerators(
    func: Functional, x: BimodElement, mf: MomentFunctional, degree: int
) -> Matrix:
    """The hermitised form (H + H^H)/2, a ``Matrix`` of Gaussian-integer numerators.

    For a coefficient vector a, a^H (H + H^H)/2 a = Re F(a^+ x a).
    q^j x q^k = q^j theta(x) q^k, and ``theta_terms`` gives theta(x) q^k =
    sum c h (q^k)^(r) = sum c k!/(k-r)! h q^(k-r), so with the shifted
    moment sequence s[m] = f(q^m h) of each term H[j][k] = sum c k!/(k-r)!
    s[j+k-r].  gauss-atoms has one term with r = 0, c = 1 and the sequence
    s[m] = sum_i w_i v_i p(x_i) x_i^m, the power sums of its atom images.  The sequences
    are brought to the lcm of their denominators; the entries are summed
    and hermitised on the numerators.
    """
    n = degree + 1
    if func.kind == "gauss-atoms":
        seqs = [(0, 1, mf.atom_power_sums(func.atom_images(x, mf), 2 * n - 1))]
    else:
        # the r-th term needs k >= r, so it reaches index 2N - r only
        seqs = [
            (r, c, mf.shifted_values(h, 2 * n - 1 - r))
            for r, c, h in func.theta_terms(x)
            if degree >= r and not h.is_zero()
        ]
    den = lcm(*(d for _, _, (_, _, d) in seqs))
    # column k of H, H[j][k] for j < n, is re[k] + i im[k]; a zero part adds nothing
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for r, c, (sr, si, d) in seqs:
        for acc, seq in ((re, sr), (im, si)) if any(si) else ((re, sr),):
            for k in range(r, n):
                f = c * perm(k, r) * (den // d)
                acc[k] = [a + f * b for a, b in zip(acc[k], seq[k - r : k - r + n])]
    # (H + H^H) / 2 over the doubled denominator
    return Matrix.from_numerators(
        [[a + b for a, b in zip(col, row)] for col, row in zip(re, zip(*re))],
        [[b - a for a, b in zip(col, row)] for col, row in zip(im, zip(*im))],
        2 * den,
        n,
    )


class Pencil(NamedTuple):
    """Z = L^-1 H_P L^-T on integers, stored as its upper triangle.

    For c >= a, Z[a][c] = (re[a][c-a] + i im[a][c-a]) / (du[a] den du[c]),
    and Z[c][a] is its conjugate.  ``re`` and ``im`` hold the
    Gaussian-integer numerators, ``im`` None when it is zero everywhere;
    ``du`` the row denominators of U = L^-1 and ``den`` the form's
    denominator.  Entries are not reduced; ``reduced_bits`` takes each part
    to lowest terms.
    """

    re: list[list[int]]
    im: list[list[int]] | None
    du: list[int]
    den: int

    def reduced_bits(self) -> tuple[list[list[tuple[int, int]]], int]:
        """The upper triangle's nonzero parts in lowest terms, by bit length.

        Per column c, the pairs (a, n_bits - d_bits) of each nonzero part
        n / d of Z[a][c], a <= c; and the largest bit length of a reduced
        numerator or denominator, 1 (the denominator of a zero) if none is
        larger.  One gcd per nonzero part.
        """
        parts = (self.re,) if self.im is None else (self.re, self.im)
        cols = []
        top = 1
        for c, dc in enumerate(self.du):
            col = []
            for a in range(c + 1):
                d = self.du[a] * self.den * dc
                for part in parts:
                    x = part[a][c - a]
                    if x:
                        g = gcd(x, d)
                        nb, db = (x // g).bit_length(), (d // g).bit_length()
                        top = max(top, nb, db)
                        col.append((a, nb - db))
            cols.append(col)
        return cols, top


def _reduced_pencil(form: Matrix, rows) -> Pencil:
    """Z = U H_P U^T with U = L^-1 on the pivot indices P, exactly.

    ``form`` is the hermitian H and ``rows`` the rows of U, the real P_a
    as ``build_gns`` gives them for the one caller, ``boundedness_probe``.
    So each part of H reduces on its own: for the real part A, and for the
    imaginary part A when it is not zero everywhere, Y = U A and the upper
    triangle of Y U^T are integer dot products, which equal U A_P U^T as
    each P_a vanishes off the pivots.  The leading r x r block of Z is the
    reduction of the leading block of H against the factor of the leading
    block of the Gram.
    """
    u = [p.re for p in rows]
    parts = []
    for part in (form.re, form.im) if any(map(any, form.im)) else (form.re,):
        cols = list(zip(*part))
        y = [[sum(map(mul, row, col)) for col in cols] for row in u]
        # Z[a][c] = sum_j Y[a][j] P_c[j]; only c >= a is formed
        parts.append([[sum(map(mul, row, uc)) for uc in u[a:]] for a, row in enumerate(y)])
    zr, *zi = parts
    return Pencil(zr, zi[0] if zi else None, [p.den for p in rows], form.den)


def _block_lambdas(z: Pencil, cols, diag, ranks) -> list[float]:
    """max |eigenvalue| of each leading r x r block of D^-1/2 Z D^-1/2.

    ``cols`` is the first value of ``z.reduced_bits()``.  Each pivot is
    split exactly as d = 4^e * r with 1 <= r < 4, so entry (a, b) is
    Z_ab * 2^-(e_a + e_b) / sqrt(r_a r_b); the bit lengths of its reduced
    parts give its power of two t to within one.  The largest t of the
    pencil is taken out of every entry as an integer shift before the
    float conversion and put back on each lambda with ldexp; a block whose
    own largest t is far below is converted again with its own.  So no
    entry overflows or vanishes, only an exactly zero block gives 0, and a
    lambda outside the normal double range raises DoubleRangeError.
    """
    exps, roots = [], []
    for d in diag:
        n, m = d.numerator, d.denominator
        k = n.bit_length() - m.bit_length()  # floor(log2 d) is k or k - 1
        if (n << max(-k, 0)) < (m << max(k, 0)):
            k -= 1
        e = k >> 1
        exps.append(e)
        roots.append(sqrt(_shifted(n, m, 2 * e)))
    tops = [-inf]  # the largest t of each leading block, -inf while it is zero
    for ec, col in zip(exps, cols):
        tops.append(max([tops[-1], *(t - exps[a] - ec for a, t in col)]))
    zr, zi, du, den = z
    dens = [d * den for d in du]

    def block(size: int, shift: int) -> np.ndarray:
        def entry(a: int, c: int) -> complex:
            x, y = zr[a][c - a], 0 if zi is None else zi[a][c - a]
            if not (x or y):
                return 0j
            d, s = dens[a] * du[c], exps[a] + exps[c] + shift
            return complex(_shifted(x, d, s), _shifted(y, d, s)) / (roots[a] * roots[c])

        # the upper triangle, then its conjugate below: Z is hermitian
        mat = np.array([[0j] * a + [entry(a, c) for c in range(a, size)] for a in range(size)])
        return mat + np.triu(mat, 1).conj().T

    top = tops[-1]
    whole = block(len(diag), top) if top > -inf else None
    lambdas = []
    for r in ranks:
        t = tops[r]
        if t == -inf:
            lambdas.append(0.0)
            continue
        # 900 binary orders below the top, the block's entries are still normal
        shift, mat = (top, whole[:r, :r]) if t > top - 900 else (t, block(r, t))
        try:
            lam = ldexp(float(np.max(np.abs(np.linalg.eigvalsh(mat)))), shift)
        except OverflowError:
            raise DoubleRangeError("lambda is above the double range") from None
        if lam < float_info.min:
            raise DoubleRangeError("lambda is below the normal double range")
        lambdas.append(lam)
    return lambdas


def _shifted(n: int, m: int, s: int) -> float:
    """The double nearest (n / m) * 2^-s, correctly rounded."""
    return n / (m << s) if s >= 0 else (n << -s) / m


def plateau_verdict(lambdas, tolerance: float) -> str:
    """Bounded iff the final three values agree within the relative tolerance.

    The tolerance must be a finite number >= 0; anything else raises
    ValueError, since a negative or NaN one reads every tail as growth and
    an infinite one every tail as bounded.
    """
    if not (isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    tail = list(lambdas)[-3:]
    scale = max(abs(v) for v in tail)
    if scale == 0.0:
        return BOUNDED
    return BOUNDED if (max(tail) - min(tail)) <= tolerance * scale else GROWTH


def boundedness_probe(
    func: Functional,
    x: BimodElement,
    mf: MomentFunctional,
    degrees,
    tolerance: float = PLATEAU_TOLERANCE,
) -> ProbeReport:
    """Track lambda_N over the degree list and classify the tail.

    The degrees must be integers, nonnegative and strictly increasing, since
    a repeated degree would read as a plateau, and the element hermitian;
    a degree that is not an integer raises TypeError.
    lambda_N is read from the hermitian part of the form,
    max |Re F(a^+ x a)| / f(a^+ a), which differs from
    max |F(a^+ x a)| / f(a^+ a) for F1 and F2.
    """
    degrees = tuple(map(index, degrees))
    if len(degrees) < 3 or degrees[0] < 0 or any(a >= b for a, b in zip(degrees, degrees[1:])):
        raise ValueError("need an increasing list of at least three degrees, none negative")
    if not x.is_hermitian():
        raise NotHermitianError("probe element must be hermitian")
    top = degrees[-1]
    realization = build_gns(mf, top)
    pivots = realization.pivots
    form = form_numerators(func, x, mf, top)
    z = _reduced_pencil(form, realization.rows)
    ranks = tuple(bisect_right(pivots, n) for n in degrees)
    if ranks[0] == 0:
        raise SingularGramError("Gram matrix vanishes at this degree")
    # Z is hermitian, so its upper triangle holds every bit length
    cols, max_bits = z.reduced_bits()
    lam = _block_lambdas(z, cols, realization.diag, ranks)
    return ProbeReport(
        degrees,
        tuple(lam),
        tolerance,
        plateau_verdict(lam, tolerance),
        pivots,
        ranks,
        max_bits,
    )


def generator_probe(
    mf: MomentFunctional, degrees, tolerance: float = PLATEAU_TOLERANCE
) -> ProbeReport:
    """Probe of multiplication by q in the GNS representation.

    Identical machinery: the numerical range of the (symmetric) generator
    is the quadratic form with weight polynomial q.
    """
    return boundedness_probe(
        Functional.gauss_poly(Poly.monomial(1)),
        BimodElement.gauss(1),
        mf,
        degrees,
        tolerance,
    )


@dataclass(frozen=True)
class NormBoundReport:
    """Exact bounds on w(T)^2 and ||T||^2, and the decision of ||T|| <= 4 w(T)."""

    radius_sq: Fraction  # lb <= w(T)^2, exact at the two seed vectors
    norm_sq: Fraction  # c, proved to bound ||T||^2 unless the LDL refused it
    certified: bool  # the LDL proved c, and c <= 16 lb
    slack: float  # sqrt(c) - 4 sqrt(lb), signed as c - 16 lb; inf if c was refused


def _norm_sq_at_most(t: Matrix, c: Fraction) -> bool:
    """Whether ``ldl_psd`` proves ||T||^2 <= c, that is c I - T^H T >= 0."""
    n = t.nrows
    try:
        ldl_psd(Matrix.diagonal([c] * n) + Matrix.diagonal([-1] * n) @ t.adjoint() @ t)
    except NotPositiveError:
        return False
    return True


def numerical_radius_norm_check(t) -> NormBoundReport:
    """Decide ||T|| <= 4 w(T) exactly, w the numerical radius.

    T is exact, a double being a dyadic rational.  The top-|eigenvalue|
    eigenvectors eta of the hermitian and antihermitian parts of T reach
    |eta^H T eta| >= ||T|| |eta|^2 / 2; the float eigensolve only picks them,
    and lb = max |eta^H T eta|^2 / |eta|^4 <= w(T)^2 is exact.  The LDL proves
    ||T||^2 <= c, c the float norm squared raised by 1e-9, or refuses it.
    The float steps run on S = T / 2^e, whose largest real or imaginary part
    lies in [1/2, 1), so no finite T overflows or underflows them: c is
    4^e times the bound on ||S||^2, and the slack is formed on S and scaled
    back by 2^e.  An infinite or NaN entry raises ValueError.
    """
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or not t.size:
        raise ValueError("need a nonempty square matrix")
    if not np.isfinite(t).all():
        raise ValueError("need finite entries")
    n = len(t)
    e = frexp(float(max(np.abs(t.real).max(), np.abs(t.imag).max())))[1]
    s = np.ldexp(t.real, -e) + 1j * np.ldexp(t.imag, -e)
    seeds = []
    for part in (s + s.conj().T, (s - s.conj().T) / 1j):
        w, v = np.linalg.eigh(part)
        seeds.append(v[:, np.argmax(np.abs(w))])
    exact = [[_dyadic(z) for z in row] for row in (*t, *seeds)]
    form = FormMatrix(Matrix(exact[:n]))
    lb = max(form.value(eta, eta).abs2() / sum(x.abs2() for x in eta) ** 2 for eta in exact[n:])
    unit = Fraction(4) ** e
    c = Fraction(float(np.linalg.norm(s, 2)) ** 2 * (1 + 1e-9)) * unit
    proved = _norm_sq_at_most(form.mat, c)
    slack = inf
    if proved:
        cs, ls = c / unit, lb / unit
        root = sqrt(cs) + 4 * sqrt(ls)
        slack = float(cs - 16 * ls) / root if root else 0.0
        try:
            slack = ldexp(slack, e)
        except OverflowError:  # |slack| beyond the double range
            slack = copysign(inf, slack)
    return NormBoundReport(lb, c, proved and c <= 16 * lb, slack)


def _dyadic(z: complex) -> Scalar:
    """The exact Scalar of a complex double, from the dyadic ratios of its parts."""
    a, b = z.real.as_integer_ratio()
    c, d = z.imag.as_integer_ratio()
    den = max(b, d)  # both are powers of two
    return gauss_scalar(a * (den // b), c * (den // d), den)


def norm_bound_trials(trials: int, seed: int, max_dim: int) -> tuple[int, float]:
    """Run ``numerical_radius_norm_check`` on random complex matrices.

    Trial n draws a dimension in 1..max_dim and entries with real and
    imaginary parts uniform in [-1, 1) from one generator seeded with
    ``seed``.  Returns the number of trials not certified and the largest
    slack, at most 0 when all are certified (-inf for no trial).
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst = -inf
    for _ in range(trials):
        dim = int(rng.integers(1, max_dim + 1))
        t = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        report = numerical_radius_norm_check(t)
        worst = max(worst, report.slack)
        if not report.certified:
            failures += 1
    return failures, worst
