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
``gns.build_gns`` realization, which also holds the rows of U = L^-1
and the kernel K: a measure object caches one realization, at the
largest degree asked of it, and the positivity gate and every
probe at or below that degree read its leading part.  The congruence
Z = L^-1 H_P L^-H on the pivot indices P is done once per probe.  All
three steps run on Gaussian-integer numerators over shared denominators:
the form is summed and hermitised on them into a ``Matrix``,
``ldl_psd`` eliminates fraction-free on the Gram's stored numerators,
and the rows of U are integer rows over one denominator du_a each.  Z is
kept as a ``Pencil``: integer numerators N with
Z[a][c] = N[a][c] / (du_a den du_c), formed as the products U H_P and
(U H_P) U^H on the real and imaginary parts, where a part that is zero
everywhere takes no product (U is real for every moment Gram, and H for
every real element and functional).  One gcd per nonzero part of Z
gives the reduced bit lengths behind ``max_bits`` and the float shifts;
nothing on this path builds a ``Scalar``.  Natural order nests the
tower: the degree-N pencil is the leading r_N x r_N block of Z, with
r_N the number of pivots <= N.  Only the diagonal scaling by d^-1/2 and
one hermitian eigensolve per degree run in doubles, on entries whose
exact powers of two are put back on each lambda afterwards.  Moment Gram
matrices in the monomial basis are far too ill-conditioned for a float
Cholesky, so this exact reduction is what keeps degree ten reachable.

The norm lemma ||T|| <= 4 w(T) is decided here too, exactly: floats only
pick two vectors and a bound, from which exact arithmetic proves the
lemma or refuses it.  This module is the only one that uses numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import copysign, frexp, gcd, inf, isfinite, lcm, ldexp, perm, sqrt
from operator import mul
from sys import float_info
from typing import NamedTuple

import numpy as np

from .algebra import Poly, Scalar
from .bimodule import BimodElement
from .errors import DoubleRangeError, NotHermitianError, NotPositiveError, SingularGramError
from .exactla import Matrix, ldl_psd
from .forms import FormMatrix
from .gns import Functional, build_gns
from .moments import MomentFunctional

BOUNDED = "Bounded"
GROWTH = "GrowthDetected"


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
    pivots: tuple[int, ...] = ()
    ranks: tuple[int, ...] = ()
    max_bits: int = 0

    @property
    def bounded(self) -> bool:
        return self.verdict == BOUNDED


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
    """Z = L^-1 H_P L^-H on integers: Z[a][c] = (re[a][c] + i im[a][c]) / (du[a] den du[c]).

    ``re`` and ``im`` are the hermitian Gaussian-integer numerators, ``du``
    the row denominators of U = L^-1 and ``den`` the form's denominator.
    Entries are not reduced; ``reduced_bits`` takes each part to lowest terms.
    """

    re: list[list[int]]
    im: list[list[int]]
    du: list[int]
    den: int

    def reduced_bits(self) -> tuple[list[list[tuple[int, int]]], int]:
        """The upper triangle's nonzero parts in lowest terms, by bit length.

        Per column c, the pairs (a, n_bits - d_bits) of each nonzero part
        n / d of Z[a][c], a <= c; and the largest bit length of a reduced
        numerator or denominator, 1 (the denominator of a zero) if none is
        larger.  One gcd per nonzero part.
        """
        cols = []
        top = 1
        for c, dc in enumerate(self.du):
            col = []
            for a in range(c + 1):
                d = self.du[a] * self.den * dc
                for x in (self.re[a][c], self.im[a][c]):
                    if x:
                        g = gcd(x, d)
                        nb, db = (x // g).bit_length(), (d // g).bit_length()
                        top = max(top, nb, db)
                        col.append((a, nb - db))
            cols.append(col)
        return cols, top


def _times_rows(ar, ai, br, bi, upper=False):
    """(re, im) of A B^T for Gaussian-integer matrices A = ar + i ai, B = br + i bi.

    Entry (a, c) is the dot product of row a of A with row c of B, over the
    shorter of the two.  An imaginary part given as None is zero everywhere
    and takes no product; the result's is None when both are.  With
    ``upper``, row a holds the entries c >= a only.
    """

    def prod(x, y):
        return [
            [sum(map(mul, row, col)) for col in (y[a:] if upper else y)]
            for a, row in enumerate(x)
        ]

    re = prod(ar, br)
    if ai is not None and bi is not None:
        re = [[u - v for u, v in zip(p, q)] for p, q in zip(re, prod(ai, bi))]
    im = None
    for x, y in ((ar, bi), (ai, br)):
        if x is not None and y is not None:
            part = prod(x, y)
            im = part if im is None else [[u + v for u, v in zip(p, q)] for p, q in zip(im, part)]
    return re, im


def _reduced_pencil(form: Matrix, piv, inv) -> Pencil:
    """Z = U H_P U^H with U = L^-1 on the pivot indices P, exactly.

    ``form`` is the hermitian H, ``piv`` the pivots P and ``inv`` the rows
    of U as ``_inverse_rows`` gives them.  Each row of U is a
    Gaussian-integer row over its own denominator, so Y = U H_P and
    Z = Y U^H are integer products on the real and imaginary parts, and a
    part that is zero everywhere takes none: a moment Gram is real, so U
    is, and a real element and functional give a real H.  The leading
    r x r block of Z is the reduction of the leading block of H against
    the factor of the leading block of the Gram.
    """
    ur = [row for row, _, _ in inv]
    ui = [row for _, row, _ in inv] if any(any(row) for _, row, _ in inv) else None
    hr = [[form.re[b][c] for b in piv] for c in piv]  # the columns of H_P
    hi = [[form.im[b][c] for b in piv] for c in piv] if any(map(any, form.im)) else None
    yr, yi = _times_rows(ur, ui, hr, hi)
    # Z[a][c] = sum_b Y[a][b] conj(U[c][b]); only c >= a is formed
    uc = None if ui is None else [[-v for v in row] for row in ui]
    zr, zi = _times_rows(yr, yi, ur, uc, upper=True)
    n = len(piv)
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for a in range(n):
        for c in range(a, n):
            re[a][c] = re[c][a] = zr[a][c - a]
            if zi is not None:
                im[c][a] = -zi[a][c - a]
                im[a][c] = zi[a][c - a]
    return Pencil(re, im, [d for _, _, d in inv], form.den)


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
            x, y = zr[a][c], zi[a][c]
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
    tolerance: float = 1e-3,
) -> ProbeReport:
    """Track lambda_N over the degree list and classify the tail.

    The degrees must be strictly increasing, since a repeated degree would
    read as a plateau, and the element hermitian.  lambda_N is read from
    the hermitian part of the form, max |Re F(a^+ x a)| / f(a^+ a), which
    differs from max |F(a^+ x a)| / f(a^+ a) for F1 and F2.
    """
    degrees = tuple(degrees)
    if len(degrees) < 3 or any(a >= b for a, b in zip(degrees, degrees[1:])):
        raise ValueError("need an increasing list of at least three degrees")
    if not x.is_hermitian():
        raise NotHermitianError("probe element must be hermitian")
    top = degrees[-1]
    realization = build_gns(mf, top)
    ldl = realization.ldl
    form = form_numerators(func, x, mf, top)
    z = _reduced_pencil(form, ldl.pivots, realization.rows)
    ranks = tuple(bisect_right(ldl.pivots, n) for n in degrees)
    if ranks[0] == 0:
        raise SingularGramError("Gram matrix vanishes at this degree")
    # Z is hermitian, so its upper triangle holds every bit length
    cols, max_bits = z.reduced_bits()
    lam = _block_lambdas(z, cols, ldl.diag, ranks)
    return ProbeReport(
        degrees,
        tuple(lam),
        tolerance,
        plateau_verdict(lam, tolerance),
        ldl.pivots,
        ranks,
        max_bits,
    )


def generator_probe(
    mf: MomentFunctional, degrees, tolerance: float = 1e-3
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
    exact = [[Scalar(Fraction(z.real), Fraction(z.imag)) for z in row] for row in (*t, *seeds)]
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
