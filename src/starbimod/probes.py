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
of its atom images instead), and assembled hermitian in one pass.  The
factor G = L D L^H of the Hankel Gram G of degree M, in natural order,
which skips the indices of an exact kernel, is read from the degree-M
``gns.build_gns`` realization as its pivots, D and the rows of
U = L^-1 (it also holds the kernel K, and not L): a measure object
caches one realization, at the largest degree asked of it, and the
positivity gate and every probe at or below that degree read its
leading part.  The congruence
Z = L^-1 H_P L^-T on the pivot indices P is done once per probe.  All
three steps run on integer numerators over shared denominators: the form
is summed on its Gaussian-integer numerators into a ``Matrix``,
``ldl_psd`` eliminates fraction-free on the Gram's stored numerators,
and the rows of U, read off L by ``nullspace``, are the orthogonal
polynomials P_a, integers over one denominator du_a each.
``GnsRealization`` guarantees that the Gram and U are real, so U
reduces the real and imaginary parts of H apart, each formed as the
products U A and (U A) U^T on the upper triangle; an imaginary part that
is zero everywhere, as for every real element and functional, takes no
product.  Each nonzero part of Z[a][c] = N / (du_a den du_c), c >= a, is
reduced once, by one gcd, where it is formed, and ``max_bits``, the
power-of-two shifts and the float conversion all read that reduced
pair; nothing on this path builds a ``Scalar``.  Natural order nests
the tower: the degree-N pencil is the leading r_N x r_N block of Z, with
r_N the number of pivots <= N.  Only the diagonal scaling by d^-1/2 and
one hermitian eigensolve per distinct r_N run in doubles, on entries
whose exact powers of two are put back on each lambda afterwards, so
moments far outside the double range (1e+-400) still give a verdict.
Moment Gram matrices in the monomial basis are far too ill-conditioned
for a float Cholesky, so this exact reduction is what keeps degree ten
reachable.

The norm lemma ||T|| <= 4 w(T) is decided here too, exactly: floats only
pick two vectors and a bound, from which exact arithmetic proves the
lemma or refuses it.  This module is the only one that uses numpy, but
for the Hermite zeros that selftest criterion 9 compares lambda_N with.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import copysign, frexp, gcd, inf, isfinite, lcm, ldexp, perm, sqrt
from operator import index, mul
from sys import float_info

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
    are brought to the lcm of their denominators, and the hermitian form is
    assembled in one pass on the numerators: with f_k = c k!/(k-r)!, zero
    for k < r, entry (k, j) over twice that lcm gains (f_k + f_j) Re s[j+k-r]
    and i (f_j - f_k) Im s[j+k-r].  At r = 0 the imaginary weight is zero.
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
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for r, c, (sr, si, d) in seqs:
        f = [c * perm(k, r) * (den // d) for k in range(n)]
        # s[j+k-r] at index j + k; below j + k = r both weights are 0
        sr, si = (0,) * r + sr, (0,) * r + si
        for k, fk in enumerate(f):
            re[k] = [a + (fk + fj) * b for a, fj, b in zip(re[k], f, sr[k : k + n])]
        if r and any(si):
            for k, fk in enumerate(f):
                im[k] = [a + (fj - fk) * b for a, fj, b in zip(im[k], f, si[k : k + n])]
    return Matrix.from_numerators(re, im, 2 * den, n)


def _reduced_pencil(form: Matrix, rows) -> tuple[dict, int]:
    """Z = U H_P U^T with U = L^-1 on the pivot indices P, reduced once.

    ``form`` is the hermitian H and ``rows`` the rows of U, the real P_a
    as ``build_gns`` gives them for the one caller, ``boundedness_probe``.
    So each part of H reduces on its own: for the real part A, and for the
    imaginary part A when it is not zero everywhere, Y = U A and the upper
    triangle of Y U^T are integer dot products, which equal U A_P U^T as
    each P_a vanishes off the pivots.  H's rows serve as its columns, the
    real part being symmetric and the imaginary part antisymmetric, whose
    sign is put back.  The leading r x r block of Z is the reduction of the
    leading block of H against the factor of the leading block of the Gram.

    Returns the nonzero entries of the upper triangle, {(a, c): (re, im)}
    for a <= c, each part a pair (numerator, denominator) in lowest terms
    or None where it is zero, and ``max_bits``, the largest bit length of a
    reduced numerator or denominator, 1 (the denominator of a zero) if
    none is larger: one gcd per nonzero part.
    """
    u = [p.re for p in rows]
    zs = []
    for part in (form.re, form.im) if any(map(any, form.im)) else (form.re,):
        y = [[sum(map(mul, row, col)) for col in part] for row in u]
        # Z[a][c] = sum_j Y[a][j] P_c[j]; only c >= a is formed
        zs.append([[sum(map(mul, row, uc)) for uc in u[a:]] for a, row in enumerate(y)])
    zr, *zi = zs
    entries = {}
    for a, ra in enumerate(rows):
        for c in range(a, len(rows)):
            d = ra.den * form.den * rows[c].den
            # the imaginary part's pass formed -Z, H's rows serving as its columns
            re, im = _lowest(zr[a][c - a], d), _lowest(-zi[0][a][c - a], d) if zi else None
            if re or im:
                entries[a, c] = re, im
    bits = (x.bit_length() for parts in entries.values() for p in parts if p for x in p)
    return entries, max(bits, default=1)


def _lowest(x: int, d: int) -> tuple[int, int] | None:
    """x / d in lowest terms as (numerator, denominator), d > 0; None for x = 0."""
    if not x:
        return None
    g = gcd(x, d)
    return x // g, d // g


def _block_lambdas(entries: dict, diag, ranks) -> list[float]:
    """max |eigenvalue| of each leading r x r block of D^-1/2 Z D^-1/2.

    ``entries`` are the reduced upper entries of Z from ``_reduced_pencil``;
    their bit lengths set the shifts and their pairs are converted to
    doubles, so no entry is reduced or converted twice.  Each pivot is
    split exactly as d = 4^e * r with 1 <= r < 4, so entry (a, b) is
    Z_ab * 2^-(e_a + e_b) / sqrt(r_a r_b); the bit lengths of its reduced
    parts give its power of two t to within one.  The largest t of the
    pencil is taken out of every entry as an integer shift before the
    float conversion and put back on each lambda with ldexp; a block whose
    own largest t is far below is converted again with its own.  So no
    entry overflows or vanishes, only an exactly zero block gives 0, and a
    lambda outside the normal double range raises DoubleRangeError.  The
    ranks are nondecreasing, and each distinct r_N is solved once.
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
    cols = [-inf] * len(diag)  # the largest t of each column
    for (a, c), parts in entries.items():
        for n, m in filter(None, parts):
            cols[c] = max(cols[c], n.bit_length() - m.bit_length() - exps[a] - exps[c])
    tops = list(accumulate(cols, max, initial=-inf))  # -inf while a leading block is zero

    def block(size: int, shift: int) -> np.ndarray:
        # eigvalsh reads the lower triangle only, so each entry is written
        # there as its conjugate; + 0j makes a negative zero +0.0, since
        # LAPACK's reflectors read the sign of an entry's real part
        mat = np.zeros((size, size), complex)
        for (a, c), parts in entries.items():
            if c < size:
                s = exps[a] + exps[c] + shift
                z = complex(*(_shifted(*p, s) if p else 0.0 for p in parts))
                mat[c, a] = (z / (roots[a] * roots[c])).conjugate() + 0j
        return mat

    top = tops[-1]
    whole = block(len(diag), top) if top > -inf else None
    solved = {}
    for r in dict.fromkeys(ranks):  # each distinct r_N once, in ascending order
        t = tops[r]
        if t == -inf:
            solved[r] = 0.0
            continue
        # 900 binary orders below the top, the block's entries are still normal
        shift, mat = (top, whole[:r, :r]) if t > top - 900 else (t, block(r, t))
        w = np.linalg.eigvalsh(mat)  # ascending
        try:
            solved[r] = lam = ldexp(float(max(-w[0], w[-1])), shift)
        except OverflowError:
            raise DoubleRangeError("lambda is above the double range") from None
        if lam < float_info.min:
            raise DoubleRangeError("lambda is below the normal double range")
    return [solved[r] for r in ranks]


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
    entries, max_bits = _reduced_pencil(form, realization.rows)
    ranks = tuple(bisect_right(pivots, n) for n in degrees)
    if ranks[0] == 0:
        raise SingularGramError("Gram matrix vanishes at this degree")
    lam = _block_lambdas(entries, realization.diag, ranks)
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
