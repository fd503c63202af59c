"""Floating-point probes for boundedness questions on the truncation tower.

The exact layer can certify identities but not (un)boundedness; these
probes watch the Rayleigh quotient

    lambda_N = max |F(a^+ x a)| / f(a^+ a)   over deg(a) <= N

along a list of degrees and report a verdict: a plateau of the final
three values within a relative tolerance reads as Bounded, anything else
as GrowthDetected.  Neither verdict is a proof; the quotient is exact
data, the verdict a finite-degree heuristic.

All exact work happens once, at the top degree M of the list.  The form
H[j][k] = F(q^j x q^k) is built from its Hankel structure, one shifted
moment sequence per term of ``Functional.theta_terms`` (gauss-atoms
feeds its one sequence of weighted atom images instead), and hermitised
exactly.  The Hankel Gram G of degree M is factored once as
G = L D L^H in natural order, which skips the indices of an exact
kernel, and the congruence Z = L^-1 H_P L^-H on the pivot indices P is
done once.  All three steps run on Gaussian-integer
numerators over shared denominators: the form is summed and hermitised
on them into a ``Matrix``, ``ldl_psd`` eliminates fraction-free on the
Gram's stored numerators, the rows of L^-1 are integer rows over one
denominator each, and each entry of Z is an integer dot product reduced
once.  Natural order nests the tower: the degree-N pencil is the leading
r_N x r_N block of Z, with r_N the number of pivots <= N.  Only the
diagonal scaling by d^-1/2 and one hermitian eigensolve per degree run
in doubles, on entries whose exact powers of two are put back on each
lambda afterwards.  Moment Gram matrices in the monomial basis are far
too ill-conditioned for a float Cholesky, so this exact reduction is
what keeps degree ten reachable.

The norm lemma ||T|| <= 4 w(T) is decided here too, exactly: floats only
pick two vectors and a bound, from which exact arithmetic proves the
lemma or refuses it.  This module is the only one that uses numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, lcm, ldexp, perm, sqrt
from sys import float_info

import numpy as np

from .algebra import Poly, Scalar, gauss_dot, gauss_scalar
from .bimodule import BimodElement
from .errors import DoubleRangeError, NotHermitianError, NotPositiveError, SingularGramError
from .exactla import LdlResult, Matrix, _inverse_rows, ldl_psd
from .forms import FormMatrix
from .gns import Functional, hankel_gram
from .moments import MomentFunctional, power_sums

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

    q^j x q^k = q^j theta(x) q^k, and ``theta_terms`` gives theta(x) q^k =
    sum c h (q^k)^(r) = sum c k!/(k-r)! h q^(k-r), so with the shifted
    moment sequence s[m] = f(q^m h) of each term H[j][k] = sum c k!/(k-r)!
    s[j+k-r].  gauss-atoms has one term with r = 0, c = 1 and the sequence
    s[m] = sum_i w_i v_i p(x_i) x_i^m of its atom images.  The sequences
    are brought to the lcm of their denominators; the entries are summed
    and hermitised on the numerators.
    """
    n = degree + 1
    if func.kind == "gauss-atoms":
        re, im, den = func.atom_images(x, mf)
        xs, x_den, ws, w_den = mf.atom_numerators()
        top = 2 * n - 2
        sr, si = power_sums(
            [u * w for u, w in zip(re, ws)], [v * w for v, w in zip(im, ws)], xs, x_den, top
        )
        seqs = [(0, 1, (sr, si, den * w_den * x_den**top))]
    else:
        # the r-th term needs k >= r, so it reaches index 2N - r only
        seqs = [
            (r, c, mf.shifted_values(h, 2 * n - 1 - r))
            for r, c, h in func.theta_terms(x)
            if degree >= r
        ]
    den = lcm(*(d for _, _, (_, _, d) in seqs))
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for r, c, (sr, si, d) in seqs:
        for k in range(r, n):
            f = c * perm(k, r) * (den // d)
            for j in range(n):
                re[j][k] += f * sr[j + k - r]
                im[j][k] += f * si[j + k - r]
    # (H + H^H) / 2 over the doubled denominator
    return Matrix.from_numerators(
        [[a + b for a, b in zip(row, col)] for row, col in zip(re, zip(*re))],
        [[a - b for a, b in zip(row, col)] for row, col in zip(im, zip(*im))],
        2 * den,
        n,
    )


def _reduced_pencil(form: Matrix, ldl: LdlResult) -> list[list[Scalar]]:
    """Z = U H_P U^H with U = L^-1 on the pivot indices P, exactly.

    ``form`` is the hermitian H.  Each row of U is a Gaussian-integer row
    over its own denominator, so every entry of Z is an integer dot
    product of the numerators of H over du_a * den * du_c, reduced once.
    The leading r x r block of Z is the reduction of the leading block of
    H against the factor of the leading block of the Gram.
    """
    re, im, den = form.re, form.im, form.den
    piv = ldl.pivots
    inv = _inverse_rows(ldl.lower)
    h_cols = [([re[b][c] for b in piv], [im[b][c] for b in piv]) for c in piv]
    u_conj = [(ur, [-v for v in ui]) for ur, ui, _ in inv]
    z = [[None] * len(piv) for _ in piv]
    for a, (ur, ui, da) in enumerate(inv):
        # row a of Y = U H_P, on integers over da * den
        yr, yi = zip(*(gauss_dot(ur, ui, *col) for col in h_cols))
        for c in range(a, len(piv)):
            v = gauss_scalar(*gauss_dot(yr, yi, *u_conj[c]), da * den * inv[c][2])
            z[a][c] = v
            z[c][a] = v.conjugate()
    return z


def _block_lambdas(z, diag, ranks) -> list[float]:
    """max |eigenvalue| of each leading r x r block of D^-1/2 Z D^-1/2.

    Each pivot is split exactly as d = 4^e * r with 1 <= r < 4, so entry
    (a, b) is Z_ab * 2^-(e_a + e_b) / sqrt(r_a r_b); bit lengths give its
    power of two t to within one.  The largest t of the pencil is taken out
    of every entry as an integer shift before the float conversion and put
    back on each lambda with ldexp; a block whose own largest t is far
    below is converted again with its own.  So no entry overflows or
    vanishes, only an exactly zero block gives 0, and a lambda outside the
    normal double range raises DoubleRangeError.
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
    for c, ec in enumerate(exps):
        column = [(row[c], ea) for row, ea in zip(z[: c + 1], exps)]
        bits = [
            x.numerator.bit_length() - x.denominator.bit_length() - ea - ec
            for v, ea in column
            for x in (v.re, v.im)
            if x
        ]
        tops.append(max([tops[-1], *bits]))

    def block(size: int, shift: int) -> np.ndarray:
        # the upper triangle, then its conjugate below: Z is hermitian
        mat = np.array(
            [
                [0j] * a
                + [
                    complex(
                        _shifted(v.re.numerator, v.re.denominator, ea + eb + shift),
                        _shifted(v.im.numerator, v.im.denominator, ea + eb + shift),
                    )
                    / (ra * rb)
                    for v, eb, rb in zip(row[a:size], exps[a:], roots[a:])
                ]
                for a, (row, ea, ra) in enumerate(zip(z[:size], exps, roots))
            ]
        )
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

    The element must be hermitian so the quadratic form is real-valued.
    """
    degrees = tuple(degrees)
    if len(degrees) < 3 or list(degrees) != sorted(degrees):
        raise ValueError("need an increasing list of at least three degrees")
    if not x.is_hermitian():
        raise NotHermitianError("probe element must be hermitian")
    top = degrees[-1]
    ldl = ldl_psd(hankel_gram(mf, top))
    z = _reduced_pencil(form_numerators(func, x, mf, top), ldl)
    ranks = tuple(bisect_right(ldl.pivots, n) for n in degrees)
    if ranks[0] == 0:
        raise SingularGramError("Gram matrix vanishes at this degree")
    lam = _block_lambdas(z, ldl.diag, ranks)
    # Z is hermitian, so its upper triangle holds every bit length
    max_bits = max(
        (
            part.bit_length()
            for a, row in enumerate(z)
            for v in row[a:]
            for c in (v.re, v.im)
            for part in (c.numerator, c.denominator)
        ),
        default=0,
    )
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
    """
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or not t.size:
        raise ValueError("need a nonempty square matrix")
    n = len(t)
    seeds = []
    for part in (t + t.conj().T, (t - t.conj().T) / 1j):
        w, v = np.linalg.eigh(part)
        seeds.append(v[:, np.argmax(np.abs(w))])
    exact = [[Scalar(Fraction(z.real), Fraction(z.imag)) for z in row] for row in (*t, *seeds)]
    form = FormMatrix(Matrix(exact[:n]))
    lb = max(form.value(eta, eta).abs2() / sum(x.abs2() for x in eta) ** 2 for eta in exact[n:])
    c = Fraction(float(np.linalg.norm(t, 2)) ** 2 * (1 + 1e-9))
    proved = _norm_sq_at_most(form.mat, c)
    scale = sqrt(c) + 4 * sqrt(lb)
    slack = (float(c - 16 * lb) / scale if scale else 0.0) if proved else inf
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
