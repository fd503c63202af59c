"""Floating-point probes for boundedness questions on the truncation tower.

The exact layer can certify identities but not (un)boundedness; these
probes watch the Rayleigh quotient

    lambda_N = max |F(a^+ x a)| / f(a^+ a)   over deg(a) <= N

along a list of degrees and report a verdict: a plateau of the final
three values within a relative tolerance reads as Bounded, anything else
as GrowthDetected.  Neither verdict is a proof; the quotient is exact
data, the verdict a finite-degree heuristic.

All exact work happens once, at the top degree M of the list.  The form
H[j][k] = F(q^j x q^k) is built from its Hankel structure (one shifted
moment sequence per triple component, or one for the Gaussian
variants) and hermitised exactly.  The Hankel Gram G of degree M is
factored once as G = L D L^H in natural order, which skips the indices
of an exact kernel, and the congruence Z = L^-1 H_P L^-H on the pivot
indices P is done once.  All three steps run on Gaussian-integer
numerators over shared denominators: the form is summed and hermitised
on them, ``ldl_psd`` eliminates fraction-free, the rows of L^-1 are
integer rows over one denominator each, and each entry of Z is an
integer dot product reduced once.  Natural order nests the
tower: the degree-N pencil is the leading r_N x r_N block of Z, with r_N
the number of pivots <= N.  Only the diagonal scaling by d^-1/2 and one
hermitian eigensolve per degree run in doubles, and the scaling takes
the exact power of two out of each pivot before any float conversion.  Moment Gram matrices
in the monomial basis are far too ill-conditioned for a float Cholesky,
so this exact reduction is what keeps degree ten reachable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb, gcd, isfinite, lcm, perm, sqrt

import numpy as np

from .algebra import ZERO, Poly, Scalar, gauss_dot, gauss_numerators, gauss_scalar
from .bimodule import BimodElement
from .errors import DoubleRangeError, NotHermitianError, SingularGramError
from .exactla import LdlResult, ldl_psd
from .gns import Functional, hankel_gram
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


def quadratic_form_matrix(
    func: Functional, x: BimodElement, mf: MomentFunctional, degree: int
) -> list[list[Scalar]]:
    """H[j][k] = F(q^j * x * q^k) for j, k <= degree, hermitised exactly."""
    re, im, den = form_numerators(func, x, mf, degree)
    return [
        [gauss_scalar(a, b, den) for a, b in zip(rr, ri)] for rr, ri in zip(re, im)
    ]


def form_numerators(
    func: Functional, x: BimodElement, mf: MomentFunctional, degree: int
) -> tuple[list[list[int]], list[list[int]], int]:
    """The hermitised form (H + H^H)/2 as Gaussian-integer rows ``(re, im, den)``.

    q^j x q^k has the triple (q^j h0 b, q^j (h0 b' + h1 b), q^j (h0 b'' +
    2 h1 b' + h2 b)) with b = q^k, so with c_i[s] = f(q^s h_i) the d^2
    variant F_t reads H[j][k] = sum_r C(t, r) k!/(k-r)! c_(t-r)[j+k-r].
    The Gaussian variants are Hankel: H[j][k] = c[j+k], c[s] = F(q^s x).
    The sequences c share one denominator; the entries are summed and
    hermitised on their numerators.
    """
    func.check_compat(x, mf)
    n = degree + 1
    if func.kind in ("F0", "F1", "F2"):
        t = int(func.kind[1])
        triple = x.triple()
        # the r-th term needs k >= r, so it reaches index 2N - r only
        terms = [
            (r, comb(t, r), mf.shifted_values(triple[t - r], 2 * n - 1 - r))
            for r in range(t + 1)
            if degree >= r
        ]
        seqs, den = gauss_numerators([c for _, _, c in terms])
        re = [[0] * n for _ in range(n)]
        im = [[0] * n for _ in range(n)]
        for (r, binom, _), (cr, ci) in zip(terms, seqs):
            for k in range(r, n):
                f = binom * perm(k, r)
                for j in range(n):
                    re[j][k] += f * cr[j + k - r]
                    im[j][k] += f * ci[j + k - r]
    else:
        p = x.gauss_poly()
        if func.kind == "gauss-poly":
            c = mf.shifted_values(func.weight * p, 2 * n - 1)
        else:
            c = [ZERO] * (2 * n - 1)
            for (pt, w), v in zip(mf.atoms, func.atom_values):
                term = p(pt) * (w * v)
                for s in range(2 * n - 1):
                    c[s] = c[s] + term
                    term = term * pt
        [(cr, ci)], den = gauss_numerators([c])
        re = [cr[j : j + n] for j in range(n)]
        im = [ci[j : j + n] for j in range(n)]
    # (H + H^H) / 2 over the doubled denominator
    return (
        [[a + b for a, b in zip(row, col)] for row, col in zip(re, zip(*re))],
        [[a - b for a, b in zip(row, col)] for row, col in zip(im, zip(*im))],
        2 * den,
    )


def _reduced_pencil(form, ldl: LdlResult) -> list[list[Scalar]]:
    """Z = U H_P U^H with U = L^-1 on the pivot indices P, exactly.

    ``form`` is the hermitian H as ``(re, im, den)`` rows.  Each row of U
    is a Gaussian-integer row over its own denominator, so every entry of
    Z is an integer dot product over du_a * den * du_c, reduced once.  The
    leading r x r block of Z is the reduction of the leading block of H
    against the factor of the leading block of the Gram.
    """
    re, im, den = form
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


def _inverse_rows(lower) -> list[tuple[list[int], list[int], int]]:
    """Rows of L^-1 for a unit lower triangular L, each ``(re, im, den)``.

    Row a is e_a - sum_(c<a) L[a][c] U_c over the product of its own
    denominators, then divided by the gcd of its entries and denominator.
    """
    out = []
    for a, row in enumerate(lower):
        [(lr, li)], dl = gauss_numerators([row[:a]])
        used = [(c, lr[c], li[c]) for c in range(a) if lr[c] or li[c]]
        dd = dl * lcm(*(out[c][2] for c, _, _ in used))
        nr = [0] * a + [dd]
        ni = [0] * (a + 1)
        for c, xr, xi in used:
            ur, ui, dc = out[c]
            f = dd // (dl * dc)
            xr, xi = xr * f, xi * f
            for b, (vr, vi) in enumerate(zip(ur, ui)):
                nr[b] -= xr * vr - xi * vi
                ni[b] -= xr * vi + xi * vr
        g = gcd(dd, *nr, *ni)
        out.append(([v // g for v in nr], [v // g for v in ni], dd // g))
    return out


def _scaled_pencil(z, diag) -> np.ndarray:
    """D^-1/2 Z D^-1/2 in doubles, hermitised, for any size of pivot.

    Each pivot is split exactly as d = 4^e * r with 1 <= r < 4, so entry
    (a, b) is Z_ab * 2^-(e_a + e_b) / sqrt(r_a r_b).  The power of two is
    an integer shift of the entry's numerator or denominator before its
    float conversion, so pivots beyond the double range (moments near
    1e400 or 1e-400) neither overflow nor vanish.  An entry that is itself
    beyond it, as for a lambda near 1e400, raises DoubleRangeError.
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
    try:
        mat = np.array(
            [
                [
                    complex(
                        _shifted(v.re.numerator, v.re.denominator, ea + eb),
                        _shifted(v.im.numerator, v.im.denominator, ea + eb),
                    )
                    / (ra * rb)
                    for v, eb, rb in zip(row, exps, roots)
                ]
                for row, ea, ra in zip(z, exps, roots)
            ]
        )
    except OverflowError:
        raise DoubleRangeError(
            "the scaled pencil has an entry beyond the double range, so lambda does too"
        ) from None
    # halving first keeps a sum of two finite entries finite
    return 0.5 * mat + 0.5 * mat.conj().T


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
    mat = _scaled_pencil(z, ldl.diag)
    ranks = tuple(bisect_right(ldl.pivots, n) for n in degrees)
    if ranks[0] == 0:
        raise SingularGramError("Gram matrix vanishes at this degree")
    lam = [float(np.max(np.abs(np.linalg.eigvalsh(mat[:r, :r])))) for r in ranks]
    max_bits = max(
        (
            part.bit_length()
            for row in z
            for v in row
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
    """Numerical-radius estimate against the operator norm."""

    radius_estimate: float
    norm: float
    tolerance: float

    @property
    def bound(self) -> float:
        return 4.0 * self.radius_estimate

    @property
    def holds(self) -> bool:
        return self.norm <= self.bound + self.tolerance


def numerical_radius_norm_check(
    t, samples: int = 10_000, seed: int = 0, tolerance: float = 1e-9
) -> NormBoundReport:
    """Estimate sup |<T eta, eta>| over unit vectors; check norm <= 4 sup.

    The estimate combines random unit vectors with eigenvector seeds of
    the hermitian and antihermitian parts; the seeds alone already put
    the estimate within a factor two of the true numerical radius, which
    makes the factor-four bound robust to sampling error.
    """
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("need a square matrix")
    n = t.shape[0]
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    herm = 0.5 * (t + t.conj().T)
    skew = (t - t.conj().T) / 2j
    _, vh = np.linalg.eigh(herm)
    _, vs = np.linalg.eigh(skew)
    block = np.vstack([block, vh.T, vs.T])
    quads = np.abs((block.conj() * (block @ t.T)).sum(axis=1))
    radius = float(np.max(quads))
    norm = float(np.linalg.norm(t, 2))
    return NormBoundReport(radius, norm, tolerance)
