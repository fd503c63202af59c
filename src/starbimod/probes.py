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
indices P is done in rational arithmetic.  Natural order nests the
tower: the degree-N pencil is the leading r_N x r_N block of Z, with r_N
the number of pivots <= N.  Only the diagonal scaling by d^-1/2 and one
hermitian eigensolve per degree run in doubles.  Moment Gram matrices
in the monomial basis are far too ill-conditioned for a float Cholesky,
so this exact reduction is what keeps degree ten reachable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb, perm, sqrt

import numpy as np

from .algebra import ZERO, Poly, Scalar
from .bimodule import BimodElement
from .errors import NotHermitianError, SingularGramError
from .exactla import LdlResult, ldl_psd
from .gns import Functional, hankel_gram
from .moments import MomentFunctional

BOUNDED = "Bounded"
GROWTH = "GrowthDetected"


@dataclass(frozen=True)
class ProbeReport:
    degrees: tuple[int, ...]
    lambdas: tuple[float, ...]
    tolerance: float
    verdict: str

    @property
    def bounded(self) -> bool:
        return self.verdict == BOUNDED


def quadratic_form_matrix(
    func: Functional, x: BimodElement, mf: MomentFunctional, degree: int
) -> list[list[Scalar]]:
    """H[j][k] = F(q^j * x * q^k) for j, k <= degree, hermitised exactly.

    q^j x q^k has the triple (q^j h0 b, q^j (h0 b' + h1 b), q^j (h0 b'' +
    2 h1 b' + h2 b)) with b = q^k, so with c_i[s] = f(q^s h_i) the d^2
    variant F_t reads H[j][k] = sum_r C(t, r) k!/(k-r)! c_(t-r)[j+k-r].
    The Gaussian variants are Hankel: H[j][k] = c[j+k], c[s] = F(q^s x).
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

        def entry(j, k):
            acc = ZERO
            for r, binom, c in terms:
                if k >= r:
                    acc = acc + c[j + k - r] * (binom * perm(k, r))
            return acc

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

        def entry(j, k):
            return c[j + k]

    rows = [[entry(j, k) for k in range(n)] for j in range(n)]
    half = Scalar(1) / Scalar(2)
    return [
        [(rows[j][k] + rows[k][j].conjugate()) * half for k in range(n)]
        for j in range(n)
    ]


def _reduced_pencil(hmat, ldl: LdlResult) -> list[list[Scalar]]:
    """Z = L^-1 H_P L^-H on the pivot indices P, exactly.

    The leading r x r block of Z is the reduction of the leading block of
    H against the factor of the leading block of the Gram.
    """
    piv = ldl.pivots
    r = len(piv)
    lower = ldl.lower
    # forward solve L Y = H_P (rows)
    z = [[hmat[piv[a]][piv[b]] for b in range(r)] for a in range(r)]
    for a in range(r):
        for b in range(a):
            f = lower[a][b]
            if f:
                for c in range(r):
                    z[a][c] = z[a][c] - f * z[b][c]
    # right solve Z L^H = Y (columns)
    for c in range(r):
        for b in range(c):
            f = lower[c][b].conjugate()
            if f:
                for a in range(r):
                    z[a][c] = z[a][c] - z[a][b] * f
    return z


def plateau_verdict(lambdas, tolerance: float) -> str:
    """Bounded iff the final three values agree within the relative tolerance."""
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
    z = _reduced_pencil(quadratic_form_matrix(func, x, mf, top), ldl)
    scale = [1.0 / sqrt(float(d)) for d in ldl.diag]
    mat = np.array(
        [
            [complex(v) * sa * sb for v, sb in zip(row, scale)]
            for row, sa in zip(z, scale)
        ]
    )
    mat = 0.5 * (mat + mat.conj().T)
    lam = []
    for n in degrees:
        r = bisect_right(ldl.pivots, n)
        if r == 0:
            raise SingularGramError("Gram matrix vanishes at this degree")
        lam.append(float(np.max(np.abs(np.linalg.eigvalsh(mat[:r, :r])))))
    return ProbeReport(
        degrees, tuple(lam), tolerance, plateau_verdict(lam, tolerance)
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
