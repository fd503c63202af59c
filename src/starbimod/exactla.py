"""Small exact linear algebra over Gaussian rationals.

Only what the form and GNS layers need: hermitian checks, a natural-order
LDL^H factorisation that doubles as the positive-semidefiniteness gate
(leading-minor tests are unsound for singular matrices), the kernel basis
read off that factor, and inversion.  All but ``inverse`` (Gauss-Jordan
on Scalars) run in Gaussian integers: ``Matrix.__matmul__`` takes integer
dot products of rows and columns over their own denominators,
``poly_at`` runs Horner on the numerators of the polynomial and of the
matrix, ``ldl_psd`` eliminates fraction-free (Bareiss) on the numerators
of the whole matrix over one shared denominator, and ``nullspace``
solves the kernel through the integer rows of L^-1, with no second
elimination; each output entry is built once.  Sizes stay in the low
tens, so the cubic algorithms are fine.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .algebra import ONE, ZERO, Poly, Scalar, gauss_dot, gauss_numerators, gauss_scalar
from .errors import DimensionMismatchError, NotPositiveError


class Matrix:
    """Immutable rectangular matrix of Scalars."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(Scalar.coerce(x) for x in row) for row in rows)
        if rs and any(len(r) != len(rs[0]) for r in rs):
            raise DimensionMismatchError("ragged rows")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls([[ZERO] * c for _ in range(r)])

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        es = [Scalar.coerce(e) for e in entries]
        n = len(es)
        return cls([[es[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        rows = [gauss_numerators([r]) for r in self.rows]
        cols = [gauss_numerators([c]) for c in zip(*other.rows)]
        # gauss_dot inlined: a call per entry cost about 15% on the 2x2 and
        # 3x3 products of the form layer
        return Matrix(
            [
                [
                    gauss_scalar(
                        sum(map(mul, rr, cr)) - sum(map(mul, ri, ci)),
                        sum(map(mul, rr, ci)) + sum(map(mul, ri, cr)),
                        dr * dc,
                    )
                    for [(cr, ci)], dc in cols
                ]
                for [(rr, ri)], dr in rows
            ]
        )

    def adjoint(self) -> "Matrix":
        """Conjugate transpose."""
        return Matrix(
            [
                [self.rows[i][j].conjugate() for i in range(self.nrows)]
                for j in range(self.ncols)
            ]
        )

    def is_hermitian(self) -> bool:
        return self.nrows == self.ncols and self == self.adjoint()

    def apply(self, vec):
        """Matrix times a vector of Scalars."""
        if len(vec) != self.ncols:
            raise DimensionMismatchError("vector length mismatch")
        return tuple(
            sum((a * v for a, v in zip(r, vec)), ZERO) for r in self.rows
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.rows]!r})"

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatchError("shape mismatch")


def poly_at(p: Poly, m: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix (Horner, in integers).

    With m = A / e over one denominator and n the degree, the sum
    sum_k c_k A^k e^(n-k) is accumulated on the numerators of p and A,
    as in ``Poly.__call__``, and each entry is divided by p.den * e^n once.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatchError("polynomial of a non-square matrix")
    n = m.nrows
    if not p.re:
        return Matrix.zeros(n, n)
    nums, e = gauss_numerators(m.rows)
    cols = list(zip(zip(*[r for r, _ in nums]), zip(*[i for _, i in nums])))
    acc_re = [[p.re[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    acc_im = [[p.im[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    scale = 1
    for cr, ci in zip(reversed(p.re[:-1]), reversed(p.im[:-1])):
        scale *= e
        rows = [
            [gauss_dot(ar, ai, br, bi) for br, bi in cols]
            for ar, ai in zip(acc_re, acc_im)
        ]
        acc_re = [[x for x, _ in row] for row in rows]
        acc_im = [[y for _, y in row] for row in rows]
        for i in range(n):
            acc_re[i][i] += cr * scale
            acc_im[i][i] += ci * scale
    den = p.den * scale
    return Matrix(
        [
            [gauss_scalar(a, b, den) for a, b in zip(ar, ai)]
            for ar, ai in zip(acc_re, acc_im)
        ]
    )


class LdlResult(NamedTuple):
    """LDL^H data of a hermitian PSD matrix, eliminated in natural order.

    ``pivots`` are the increasing indices that carried a positive pivot,
    ``diag`` the positive pivot values, ``lower`` the unit lower triangle
    on those indices (lower[a][b] for a > b).  Skipped indices had a
    vanishing residual row.  The factor of a leading block is the leading
    part of the factor of the whole matrix: the pivots below the block
    size, and the matching leading entries of ``diag`` and ``lower``.
    """

    pivots: tuple[int, ...]
    diag: tuple[Fraction, ...]
    lower: tuple[tuple[Scalar, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def ldl_psd(m: Matrix) -> LdlResult:
    """Factor a hermitian matrix, proving positive semidefiniteness.

    Eliminates the indices in natural order, fraction-free (Bareiss) on the
    Gaussian-integer numerators A of m = A / den: with p the pivot and
    prev the previous one (1 at first), a_ij <- (p a_ij - a_ip a_pj) / prev
    is an exact division by a real integer.  Then d_k = p_k / (prev den)
    and L[i][k] = conj(a_ki) / p_k.  A complex diagonal entry, a
    non-hermitian input, a negative pivot, or a zero pivot whose residual
    row does not vanish disproves PSD and raises NotPositiveError; a zero
    pivot with a vanishing residual row is skipped and keeps prev, so the
    divisions stay exact.
    """
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatchError("LDL of a non-square matrix")
    nums, den = gauss_numerators(m.rows)
    if any(nums[k][1][k] for k in range(n)):
        raise NotPositiveError("non-real diagonal entry")
    if any(
        re[j] != nums[j][0][i] or im[j] != -nums[j][1][i]
        for i, (re, im) in enumerate(nums)
        for j in range(i + 1, n)
    ):
        raise NotPositiveError("matrix is not hermitian")
    # the residual stays hermitian, so only its upper triangle is updated;
    # a pivot's row is final once it is eliminated
    pivots: list[int] = []
    diag: list[Fraction] = []
    prev = 1
    for p, (pr, pi) in enumerate(nums):
        pivot = pr[p]
        if pivot < 0:
            raise NotPositiveError(f"negative pivot {Fraction(pivot, prev * den)}")
        if pivot == 0:
            if any(pr[p + 1 :]) or any(pi[p + 1 :]):
                raise NotPositiveError("zero pivot with a nonzero residual row")
            continue
        pivots.append(p)
        diag.append(Fraction(pivot, prev * den))
        for i in range(p + 1, n):
            xr, xi = pr[i], -pi[i]  # a_ip = conj(a_pi)
            wr, wi = nums[i]
            for j in range(i, n):
                yr, yi = pr[j], pi[j]
                wr[j] = (pivot * wr[j] - xr * yr + xi * yi) // prev
                wi[j] = (pivot * wi[j] - xr * yi - xi * yr) // prev
        prev = pivot
    # L[a][b] = conj(a_ba) / p_b on the pivot indices
    lower = tuple(
        tuple(
            gauss_scalar(nums[b][0][a], -nums[b][1][a], nums[b][0][b])
            if a > b
            else (ONE if a == b else ZERO)
            for b in pivots
        )
        for a in pivots
    )
    return LdlResult(tuple(pivots), tuple(diag), lower)


def nullspace(gram: Matrix, ldl: LdlResult) -> list[tuple[Scalar, ...]]:
    """Kernel basis of a hermitian PSD matrix, read off ``ldl = ldl_psd(gram)``.

    For a skipped index s, with P the pivots below s, U = L^-1 on P and g
    column s of the Gram on P, v = e_s - U^H D^-1 U g is the one kernel
    vector with 1 at s and weight only on P: the reduced-row-echelon basis
    vector of the free column s.  It is summed on Gaussian-integer
    numerators over one denominator, and each entry is reduced once.
    """
    skipped = [s for s in range(gram.nrows) if s not in ldl.pivots]
    inv = _inverse_rows(ldl.lower[: bisect_left(ldl.pivots, max(skipped, default=0))])
    # D^-1 with the two row denominators of U^H D^-1 U, over one lcm
    dens = [d.numerator * du * du for d, (_, _, du) in zip(ldl.diag, inv)]
    common = lcm(*dens)
    weights = [d.denominator * (common // e) for d, e in zip(ldl.diag, dens)]
    basis = []
    for s in skipped:
        below = ldl.pivots[: bisect_left(ldl.pivots, s)]
        [(gr, gi)], dg = gauss_numerators([[gram.rows[b][s] for b in below]])
        vr, vi = [0] * len(below), [0] * len(below)
        for (ur, ui, _), f in zip(inv, weights[: len(below)]):
            wr, wi = (f * w for w in gauss_dot(ur, ui, gr, gi))
            for b, (xr, xi) in enumerate(zip(ur, ui)):  # v -= conj(u_a) w_a
                vr[b] -= xr * wr + xi * wi
                vi[b] -= xr * wi - xi * wr
        vec = [ZERO] * gram.nrows
        vec[s] = ONE
        for b, re, im in zip(below, vr, vi):
            vec[b] = gauss_scalar(re, im, common * dg)
        basis.append(tuple(vec))
    return basis


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


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatchError("inverse of a non-square matrix")
    work = [list(r) + list(Matrix.identity(n).rows[i]) for i, r in enumerate(m.rows)]
    for col in range(n):
        sel = next((i for i in range(col, n) if work[i][col]), None)
        if sel is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[sel] = work[sel], work[col]
        inv = ONE / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return Matrix([row[n:] for row in work])
