"""Small exact linear algebra over Gaussian rationals.

Only what the form and GNS layers need: hermitian checks, a natural-order
LDL^H factorisation that doubles as the positive-semidefiniteness gate
(leading-minor tests are unsound for singular matrices), the kernel basis
read off that factor, and inversion.  A ``Matrix`` stores Gaussian-integer
numerator rows over one denominator, as ``Poly`` does its coefficients,
and every routine runs on those integers: ``Matrix.__matmul__``,
``__add__`` and ``adjoint`` normalise each result once, ``poly_at`` runs
Horner and ``inverse`` fraction-free Gauss-Jordan on the numerators and
build one matrix at the end, ``ldl_psd`` eliminates fraction-free
(Bareiss), and ``nullspace`` solves the kernel through the integer rows
of L^-1, with no second elimination; each output is normalised once.
Sizes stay in the low tens, so the cubic algorithms are fine.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .algebra import Poly, Scalar, gauss_dot, gauss_numerators, gauss_scalar
from .errors import DimensionMismatchError, NotPositiveError


class Matrix:
    """Immutable rectangular matrix of Gaussian rationals, in canonical form.

    Stored as Gaussian-integer numerator rows over one denominator: entry
    (i, j) is (re[i][j] + im[i][j]*i) / den, with den > 0 and gcd(den,
    every numerator) == 1, and the column count ``ncols``, so a matrix
    with no rows keeps its shape.  Equality and hashing are structural on
    that form; ``rows`` and ``m[i, j]`` are Scalar views, built per call.
    """

    __slots__ = ("re", "im", "den", "ncols")

    def __init__(self, rows):
        rows = [[Scalar.coerce(x) for x in row] for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatchError("ragged rows")
        nums, den = gauss_numerators(rows)
        _store(self, [r for r, _ in nums], [i for _, i in nums], den, ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_numerators(cls, re, im, den: int, ncols: int) -> "Matrix":
        """The matrix (re + im*i) / den of two int row lists of one shape, den > 0."""
        m = object.__new__(cls)
        _store(m, re, im, den, ncols)
        return m

    @classmethod
    def hankel(cls, values, den: int, n: int) -> "Matrix":
        """The real n x n Hankel matrix values[j + k] / den, den > 0.

        Reduced by one gcd over its 2n - 1 distinct values, not its n^2 entries.
        """
        values = values[: 2 * n - 1]
        g = gcd(den, *values)
        if g != 1:
            values = [v // g for v in values]
            den //= g
        m = object.__new__(cls)
        _set(m, tuple([tuple(values[j : j + n]) for j in range(n)]), ((0,) * n,) * n, den, n)
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([1] * n)

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls.from_numerators([[0] * c] * r, [[0] * c] * r, 1, c)

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        es = list(entries)
        return cls([[e if i == j else 0 for j in range(len(es))] for i, e in enumerate(es)])

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries as Scalars, row by row (a view, built per call)."""
        den = self.den
        return tuple(
            tuple([gauss_scalar(a, b, den) for a, b in zip(rr, ri)])
            for rr, ri in zip(self.re, self.im)
        )

    @property
    def nrows(self) -> int:
        return len(self.re)

    def __getitem__(self, ij):
        i, j = ij
        return gauss_scalar(self.re[i][j], self.im[i][j], self.den)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatchError("shape mismatch")
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return Matrix.from_numerators(
            [[f * a + g * b for a, b in zip(r1, r2)] for r1, r2 in zip(self.re, other.re)],
            [[f * a + g * b for a, b in zip(r1, r2)] for r1, r2 in zip(self.im, other.im)],
            den,
            self.ncols,
        )

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        # with no rows, each of other's ncols columns is empty
        cols = list(zip(zip(*other.re), zip(*other.im))) or [((), ())] * other.ncols
        return Matrix.from_numerators(
            *_products(self.re, self.im, cols), self.den * other.den, other.ncols
        )

    def adjoint(self) -> "Matrix":
        """Conjugate transpose."""
        return Matrix.from_numerators(
            list(zip(*self.re)) or [()] * self.ncols,
            [[-x for x in col] for col in zip(*self.im)] or [()] * self.ncols,
            self.den,
            self.nrows,
        )

    def is_hermitian(self) -> bool:
        return self.nrows == self.ncols and self == self.adjoint()

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.den == other.den
            and self.ncols == other.ncols
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im, self.den, self.ncols))

    def __repr__(self):
        if not self.re:
            return f"Matrix.zeros(0, {self.ncols})"
        return f"Matrix({[list(map(str, r)) for r in self.rows]!r})"


def _products(re, im, cols) -> tuple[list[list[int]], list[list[int]]]:
    """Numerator rows of (re + im*i) times the Gaussian-integer ``cols``.

    ``cols`` holds each column as a (real, imaginary) pair of int tuples.
    """
    rows = list(zip(re, im))
    # gauss_dot inlined: a call per entry cost about 15% on the 2x2 and
    # 3x3 products of the form layer
    return (
        [[sum(map(mul, rr, cr)) - sum(map(mul, ri, ci)) for cr, ci in cols] for rr, ri in rows],
        [[sum(map(mul, rr, ci)) + sum(map(mul, ri, cr)) for cr, ci in cols] for rr, ri in rows],
    )


def _store(m: Matrix, re, im, den: int, ncols: int) -> None:
    """Set m to (re + im*i) / den in canonical form, with one gcd."""
    g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
    if g != 1:
        re = [[x // g for x in row] for row in re]
        im = [[x // g for x in row] for row in im]
        den //= g
    # tuples are built from lists, as in algebra._store
    _set(m, tuple([tuple(row) for row in re]), tuple([tuple(row) for row in im]), den, ncols)


def _set(m: Matrix, re, im, den: int, ncols: int) -> None:
    """Set m's fields to data already in canonical form."""
    object.__setattr__(m, "re", re)
    object.__setattr__(m, "im", im)
    object.__setattr__(m, "den", den)
    object.__setattr__(m, "ncols", ncols)


def poly_at(p: Poly, m: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix: Horner on the numerators.

    With m = A / d and p = (c_k) / pden of degree N, S <- S A + c_k
    d^(N-k) I runs on Gaussian integers from S = c_N I, and the result is
    S / (pden d^N), normalised once.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatchError("polynomial of a non-square matrix")
    n = m.nrows
    if not p.re:
        return Matrix.zeros(n, n)
    cols = list(zip(zip(*m.re), zip(*m.im)))
    top = len(p.re) - 1
    sr = [[p.re[top] if i == j else 0 for j in range(n)] for i in range(n)]
    si = [[p.im[top] if i == j else 0 for j in range(n)] for i in range(n)]
    scale = 1
    for cr, ci in zip(reversed(p.re[:top]), reversed(p.im[:top])):
        scale *= m.den
        sr, si = _products(sr, si, cols)
        for i in range(n):
            sr[i][i] += cr * scale
            si[i][i] += ci * scale
    return Matrix.from_numerators(sr, si, p.den * scale, n)


class LdlResult(NamedTuple):
    """LDL^H data of a hermitian PSD matrix, eliminated in natural order.

    ``pivots`` are the increasing indices that carried a positive pivot,
    ``diag`` the positive pivot values, ``lower`` the unit lower triangle
    on those indices: lower[a][b] for b < a, a triple (re, im, den) in
    lowest terms.  Skipped indices had a vanishing residual row.  The
    factor of a leading block is the leading part of the factor of the
    whole matrix: the pivots below the block size, and the matching
    leading entries of ``diag`` and ``lower``.
    """

    pivots: tuple[int, ...]
    diag: tuple[Fraction, ...]
    lower: tuple[tuple[tuple[int, int, int], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def ldl_psd(m: Matrix) -> LdlResult:
    """Factor a hermitian matrix, proving positive semidefiniteness.

    Eliminates the indices in natural order, fraction-free (Bareiss) on the
    Gaussian-integer numerators A of m = A / den: with p the pivot and
    prev the previous one (1 at first), a_ij <- (p a_ij - a_ip a_pj) / prev
    is an exact division by a real integer.  Then d_k = p_k / (prev den)
    and L[i][k] = conj(a_ki) / p_k, reduced once.  A complex diagonal
    entry, a non-hermitian input, a negative pivot, or a zero pivot whose
    residual row does not vanish disproves PSD and raises
    NotPositiveError; a zero pivot with a vanishing residual row is
    skipped and keeps prev, so the divisions stay exact.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatchError("LDL of a non-square matrix")
    if any(m.im[k][k] for k in range(m.nrows)):
        raise NotPositiveError("non-real diagonal entry")
    if m != m.adjoint():
        raise NotPositiveError("matrix is not hermitian")
    return hermitian_ldl(m)


def hermitian_ldl(m: Matrix) -> LdlResult:
    """``ldl_psd`` without its shape and hermitian checks.

    For a caller that has already found m hermitian, so that its adjoint
    is built once; the PSD gate of the elimination is unchanged.
    """
    n = m.nrows
    nums = [(list(re), list(im)) for re, im in zip(m.re, m.im)]
    # the residual stays hermitian, so only its upper triangle is updated;
    # a pivot's row is final once it is eliminated
    pivots: list[int] = []
    diag: list[Fraction] = []
    prev = 1
    for p, (pr, pi) in enumerate(nums):
        pivot = pr[p]
        if pivot < 0:
            raise NotPositiveError(f"negative pivot {Fraction(pivot, prev * m.den)}")
        if pivot == 0:
            if any(pr[p + 1 :]) or any(pi[p + 1 :]):
                raise NotPositiveError("zero pivot with a nonzero residual row")
            continue
        pivots.append(p)
        diag.append(Fraction(pivot, prev * m.den))
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
        tuple([_reduced(nums[b][0][a], -nums[b][1][a], nums[b][0][b]) for b in pivots[:k]])
        for k, a in enumerate(pivots)
    )
    return LdlResult(tuple(pivots), tuple(diag), lower)


def _reduced(re: int, im: int, den: int) -> tuple[int, int, int]:
    """(re + im*i) / den for den > 0, as the triple in lowest terms."""
    g = gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def nullspace(gram: Matrix, ldl: LdlResult, rows) -> list[Poly]:
    """Kernel basis of a hermitian PSD matrix, read off ``ldl = ldl_psd(gram)``.

    ``rows`` are the rows of U = L^-1, as ``_inverse_rows(ldl.lower)``
    gives them.  For a skipped index s, with P the pivots below s, U on P
    and g column s of the Gram on P, v = e_s - U^H D^-1 U g is the one
    kernel vector with 1 at s and weight only on P: the reduced-row-echelon
    basis vector of the free column s.  It is summed on Gaussian-integer
    numerators over one denominator and returned as the ``Poly`` of v.
    """
    skipped = [s for s in range(gram.nrows) if s not in ldl.pivots]
    inv = rows[: bisect_left(ldl.pivots, max(skipped, default=0))]
    # D^-1 with the two row denominators of U^H D^-1 U, over one lcm
    dens = [d.numerator * du * du for d, (_, _, du) in zip(ldl.diag, inv)]
    common = lcm(*dens)
    weights = [d.denominator * (common // e) for d, e in zip(ldl.diag, dens)]
    den = common * gram.den
    basis = []
    for s in skipped:
        below = ldl.pivots[: bisect_left(ldl.pivots, s)]
        gr, gi = [gram.re[b][s] for b in below], [gram.im[b][s] for b in below]
        vr, vi = [0] * len(below), [0] * len(below)
        for (ur, ui, _), f in zip(inv, weights[: len(below)]):
            wr, wi = (f * w for w in gauss_dot(ur, ui, gr, gi))
            for b, (xr, xi) in enumerate(zip(ur, ui)):  # v -= conj(u_a) w_a
                vr[b] -= xr * wr + xi * wi
                vi[b] -= xr * wi - xi * wr
        re, im = [0] * (s + 1), [0] * (s + 1)
        re[s] = den
        for b, xr, xi in zip(below, vr, vi):
            re[b], im[b] = xr, xi
        basis.append(Poly.from_numerators(re, im, den))
    return basis


def _inverse_rows(lower) -> list[tuple[list[int], list[int], int]]:
    """Rows of U = L^-1 for L as in ``LdlResult.lower``, each ``(re, im, den)``.

    Row a is e_a - sum_(c<a) L[a][c] U_c over the lcm of the denominator
    products of its terms, then divided by the gcd of its entries and den.
    """
    out = []
    for a, row in enumerate(lower):
        used = [(c, xr, xi, xd) for c, (xr, xi, xd) in enumerate(row) if xr or xi]
        dd = lcm(*(xd * out[c][2] for c, _, _, xd in used))
        nr = [0] * a + [dd]
        ni = [0] * (a + 1)
        for c, xr, xi, xd in used:
            ur, ui, dc = out[c]
            f = dd // (xd * dc)
            xr, xi = xr * f, xi * f
            for b, (vr, vi) in enumerate(zip(ur, ui)):
                nr[b] -= xr * vr - xi * vi
                ni[b] -= xr * vi + xi * vr
        g = gcd(dd, *nr, *ni)
        out.append(([v // g for v in nr], [v // g for v in ni], dd // g))
    return out


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by fraction-free Gauss-Jordan; raises on singular input.

    Eliminates [A | den I] for m = A / den on Gaussian integers: with p
    the pivot, row_i <- p row_i - f row_p, then row_i is divided by the
    gcd of its numerators.  Row i ends as p_i e_i | B_i, so row i of the
    inverse is B_i conj(p_i) / |p_i|^2; all rows go over lcm |p_i|^2.
    """
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatchError("inverse of a non-square matrix")
    den = m.den
    re = [list(r) + [den if i == j else 0 for j in range(n)] for i, r in enumerate(m.re)]
    im = [list(r) + [0] * n for r in m.im]
    for col in range(n):
        sel = next((i for i in range(col, n) if re[i][col] or im[i][col]), None)
        if sel is None:
            raise ZeroDivisionError("singular matrix")
        re[col], re[sel] = re[sel], re[col]
        im[col], im[sel] = im[sel], im[col]
        pr, pi, yr, yi = re[col][col], im[col][col], re[col], im[col]
        for i in range(n):
            fr, fi = re[i][col], im[i][col]
            if i == col or not (fr or fi):
                continue
            xr, xi = re[i], im[i]
            nr = [pr * a - pi * b - fr * c + fi * d for a, b, c, d in zip(xr, xi, yr, yi)]
            ni = [pr * b + pi * a - fr * d - fi * c for a, b, c, d in zip(xr, xi, yr, yi)]
            g = gcd(*nr, *ni)
            re[i], im[i] = [v // g for v in nr], [v // g for v in ni]
    norms = [re[i][i] ** 2 + im[i][i] ** 2 for i in range(n)]
    common = lcm(*norms)
    out_re, out_im = [], []
    for i, norm in enumerate(norms):
        # B_i conj(p_i) scaled to the common denominator
        pr, pi, f = re[i][i], -im[i][i], common // norm
        out_re.append([f * (pr * a - pi * b) for a, b in zip(re[i][n:], im[i][n:])])
        out_im.append([f * (pr * b + pi * a) for a, b in zip(re[i][n:], im[i][n:])])
    return Matrix.from_numerators(out_re, out_im, common, n)
