"""Small exact linear algebra over Gaussian rationals.

Only what the form and GNS layers need: hermitian checks, a natural-order
LDL^H factorisation that doubles as the positive-semidefiniteness gate
(leading-minor tests are unsound for singular matrices), the kernel basis
read off that factor, and inversion.  A ``Matrix`` stores Gaussian-integer
numerator rows over one denominator, as ``Poly`` does its coefficients,
and every routine runs on those integers: ``Matrix.product`` sums each
row of a product as a combination of the right factor's rows, chains
its factors left to right on the numerators and, like ``__add__``,
normalises the result once (``@`` is that routine on two factors);
``adjoint`` keeps den and the content gcd, so it needs no normalisation;
``poly_at`` runs Horner with the same row kernel from c_N A, and
``inverse`` fraction-free Gauss-Jordan on the numerators, and both build
one matrix at the end; ``ldl_psd``, the one LDL entry, checks shape
and hermitian symmetry itself, eliminates fraction-free (Bareiss) and
keeps L's row at every index, so that G = L D L^H holds with the n x r
factor; each output is normalised once.  ``nullspace``, the real
routine of the GNS realization's Hankel Gram, reads real integers only:
one triangular recurrence over the rows of L gives one real ``Poly`` per
index, the orthogonal polynomial P_a (a row of L^-1) at a pivot and a
kernel vector at a skipped index, with no second elimination and no read
of the Gram.
Sizes stay in the low tens, so the cubic algorithms are fine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

from .algebra import Immutable, Poly, Scalar, gauss_numerators, gauss_scalar
from .errors import DimensionMismatchError, NotPositiveError


class Matrix(Immutable):
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

    def __reduce__(self):
        return Matrix.from_numerators, (self.re, self.im, self.den, self.ncols)

    @classmethod
    def from_numerators(cls, re, im, den: int, ncols: int) -> "Matrix":
        """The matrix (re + im*i) / den of two int row lists of one shape, den > 0."""
        m = object.__new__(cls)
        _store(m, re, im, den, ncols)
        return m

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
        return Matrix.product(self, other)

    @staticmethod
    def product(first: "Matrix", *rest: "Matrix") -> "Matrix":
        """first @ rest[0] @ ..., left to right on the numerators, normalised once.

        A single factor is returned as it is, with no product.
        """
        if not rest:
            return first
        re, im, den, ncols = first.re, first.im, first.den, first.ncols
        for m in rest:
            if ncols != m.nrows:
                raise DimensionMismatchError(
                    f"cannot multiply {len(re)}x{ncols} by {m.nrows}x{m.ncols}"
                )
            re, im = _products(re, im, m.re, m.im, m.ncols)
            den *= m.den
            ncols = m.ncols
        return Matrix.from_numerators(re, im, den, ncols)

    def adjoint(self) -> "Matrix":
        """Conjugate transpose.

        A transpose and a conjugation keep den and the content gcd, so the
        result is canonical as it stands and takes no gcd.
        """
        m = object.__new__(Matrix)
        empty = ((),) * self.ncols  # the columns of a matrix with no rows
        _set(
            m,
            tuple(zip(*self.re)) or empty,
            tuple([tuple([-x for x in col]) for col in zip(*self.im)]) or empty,
            self.den,
            self.nrows,
        )
        return m

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


def _products(re, im, bre, bim, ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Numerator rows of (re + im*i)(bre + bim*i), the right factor ``ncols`` wide.

    Row i of the product is the sum over k of A[i][k] times row k of B,
    summed in place into two int lists.  A zero A[i][k] is skipped, and a
    real or purely imaginary one costs two products per column, not four.
    On the 2x2 and 3x3 products of the form layer the cost of a dot-product
    call per entry outweighed the integer multiplies.
    """
    out_re, out_im = [], []
    cols = range(ncols)
    for ar, ai in zip(re, im):
        sr = [0] * ncols
        si = [0] * ncols
        for x, y, br, bi in zip(ar, ai, bre, bim):
            if y:
                if x:
                    for j in cols:
                        u = br[j]
                        v = bi[j]
                        sr[j] += x * u - y * v
                        si[j] += x * v + y * u
                else:
                    for j in cols:
                        sr[j] -= y * bi[j]
                        si[j] += y * br[j]
            elif x:
                for j in cols:
                    sr[j] += x * br[j]
                    si[j] += x * bi[j]
        out_re.append(sr)
        out_im.append(si)
    return out_re, out_im


def _store(m: Matrix, re, im, den: int, ncols: int) -> None:
    """Set m to (re + im*i) / den in canonical form, with one gcd."""
    g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
    if g != 1:
        re = [[x // g for x in row] for row in re]
        im = [[x // g for x in row] for row in im]
        den //= g
    _set(m, tuple(map(tuple, re)), tuple(map(tuple, im)), den, ncols)


def _set(m: Matrix, re, im, den: int, ncols: int) -> None:
    """Set m's fields to data already in canonical form."""
    _set_re(m, re)
    _set_im(m, im)
    _set_den(m, den)
    _set_ncols(m, ncols)


# Matrix's slot setters, past the immutable __setattr__
_set_re = Matrix.re.__set__
_set_im = Matrix.im.__set__
_set_den = Matrix.den.__set__
_set_ncols = Matrix.ncols.__set__


def poly_at(p: Poly, m: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix: Horner on the numerators.

    With m = A / d and p = (c_k) / pden of degree N, S <- S A + c_k
    d^(N-k) I runs on Gaussian integers.  Its first step starts from
    S = c_N A, one scalar pass over A, so a degree-N polynomial takes
    N - 1 matrix products; a constant is c_0 I.  The result is
    S / (pden d^N), normalised once.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatchError("polynomial of a non-square matrix")
    n = m.nrows
    if not p.re:
        return Matrix.zeros(n, n)
    top = len(p.re) - 1
    tr, ti = p.re[top], p.im[top]
    if not top:
        sr = [[tr if i == j else 0 for j in range(n)] for i in range(n)]
        si = [[ti if i == j else 0 for j in range(n)] for i in range(n)]
        return Matrix.from_numerators(sr, si, p.den, n)
    sr = [[tr * a - ti * b for a, b in zip(ra, rb)] for ra, rb in zip(m.re, m.im)]
    si = [[tr * b + ti * a for a, b in zip(ra, rb)] for ra, rb in zip(m.re, m.im)]
    scale = 1
    for k in range(top - 1, -1, -1):
        cr, ci = p.re[k], p.im[k]
        scale *= m.den
        for i in range(n):
            sr[i][i] += cr * scale
            si[i][i] += ci * scale
        if k:
            sr, si = _products(sr, si, m.re, m.im, n)
    return Matrix.from_numerators(sr, si, p.den * scale, n)


class LdlResult(NamedTuple):
    """LDL^H data of a hermitian PSD matrix, eliminated in natural order.

    ``pivots`` are the increasing indices that carried a positive pivot,
    ``diag`` the positive pivot values, ``lower`` the rank-revealing factor
    L, n x r with G = L D L^H on the whole matrix: lower[a] holds one row
    per index a, the entries L[a][k] on the pivots p_k < a, each a triple
    (re, im, den) in lowest terms; L[p_k][k] = 1 and every other entry is
    0.  A skipped index had a vanishing residual row, and its row of L
    sits on the pivots below it.  The factor of a leading block of size m
    is the leading part of the factor of the whole matrix: the pivots
    below m, the matching entries of ``diag``, and ``lower[:m]``.
    """

    pivots: tuple[int, ...]
    diag: tuple[Fraction, ...]
    lower: tuple[tuple[tuple[int, int, int], ...], ...]


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
    # L[a][b] = conj(a_ba) / p_b for every index a and the pivots b < a
    lower = tuple(
        tuple([_reduced(nums[b][0][a], -nums[b][1][a], nums[b][0][b]) for b in pivots if b < a])
        for a in range(n)
    )
    return LdlResult(tuple(pivots), tuple(diag), lower)


def _reduced(re: int, im: int, den: int) -> tuple[int, int, int]:
    """(re + im*i) / den for den > 0, as the triple in lowest terms."""
    g = gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def nullspace(ldl: LdlResult) -> tuple[tuple[Poly, ...], tuple[Poly, ...]]:
    """The rows P_a of U = L^-1 and the kernel basis of a real PSD matrix, from its ``ldl``.

    One recurrence over every index a: v_a = e_a - sum_(pivots c<a)
    L[a][c] P_c, summed on the earlier rows' integer coefficients over the
    lcm of the denominator products of its terms, and stored as one real
    ``Poly`` monic in q^a.  At a pivot, v_a is that pivot's row of U =
    L^-1: the monic orthogonal polynomial P_a, zero off the pivots.  At a
    skipped index s, L^H v_s = 0, so v_s is the one kernel vector with 1
    at s and weight only on the pivots below it: the reduced-row-echelon
    basis vector of the free column s.  Only L's real parts are read: the
    one caller, ``build_gns``, factors a real Hankel Gram.
    """
    pivots = ldl.pivots
    rows, kernel = [], []
    for a, row in enumerate(ldl.lower):
        used = [(rows[c], x, xd) for c, (x, _, xd) in enumerate(row) if x]
        dd = lcm(*(xd * u.den for u, _, xd in used))
        nr = [0] * a + [dd]
        for u, x, xd in used:
            x *= dd // (xd * u.den)
            for j, c in enumerate(u.re):
                nr[j] -= x * c
        v = Poly.from_numerators(nr, [0] * (a + 1), dd)
        if a in pivots:
            rows.append(v)
        else:
            kernel.append(v)
    return tuple(rows), tuple(kernel)


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
