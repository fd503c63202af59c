"""Small exact linear algebra over Gaussian rationals.

Only what the form and GNS layers need: hermitian checks, a natural-order
LDL^H factorisation that doubles as the positive-semidefiniteness gate
(leading-minor tests are unsound for singular matrices), an exact null
space, and inversion.  Products and the LDL^H run in Gaussian integers:
``Matrix.__matmul__`` takes integer dot products of rows and columns
over their own denominators, ``poly_at`` runs Horner on the numerators
of the polynomial and of the matrix, and ``ldl_psd`` eliminates
fraction-free (Bareiss) on the numerators of the whole matrix over one
shared denominator, building each output entry once.  ``nullspace`` and
``inverse`` still run Gauss-Jordan on Scalars.  Sizes stay in the low
tens, so the cubic algorithms are fine.
"""

from __future__ import annotations

from fractions import Fraction
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

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows])

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


def nullspace(m: Matrix) -> list[tuple[Scalar, ...]]:
    """Exact null space basis via reduced row echelon form.

    One basis vector per free column, entry 1 at the free index; the
    result is deterministic and canonical for a given matrix.
    """
    rows = [list(r) for r in m.rows]
    nr, nc = len(rows), m.ncols
    pivot_cols: list[int] = []
    rank = 0
    for col in range(nc):
        sel = None
        for i in range(rank, nr):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = ONE / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(nr):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == nr:
            break
    free = [c for c in range(nc) if c not in pivot_cols]
    basis = []
    for fc in free:
        vec = [ZERO] * nc
        vec[fc] = ONE
        for r_idx, pc in enumerate(pivot_cols):
            vec[pc] = -rows[r_idx][fc]
        basis.append(tuple(vec))
    return basis


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
