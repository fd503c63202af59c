"""Small exact linear algebra over Gaussian rationals.

Only what the form and GNS layers need: hermitian checks, a natural-order
LDL^H factorisation that doubles as the positive-semidefiniteness gate
(leading-minor tests are unsound for singular matrices), an exact null
space, and Gauss-Jordan inversion.  Sizes stay in the low tens, so the
cubic algorithms are fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import ONE, ZERO, Poly, Scalar
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

    def scale(self, c) -> "Matrix":
        c = Scalar.coerce(c)
        return Matrix([[a * c for a in r] for r in self.rows])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        cols = other.ncols
        out = []
        for r in self.rows:
            row = []
            for j in range(cols):
                acc = ZERO
                for k, a in enumerate(r):
                    if a:
                        acc = acc + a * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out)

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
    """Evaluate a polynomial at a square matrix (Horner)."""
    if m.nrows != m.ncols:
        raise DimensionMismatchError("polynomial of a non-square matrix")
    n = m.nrows
    acc = Matrix.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = (acc @ m) + Matrix.identity(n).scale(c)
    return acc


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

    Eliminates the indices in natural order.  A negative pivot, a complex
    diagonal entry, or a zero pivot whose residual row does not vanish
    disproves PSD and raises NotPositiveError; a zero pivot with a
    vanishing residual row is skipped.
    """
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatchError("LDL of a non-square matrix")
    if m != m.adjoint():
        raise NotPositiveError("matrix is not hermitian")
    # the residual stays hermitian, so only its upper triangle is updated
    work = [list(r) for r in m.rows]
    pivots: list[int] = []
    diag: list[Fraction] = []
    cols: list[list[Scalar]] = []
    for p in range(n):
        pivot = work[p][p]
        if not pivot.is_real():
            raise NotPositiveError("non-real diagonal entry")
        if pivot.re < 0:
            raise NotPositiveError(f"negative pivot {pivot.re}")
        row = work[p]
        if pivot.re == 0:
            if any(row[j] for j in range(p + 1, n)):
                raise NotPositiveError("zero pivot with a nonzero residual row")
            continue
        # col[i] = L[i][p] = conj(row[i]) / pivot, for the indices after p
        col = [ZERO] * n
        for i in range(p + 1, n):
            if row[i]:
                col[i] = row[i].conjugate() / pivot
        pivots.append(p)
        diag.append(pivot.re)
        cols.append(col)
        for i in range(p + 1, n):
            li = col[i]
            if not li:
                continue
            wi = work[i]
            for j in range(i, n):
                if row[j]:
                    wi[j] = wi[j] - li * row[j]
    lower = tuple(
        tuple(
            ONE if a == b else (cols[b][pivots[a]] if a > b else ZERO)
            for b in range(len(pivots))
        )
        for a in range(len(pivots))
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
