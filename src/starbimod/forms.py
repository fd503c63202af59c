"""Sesquilinear forms on a finite-dimensional left module over C[q].

The module structure is a single matrix R (the action of the generator q,
hermitian for the declared inner product Gram matrix G); arbitrary
polynomials act through evaluation at R.  A form is stored as the matrix
M with x(phi, psi) = psi^H M phi, so the two-sided action reads

    a * x * b  <->  R(a^+)^H  M  R(b),

and the involution is the conjugate transpose.  R, G and M are exact
``Matrix`` values, so all of these are products and adjoints of them.
An ``ActionTable`` evaluates each polynomial at R once and keeps the
result, with the adjoint that a left factor needs, for its lifetime.
An act multiplies only the factors it has, in one ``Matrix.product``
normalised once: a side whose polynomial is the unit contributes no
factor, as R(1) = I, and an act with both sides units takes no product.

A ``FormMatrix`` is a frozen slotted dataclass of its one matrix, which
its ``==`` and ``hash`` compare.  ``ActionTable`` keeps its hand-written
slots: a copy rebuilds it through ``__init__``, which checks the data
again and starts with an empty memo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ZERO, Poly
from .errors import DimensionMismatchError
from .exactla import Matrix, ldl_psd, poly_at


class ActionTable:
    """Generator action R and Gram matrix G on a dim-dimensional domain.

    A table evaluates each polynomial p at R once: it keeps R(p) and the
    left factor R(p^+)^H of ``FormMatrix.act`` under separate keys, both
    keyed on the canonical numerators of p (``Poly.__hash__`` of a
    constant builds Fractions).  The kept matrices are immutable.
    """

    __slots__ = ("dim", "gen", "gram", "_memo")

    def __init__(self, gen: Matrix, gram: Matrix):
        """Check that G is hermitian PSD and R hermitian for G: G R = R^H G.

        ``ldl_psd`` is the one gate on G: it refuses a G that is not
        hermitian, or not PSD, with NotPositiveError.  Since G is then
        hermitian, (G R)^H = R^H G, so G R = R^H G holds exactly when the
        one product G R is hermitian.
        """
        if gen.nrows != gen.ncols or gram.nrows != gram.ncols:
            raise DimensionMismatchError("action data must be square")
        if gen.nrows != gram.nrows:
            raise DimensionMismatchError("generator and Gram sizes differ")
        ldl_psd(gram)
        if not (gram @ gen).is_hermitian():
            raise ValueError("generator is not hermitian for the Gram form")
        object.__setattr__(self, "dim", gen.nrows)
        object.__setattr__(self, "gen", gen)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("ActionTable is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which checks the data again; _memo is dropped
        return ActionTable, (self.gen, self.gram)

    def operator(self, a: Poly) -> Matrix:
        """The polynomial a evaluated at the generator matrix."""
        p = Poly.coerce(a)
        key = (p.re, p.im, p.den)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = poly_at(p, self.gen)
        return out

    def left_factor(self, a: Poly) -> Matrix:
        """R(a^+)^H, the factor that a contributes to a * x * b."""
        p = Poly.coerce(a)
        key = ("left", p.re, p.im, p.den)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self.operator(p.conjugate()).adjoint()
        return out


@dataclass(frozen=True, repr=False, slots=True)
class FormMatrix:
    """A sesquilinear form x(phi, psi) = psi^H M phi, compared by its matrix."""

    mat: Matrix

    def __post_init__(self):
        if self.mat.nrows != self.mat.ncols:
            raise DimensionMismatchError("form matrix must be square")

    @property
    def dim(self) -> int:
        return self.mat.nrows

    def act(self, a, b, table: ActionTable) -> "FormMatrix":
        """The two-sided action a * x * b for polynomials a, b.

        R(a^+)^H M R(b) as one ``Matrix.product`` of the factors present,
        normalised once.  A unit side contributes no factor, since
        R(1) = I, so an act with both sides units takes no product.
        """
        if self.dim != table.dim:
            raise DimensionMismatchError("form and action dimensions differ")
        a, b = Poly.coerce(a), Poly.coerce(b)
        left = () if a.is_one() else (table.left_factor(a),)
        right = () if b.is_one() else (table.operator(b),)
        return FormMatrix(Matrix.product(*left, self.mat, *right))

    def involution(self) -> "FormMatrix":
        """x^+(phi, psi) = conjugate of x(psi, phi)."""
        return FormMatrix(self.mat.adjoint())

    def value(self, phi, psi):
        """Evaluate the form on coordinate vectors: the 1x1 product psi^H M phi."""
        if len(phi) != self.dim or len(psi) != self.dim:
            raise DimensionMismatchError(
                f"vectors of lengths {len(phi)} and {len(psi)} for a form of dimension {self.dim}"
            )
        if not self.dim:
            return ZERO  # the empty sum; Matrix([]) is 0x0, not a 0x1 column
        row = Matrix([[c] for c in psi]).adjoint()
        return (row @ self.mat @ Matrix([[c] for c in phi]))[0, 0]

    def __repr__(self):
        return f"FormMatrix({self.mat!r})"


def form_from_operator(t: Matrix, table: ActionTable) -> FormMatrix:
    """The form <t phi, psi> of an operator, i.e. the matrix G t."""
    if t.nrows != table.dim or t.ncols != table.dim:
        raise DimensionMismatchError("operator and action dimensions differ")
    return FormMatrix(table.gram @ t)

