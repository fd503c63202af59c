"""Scalar views of the integer data that the LDL, kernel and moment routines return.

``ldl_psd`` keeps the entries of L below its unit entries as triples
(re, im, den), one row per index, ``nullspace`` returns each row of
U = L^-1, the orthogonal polynomial P_a, and each kernel vector as a
real ``Poly`` with a zero imaginary part, ``MomentFunctional.shifted_values``
returns ``(re, im, den)`` sequences and the probe's ``_reduced_pencil``
returns a ``Pencil`` of integer numerators.  The tests compare them with sympy and with each other through these
views, built here with ``gauss_scalar`` and nothing else.
"""

from math import gcd

from starbimod.algebra import Scalar, gauss_scalar


def lower_scalars(ldl) -> tuple[tuple[Scalar, ...], ...]:
    """The n x r factor L of an ``LdlResult``, row by row: column k is 1 at
    pivot p_k, 0 above it, and the stored entries below it."""
    return tuple(
        tuple(
            gauss_scalar(*row[k]) if k < len(row) else Scalar(int(a == p))
            for k, p in enumerate(ldl.pivots)
        )
        for a, row in enumerate(ldl.lower)
    )


def pivot_lower_scalars(ldl) -> tuple[tuple[Scalar, ...], ...]:
    """The r x r unit lower triangle of L on the pivot rows, whose inverse is U."""
    rows = lower_scalars(ldl)
    return tuple(rows[p] for p in ldl.pivots)


def pencil_scalars(z) -> list[list[Scalar]]:
    """The full hermitian matrix of a ``probes.Pencil`` as Scalars, row by row.

    The pencil stores its upper triangle; each entry below the diagonal is
    the conjugate of its mirror.
    """

    def upper(a: int, c: int) -> Scalar:
        im = 0 if z.im is None else z.im[a][c - a]
        return gauss_scalar(z.re[a][c - a], im, z.du[a] * z.den * z.du[c])

    n = len(z.du)
    return [[upper(a, c) if a <= c else upper(c, a).conjugate() for c in range(n)] for a in range(n)]


def vector_scalars(p, n: int) -> tuple[Scalar, ...]:
    """The coefficients of a kernel ``Poly`` as a vector of length n."""
    return p.coeffs + (Scalar(0),) * (n - len(p.coeffs))


def sequence_scalars(values) -> list[Scalar]:
    """The Scalars of a ``(re, im, den)`` sequence."""
    re, im, den = values
    return [gauss_scalar(a, b, den) for a, b in zip(re, im)]


def assert_canonical_poly(p):
    """A ``Poly`` in canonical form: int tuples of one length, den > 0,
    gcd(den, every numerator) == 1 and no trailing zero coefficient."""
    assert isinstance(p.den, int) and p.den > 0
    assert type(p.re) is tuple and type(p.im) is tuple and len(p.re) == len(p.im)
    assert all(type(x) is int for x in p.re + p.im)
    assert not p.re or p.re[-1] or p.im[-1]
    assert gcd(p.den, *p.re, *p.im) == 1


def assert_canonical_triple(t):
    """An entry (re, im, den) in lowest terms: ints, den > 0, gcd 1."""
    re, im, den = t
    assert all(type(x) is int for x in t)
    assert den > 0 and gcd(re, im, den) == 1
