"""Scalar views of the integer data that the LDL, kernel and moment routines return.

``ldl_psd`` keeps L's strictly lower entries as triples (re, im, den),
``nullspace`` returns each kernel vector as a ``Poly``,
``MomentFunctional.shifted_values`` returns ``(re, im, den)`` sequences and
the probe's ``_reduced_pencil`` returns a ``Pencil`` of integer numerators.
The tests compare them with sympy and with each other through these
views, built here with ``gauss_scalar`` and nothing else.
"""

from math import gcd

from starbimod.algebra import Scalar, gauss_scalar


def lower_scalars(ldl) -> tuple[tuple[Scalar, ...], ...]:
    """The unit lower triangle L of an ``LdlResult``: 1 on the diagonal, 0 above."""
    r = ldl.rank
    return tuple(
        tuple(gauss_scalar(*row[b]) if b < a else Scalar(int(a == b)) for b in range(r))
        for a, row in enumerate(ldl.lower)
    )


def pencil_scalars(z) -> list[list[Scalar]]:
    """The entries of a ``probes.Pencil`` as Scalars, row by row."""
    return [
        [gauss_scalar(a, b, z.du[i] * z.den * dc) for a, b, dc in zip(rr, ri, z.du)]
        for i, (rr, ri) in enumerate(zip(z.re, z.im))
    ]


def vector_scalars(p, n: int) -> tuple[Scalar, ...]:
    """The coefficients of a kernel ``Poly`` as a vector of length n."""
    return p.coeffs + (Scalar(0),) * (n - len(p.coeffs))


def sequence_scalars(values) -> list[Scalar]:
    """The Scalars of a ``(re, im, den)`` sequence."""
    re, im, den = values
    return [gauss_scalar(a, b, den) for a, b in zip(re, im)]


def assert_canonical_triple(t):
    """An entry (re, im, den) in lowest terms: ints, den > 0, gcd 1."""
    re, im, den = t
    assert all(type(x) is int for x in t)
    assert den > 0 and gcd(re, im, den) == 1
