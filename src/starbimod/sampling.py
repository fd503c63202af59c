"""Deterministic random generators: every seeded object the gate draws.

Each generator draws from one fixed distribution, so a seed fixes the
cases of the selftest, the CLI and the benchmark alike.  The selftest
draws its elements, action tables, forms and atomic measures here and
nowhere else, and the tests draw the same objects through the same
functions; ``tests/test_exact_outputs.py`` pins each stream.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Poly, Scalar
from .bimodule import BimodElement, Generator
from .exactla import Matrix, inverse
from .forms import ActionTable, FormMatrix
from .moments import MomentFunctional
from .weyl import WeylElement


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rand_scalar(rng: random.Random) -> Scalar:
    re = rand_fraction(rng)
    im = rand_fraction(rng) if rng.random() < 0.5 else 0
    return Scalar(re, im)


def rand_poly(rng: random.Random, max_degree: int) -> Poly:
    deg = rng.randint(0, max_degree)
    return Poly([rand_scalar(rng) if rng.random() < 0.75 else Scalar(0) for _ in range(deg + 1)])


def rand_weyl(
    rng: random.Random, max_terms: int = 4, max_exp: int = 6
) -> WeylElement:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        m = rng.randint(0, max_exp)
        n = rng.randint(0, max_exp)
        terms.append(((m, n), rand_scalar(rng)))
    return WeylElement(terms)


def rand_d2_element(
    rng: random.Random, max_terms: int = 4, max_degree: int = 4
) -> BimodElement:
    pairs = [
        (rand_poly(rng, max_degree), rand_poly(rng, max_degree))
        for _ in range(rng.randint(1, max_terms))
    ]
    return BimodElement(Generator.D2, pairs)


def rand_gauss_element(rng: random.Random, max_degree: int = 4) -> BimodElement:
    return BimodElement.gauss(rand_poly(rng, max_degree))


def rand_case(
    rng: random.Random, tag: Generator, max_degree: int
) -> tuple[Poly, BimodElement, Poly]:
    """One (a, x, b) case: a, then b, of degree up to ``max_degree``, then x
    of generator ``tag`` at degree up to min(4, ``max_degree``)."""
    a = rand_poly(rng, max_degree)
    b = rand_poly(rng, max_degree)
    if tag is Generator.D2:
        return a, rand_d2_element(rng, max_terms=4, max_degree=min(4, max_degree)), b
    return a, rand_gauss_element(rng, max_degree=min(4, max_degree)), b


def rand_hermitian(rng: random.Random, dim: int) -> Matrix:
    """A hermitian S: an integer diagonal, each row's lower entries drawn left to right."""
    s = [[Scalar(0)] * dim for _ in range(dim)]
    for i in range(dim):
        s[i][i] = Scalar(rng.randint(-2, 2))
        for j in range(i):
            z = rand_scalar(rng)
            s[i][j] = z
            s[j][i] = z.conjugate()
    return Matrix(s)


def rand_dense_table(rng: random.Random, dim: int) -> ActionTable:
    """G = B^H B for a lower-triangular B with positive integer diagonal, so
    G is positive definite, and the generator G^-1 S for a hermitian S."""
    b = Matrix(
        [
            [rand_scalar(rng) for _ in range(i)] + [rng.randint(1, 3)] + [0] * (dim - 1 - i)
            for i in range(dim)
        ]
    )
    gram = b.adjoint() @ b
    return ActionTable(inverse(gram) @ rand_hermitian(rng, dim), gram)


def rand_diagonal_table(rng: random.Random, dim: int) -> ActionTable:
    """A diagonal Gram, drawn first, which may be singular, and a diagonal generator."""
    gram = Matrix.diagonal([rng.randint(0, 3) for _ in range(dim)])
    return ActionTable(Matrix.diagonal([rng.randint(-2, 2) for _ in range(dim)]), gram)


def rand_form(rng: random.Random, dim: int) -> FormMatrix:
    return FormMatrix(Matrix([[rand_scalar(rng) for _ in range(dim)] for _ in range(dim)]))


def rand_atoms(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """One to five (point, weight) atoms: points a/b with |a| <= 4 and
    b <= 3, integer weights 0..3."""
    return [
        (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(0, 3)))
        for _ in range(rng.randint(1, 5))
    ]


def mu3() -> MomentFunctional:
    """Unit masses at -1, 0, 1."""
    return MomentFunctional.atomic([(-1, 1), (0, 1), (1, 1)])


def atoms012() -> MomentFunctional:
    """Unit masses at 0, 1, 2."""
    return MomentFunctional.atomic([(0, 1), (1, 1), (2, 1)])


def cluster16() -> MomentFunctional:
    """Sixteen atoms 1/n with weights 1/2^n, n = 1..16."""
    return MomentFunctional.atomic([(Fraction(1, n), Fraction(1, 2**n)) for n in range(1, 17)])
