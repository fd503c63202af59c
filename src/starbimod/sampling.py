"""Deterministic random generators for elements, used by checks and tests.

Each generator draws from one fixed distribution, so a seed fixes the
cases of the selftest, the CLI and the benchmark alike.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Poly, Scalar
from .bimodule import BimodElement, Generator
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
        c = rand_scalar(rng)
        if not c.is_zero():
            terms.append(((m, n), c))
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


def mu3() -> MomentFunctional:
    """Unit masses at -1, 0, 1."""
    return MomentFunctional.atomic([(-1, 1), (0, 1), (1, 1)])


def atoms012() -> MomentFunctional:
    """Unit masses at 0, 1, 2."""
    return MomentFunctional.atomic([(0, 1), (1, 1), (2, 1)])
