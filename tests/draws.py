"""Seeded draws that the package's samplers do not make, for the tests.

Each draws the same sequence from ``rng`` as the sampler it extends:
``real_scalar`` and ``real_poly`` as ``rand_scalar`` and ``rand_poly``
with the imaginary part left out (and its coin not tossed), and
``nonzero_poly`` as ``rand_poly``, with a zero draw replaced by a
Gaussian monomial.
"""

import random

from starbimod.algebra import Poly, Scalar
from starbimod.sampling import rand_fraction, rand_poly


def real_scalar(rng: random.Random) -> Scalar:
    return Scalar(rand_fraction(rng))


def real_poly(rng: random.Random, max_degree: int) -> Poly:
    deg = rng.randint(0, max_degree)
    return Poly([real_scalar(rng) if rng.random() < 0.75 else Scalar(0) for _ in range(deg + 1)])


def nonzero_poly(rng: random.Random, max_degree: int) -> Poly:
    return rand_poly(rng, max_degree) or Poly.monomial(rng.randint(0, max_degree), Scalar(1, 1))
