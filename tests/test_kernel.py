"""The integer product kernel checked against sympy over QQ(i).

``Poly.__mul__``, ``BimodElement.triple`` and ``Matrix.__matmul__`` all
compute in Gaussian-integer numerators over shared denominators.  Each is
compared here with sympy's own arithmetic over the Gaussian rationals, on
seeded inputs as tall as the shipped measures: the 43-digit integers of
the Gaussian moments and denominators up to 129, as in the Lebesgue
moments 1/(k+1) paired up to degree 64.  Zero polynomials and entries,
and purely real and purely imaginary inputs, are drawn on purpose.
"""

import random
from fractions import Fraction
from math import gcd

import sympy
from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix

from starbimod.algebra import Poly, Scalar
from starbimod.bimodule import BimodElement, Generator
from starbimod.exactla import Matrix, poly_at
from starbimod.moments import MomentFunctional

T = sympy.Symbol("t")

# the odd double factorials of MomentFunctional.gaussian(64), up to 43 digits
TALL = [m.re.numerator for m in MomentFunctional.gaussian(64).values if m]
MAX_DEN = 129
SHAPES = ("real", "imag", "complex")


def _qq(c: Scalar):
    return QQ_I(
        sympy.Rational(c.re.numerator, c.re.denominator),
        sympy.Rational(c.im.numerator, c.im.denominator),
    )


def _sym_poly(p: Poly) -> sympy.Poly:
    return sympy.Poly.from_list([_qq(c) for c in reversed(p.coeffs)], T, domain=QQ_I)


def _part(rng) -> Fraction:
    sign = rng.choice((1, -1))
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(sign * rng.choice(TALL))
    if kind == 1:
        return Fraction(sign * rng.choice(TALL), rng.randint(1, MAX_DEN))
    if kind == 2:
        return Fraction(sign * rng.randint(1, 9), rng.randint(1, MAX_DEN))
    return Fraction(sign * rng.randint(1, 9))


def _scalar(rng, shape: str) -> Scalar:
    if rng.random() < 0.2:
        return Scalar(0)
    re = _part(rng) if shape != "imag" else 0
    im = _part(rng) if shape != "real" else 0
    return Scalar(re, im)


def _poly(rng, shape: str, max_degree: int = 7) -> Poly:
    if rng.random() < 0.1:
        return Poly()
    return Poly([_scalar(rng, shape) for _ in range(rng.randint(0, max_degree) + 1)])


def _assert_lowest_terms(scalars):
    for c in scalars:
        for part in (c.re, c.im):
            assert type(part) is Fraction
            assert part.denominator > 0
            assert gcd(part.numerator, part.denominator) == 1


class TestPolyProduct:
    def test_random_tall_products(self):
        rng = random.Random(41)
        for _ in range(400):
            a = _poly(rng, rng.choice(SHAPES))
            b = _poly(rng, rng.choice(SHAPES))
            product = a * b
            assert _sym_poly(product) == _sym_poly(a) * _sym_poly(b)
            _assert_lowest_terms(product.coeffs)

    def test_every_shape_pair(self):
        rng = random.Random(42)
        for sa in SHAPES:
            for sb in SHAPES:
                for _ in range(20):
                    a, b = _poly(rng, sa), _poly(rng, sb)
                    assert _sym_poly(a * b) == _sym_poly(a) * _sym_poly(b)

    def test_scalar_factors(self):
        rng = random.Random(43)
        for _ in range(100):
            a = _poly(rng, rng.choice(SHAPES))
            c = _scalar(rng, rng.choice(SHAPES))
            for factor in (c, c.re, 7):
                expected = _sym_poly(a) * _sym_poly(Poly.coerce(factor))
                for product in (a * factor, factor * a):
                    assert _sym_poly(product) == expected
                    _assert_lowest_terms(product.coeffs)

    def test_zero_operands(self):
        rng = random.Random(44)
        a = _poly(rng, "complex")
        assert (a * Poly()).is_zero()
        assert (Poly() * a).is_zero()
        assert (a * 0).is_zero()
        assert (a * Scalar(0)).is_zero()

    def test_cancellation_to_lower_degree(self):
        # (iB + q/129)(-iB + q/129) = B^2 + q^2/129^2: the imaginary parts cancel
        big = TALL[-1]
        a = Poly([Scalar(0, big), Fraction(1, MAX_DEN)])
        b = Poly([Scalar(0, -big), Fraction(1, MAX_DEN)])
        product = a * b
        assert _sym_poly(product) == _sym_poly(a) * _sym_poly(b)
        assert all(c.is_real() for c in product.coeffs)


class TestTriple:
    @staticmethod
    def _sympy_triple(x: BimodElement):
        sums = [sympy.Poly(0, T, domain=QQ_I) for _ in range(3)]
        for a, b in x.terms:
            sa, sb = _sym_poly(a), _sym_poly(b)
            for r in range(3):
                sums[r] += sa * (sb.diff((T, r)) if r else sb)
        return sums

    def test_random_tall_elements(self):
        rng = random.Random(51)
        for _ in range(150):
            pairs = [
                (_poly(rng, rng.choice(SHAPES)), _poly(rng, rng.choice(SHAPES)))
                for _ in range(rng.randint(0, 5))
            ]
            x = BimodElement(Generator.D2, pairs)
            triple = x.triple()
            assert [_sym_poly(h) for h in triple] == self._sympy_triple(x)
            for h in triple:
                _assert_lowest_terms(h.coeffs)

    def test_zero_element(self):
        assert BimodElement.zero().triple() == (Poly(), Poly(), Poly())

    def test_constant_right_factors_have_no_derivative_terms(self):
        a = Poly([Scalar(TALL[-1], 0), Scalar(0, Fraction(1, MAX_DEN))])
        x = BimodElement(Generator.D2, [(a, Poly([3]))])
        h0, h1, h2 = x.triple()
        assert _sym_poly(h0) == _sym_poly(a) * 3
        assert h1.is_zero() and h2.is_zero()

    def test_gauss_canonical_polynomial(self):
        rng = random.Random(52)
        for _ in range(50):
            pairs = [
                (_poly(rng, rng.choice(SHAPES)), _poly(rng, rng.choice(SHAPES)))
                for _ in range(rng.randint(1, 4))
            ]
            expected = sympy.Poly(0, T, domain=QQ_I)
            for a, b in pairs:
                expected += _sym_poly(a) * _sym_poly(b)
            x = BimodElement(Generator.GAUSS, pairs)
            assert _sym_poly(x.gauss_poly()) == expected


class TestMatmul:
    @staticmethod
    def _matrix(rng, nrows, ncols, shape):
        return Matrix([[_scalar(rng, shape) for _ in range(ncols)] for _ in range(nrows)])

    @staticmethod
    def _dm(m: Matrix) -> DomainMatrix:
        return DomainMatrix([[_qq(c) for c in r] for r in m.rows], (m.nrows, m.ncols), QQ_I)

    def test_random_tall_products(self):
        rng = random.Random(61)
        for _ in range(120):
            n, k, p = (rng.randint(1, 5) for _ in range(3))
            a = self._matrix(rng, n, k, rng.choice(SHAPES))
            b = self._matrix(rng, k, p, rng.choice(SHAPES))
            product = a @ b
            assert self._dm(product) == self._dm(a) * self._dm(b)
            _assert_lowest_terms(c for r in product.rows for c in r)

    def test_zero_and_identity(self):
        rng = random.Random(62)
        a = self._matrix(rng, 3, 4, "complex")
        assert a @ Matrix.zeros(4, 2) == Matrix.zeros(3, 2)
        assert Matrix.identity(3) @ a == a
        assert a @ Matrix.identity(4) == a


class TestPolyAt:
    """Horner evaluation of a polynomial at a matrix, against sum c_k M^k."""

    def test_random_polys_and_matrices(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = TestMatmul._matrix(rng, n, n, rng.choice(SHAPES))
            p = _poly(rng, rng.choice(SHAPES), max_degree=5)
            dm = TestMatmul._dm(m)
            expected = DomainMatrix.zeros((n, n), QQ_I)
            power = DomainMatrix.eye(n, QQ_I)
            for c in p.coeffs:
                expected += power * _qq(c)
                power = power * dm
            assert TestMatmul._dm(poly_at(p, m)) == expected.to_dense()

    def test_constant_and_zero_polynomials(self):
        m = Matrix([[1, 2], [3, Scalar(0, 1)]])
        assert poly_at(Poly(), m) == Matrix.zeros(2, 2)
        assert poly_at(Poly([Scalar(2, -1)]), m) == Matrix.diagonal([Scalar(2, -1)] * 2)
