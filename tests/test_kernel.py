"""The integer kernels checked against sympy over QQ(i).

``Poly``, ``MomentFunctional`` and ``Matrix`` store Gaussian-integer
numerators over one denominator, ``Poly.__mul__``, ``BimodElement.triple``
and ``Matrix.__matmul__``, ``__add__`` and ``adjoint`` compute on such
numerators, and ``ldl_psd`` eliminates fraction-free on them.  Each is
compared here with sympy's own arithmetic over the Gaussian rationals, on
seeded inputs as tall as the shipped measures: the 43-digit integers of
the Gaussian moments and denominators up to 129, as in the Lebesgue
moments 1/(k+1) paired up to degree 64.  Zero polynomials and entries,
and purely real and purely imaginary inputs, are drawn on purpose; the
"mixed" shape draws each entry's shape on its own, so that one row of a
matrix product takes every branch of the row kernel (a zero entry is
skipped, a real or imaginary one costs two products per column, a complex
one four), and so does Horner's step in ``poly_at``.
"""

import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy
from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix

from starbimod import algebra
from starbimod.algebra import P_ONE, Poly, Scalar
from starbimod.bimodule import BimodElement, Generator
from starbimod.errors import (
    DimensionMismatchError,
    MomentOutOfRangeError,
    NotPositiveError,
    TagMismatchError,
    VariantMismatchError,
)
from starbimod import selftest
from starbimod.exactla import Matrix, inverse, ldl_psd, nullspace, poly_at
from starbimod.forms import FormMatrix
from starbimod.gns import Functional, build_gns, check_cauchy_schwarz, check_identity, hankel_gram
from starbimod.moments import MomentFunctional
from starbimod.probes import boundedness_probe
from starbimod.sampling import atoms012, mu3, rand_d2_element, rand_poly

from draws import nonzero_poly, real_poly
from exact_views import (
    assert_canonical_triple,
    lower_scalars,
    pivot_lower_scalars,
    sequence_scalars,
    vector_scalars,
)

T = sympy.Symbol("t")

# the odd double factorials of MomentFunctional.gaussian(64), up to 43 digits
TALL = [m.re.numerator for m in MomentFunctional.gaussian(64).values if m]
MAX_DEN = 129
# "mixed" draws each entry's shape on its own, so that one row of a
# matrix product meets zero, real, imaginary and complex entries
SHAPES = ("real", "imag", "complex", "mixed")


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
    if shape == "mixed":
        shape = rng.choice(("zero", "real", "imag", "complex"))
    if shape == "zero" or rng.random() < 0.2:
        return Scalar(0)
    re = _part(rng) if shape != "imag" else 0
    im = _part(rng) if shape != "real" else 0
    return Scalar(re, im)


def _poly(rng, shape: str, max_degree: int = 7) -> Poly:
    if rng.random() < 0.1:
        return Poly()
    return Poly([_scalar(rng, shape) for _ in range(rng.randint(0, max_degree) + 1)])


def _assert_canonical(p: Poly):
    """The stored form: den > 0, content coprime to den, no trailing zero."""
    assert type(p.re) is tuple and type(p.im) is tuple
    assert len(p.re) == len(p.im)
    assert all(type(c) is int for c in p.re + p.im)
    assert p.den > 0
    assert gcd(p.den, *p.re, *p.im) == 1
    assert not p.re or p.re[-1] or p.im[-1]


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
            _assert_canonical(product)

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
                    _assert_canonical(product)

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


class TestPolyOperations:
    """Sums, derivatives, conjugates and evaluations on the stored numerators."""

    def test_sums_and_differences(self):
        rng = random.Random(45)
        for _ in range(300):
            a = _poly(rng, rng.choice(SHAPES))
            b = _poly(rng, rng.choice(SHAPES))
            for result, expected in (
                (a + b, _sym_poly(a) + _sym_poly(b)),
                (a - b, _sym_poly(a) - _sym_poly(b)),
                (-a, -_sym_poly(a)),
            ):
                assert _sym_poly(result) == expected
                _assert_canonical(result)

    def test_cancellation_to_zero_and_lower_degree(self):
        rng = random.Random(46)
        for _ in range(50):
            a = _poly(rng, "complex")
            top = Poly.monomial(a.degree + 1, Scalar(Fraction(1, MAX_DEN), TALL[-1]))
            assert a - a == Poly() and (a - a).den == 1
            _assert_canonical((a + top) - top)
            assert (a + top) - top == a

    def test_derivatives(self):
        rng = random.Random(47)
        for _ in range(200):
            a = _poly(rng, rng.choice(SHAPES))
            for order in range(4):
                result = a.derivative(order)
                expected = _sym_poly(a).diff((T, order)) if order else _sym_poly(a)
                assert _sym_poly(result) == expected
                _assert_canonical(result)

    def test_conjugate(self):
        rng = random.Random(48)
        for _ in range(200):
            a = _poly(rng, rng.choice(SHAPES))
            result = a.conjugate()
            expected = [_conj(c) for c in _coeffs(_sym_poly(a))]
            assert _coeffs(_sym_poly(result)) == expected
            _assert_canonical(result)

    @pytest.mark.parametrize("shape", ["real", "complex"])
    def test_evaluation(self, shape):
        rng = random.Random(49)
        for _ in range(200):
            a = _poly(rng, rng.choice(SHAPES))
            point = _scalar(rng, shape)
            value = a(point)
            assert _qq(value) == QQ_I.from_sympy(_sym_poly(a).eval(_qq(point)))
            _assert_lowest_terms([value])

    def test_evaluation_at_plain_numbers(self):
        rng = random.Random(50)
        a = _poly(rng, "complex")
        for point in (0, 3, Fraction(-2, MAX_DEN)):
            assert _qq(a(point)) == QQ_I.from_sympy(_sym_poly(a).eval(_qq(Scalar(point))))

    def test_constructors_are_canonical(self):
        rng = random.Random(51)
        for _ in range(100):
            coeffs = [_scalar(rng, rng.choice(SHAPES)) for _ in range(rng.randint(0, 6))]
            coeffs += [Scalar(0)] * rng.randint(0, 2)
            p = Poly(coeffs)
            _assert_canonical(p)
            assert p.coeffs == tuple(coeffs[: p.degree + 1])
            c = coeffs[0] if coeffs else Scalar(0)
            for q in (Poly.constant(c), Poly.monomial(rng.randint(0, 5), c), p * c):
                _assert_canonical(q)
        assert Poly().re == () and Poly().im == () and Poly().den == 1


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
                _assert_canonical(h)

    def test_zero_element(self):
        assert BimodElement(Generator.D2).triple() == (Poly(), Poly(), Poly())

    @pytest.mark.parametrize(
        "orders", [(0,), (1,), (2,), (0, 1), (0, 1, 2)], ids=lambda o: "".join(map(str, o))
    )
    def test_components_match_triple_and_sympy(self, orders):
        rng = random.Random(53 + len(orders))
        elements = [BimodElement(Generator.D2)]
        for _ in range(80):
            pairs = []
            for _ in range(rng.randint(1, 4)):
                # right factors of degree 0 and 1 lose their higher derivatives
                degree = rng.choice((0, 1, 2, 7))
                pairs.append((_poly(rng, rng.choice(SHAPES)), _poly(rng, rng.choice(SHAPES), degree)))
            elements.append(BimodElement(Generator.D2, pairs))
        for x in elements:
            parts = x.components(orders)
            triple = x.triple()
            expected = self._sympy_triple(x)
            assert parts == tuple(triple[r] for r in orders)
            assert [_sym_poly(h) for h in parts] == [expected[r] for r in orders]
            for h in parts:
                _assert_canonical(h)

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


# every ascending subset of the triple's orders
_ORDER_SETS = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def _nonzero_poly(rng, max_degree: int = 7) -> Poly:
    while True:
        p = _poly(rng, rng.choice(SHAPES), max_degree)
        if p:
            return p


class TestActedComponents:
    """The components of a * x * b read off the acted pairs (a a_j, b_j b),
    formed on the numerators, equal those of the acted element."""

    @staticmethod
    def _sides(rng):
        """Outer factors: zero, the unit in three forms, scalars, and polynomials."""
        return [
            Poly(),
            0,
            P_ONE,
            1,
            Poly.constant(Fraction(2, 2)),
            Fraction(-3, 7),
            Scalar(Fraction(1, 2), -5),
            Poly.constant(_scalar(rng, "complex") or Scalar(0, 1)),
            _nonzero_poly(rng, 3),
            _nonzero_poly(rng),
        ]

    @pytest.mark.parametrize("orders", _ORDER_SETS, ids=lambda o: "".join(map(str, o)) or "none")
    def test_equal_to_the_acted_element(self, orders):
        rng = random.Random(61 + len(orders) + sum(orders))
        for _ in range(12):
            x = BimodElement(
                Generator.D2,
                [(_nonzero_poly(rng), _nonzero_poly(rng, rng.choice((0, 1, 2, 7))))
                 for _ in range(rng.randint(1, 4))],
            )
            assert 1 <= len(x.terms) <= 4
            sides = self._sides(rng)
            for a in sides:
                for b in sides:
                    parts = x.components(orders, a, b)
                    assert parts == x.act(a, b).components(orders), (orders, a, b)
                    for h in parts:
                        _assert_canonical(h)

    def test_pairwise_coprime_pair_denominators_against_sympy(self):
        """Pairs over 1, 2, 3, 5 and 7, so that each is scaled into the lcm 210 of
        their denominators, and outer factors over 11 and 13, against sympy."""
        rng = random.Random(83)

        def over(den, degree):
            # the coefficient 1/den keeps the denominator den exactly
            rest = [
                Scalar(Fraction(rng.randint(-9, 9), den), Fraction(rng.randint(-9, 9), den))
                for _ in range(degree)
            ]
            return Poly([Fraction(1, den), *rest])

        for _ in range(6):
            pairs = [
                (over(d, 3), over(1, 4)) if j % 2 else (over(1, 2), over(d, 4))
                for j, d in enumerate((1, 2, 3, 5, 7))
            ]
            assert [u.den * v.den for u, v in pairs] == [1, 2, 3, 5, 7]
            x = BimodElement(Generator.D2, pairs)
            a, b = over(11, 2), over(13, 3)
            assert (a.den, b.den) == (11, 13)
            expected = [sympy.Poly(0, T, domain=QQ_I) for _ in range(3)]
            for u, v in x.terms:
                su, sv = _sym_poly(a) * _sym_poly(u), _sym_poly(v) * _sym_poly(b)
                for r in range(3):
                    expected[r] += su * (sv.diff((T, r)) if r else sv)
            for orders in _ORDER_SETS:
                parts = x.components(orders, a, b)
                assert [_sym_poly(h) for h in parts] == [expected[r] for r in orders]
                for h in parts:
                    _assert_canonical(h)

    def test_convolutions_per_component(self, monkeypatch):
        """b multiplies each of k right factors and each pair is convolved once,
        while a multiplies the sum once: 2k + 1 convolutions, k + 1 with a alone."""
        rng = random.Random(89)
        cases = []
        for k in range(1, 5):
            # right factors of degree >= 2 keep every pair up to the second derivative
            pairs = [
                (_nonzero_poly(rng), _nonzero_poly(rng) + Poly.monomial(3, 1)) for _ in range(k)
            ]
            x = BimodElement(Generator.D2, pairs)
            a, b = _nonzero_poly(rng, 3), _nonzero_poly(rng, 3)
            assert len(x.terms) == k and all(v.degree >= 2 for _, v in x.terms)
            assert not (a.is_one() or b.is_one())
            cases.append((x, a, b))
        calls = []
        original = algebra._convolve_into

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(algebra, "_convolve_into", counted)
        for x, a, b in cases:
            k = len(x.terms)
            for t in range(3):
                calls.clear()
                x.components((t,), a, b)
                assert len(calls) == 2 * k + 1, (k, t)
                calls.clear()
                x.components((t,), a)
                assert len(calls) == k + 1, (k, t)

    @pytest.mark.parametrize("orders", [(2, 0), (0, 2, 1), (-1,), (0, -1)], ids=str)
    def test_negative_or_descending_orders_raise(self, orders):
        for x in (BimodElement(Generator.D2), BimodElement.d_squared() * 3):
            for sides in ((), (Poly([0, 2]),), (Poly([0, 2]), Poly([1, 1]))):
                with pytest.raises(ValueError, match="ascend"):
                    x.components(orders, *sides)

    def test_f_t_builds_no_acted_element(self, monkeypatch):
        """F_t's value at a * x * b sums x's own pairs under the outer factors
        a and b, and takes neither ``act`` nor a canonical product."""
        from starbimod import bimodule

        rng = random.Random(71)
        mf = mu3()
        pairs = [(_nonzero_poly(rng, 3), _nonzero_poly(rng, 3)) for _ in range(2)]
        x = BimodElement(Generator.D2, pairs)
        a, b = _nonzero_poly(rng, 3), _nonzero_poly(rng, 3)
        expected = {kind: Functional(kind).value(x.act(a, b), mf) for kind in ("F0", "F1", "F2")}
        calls = []
        original = bimodule.sum_of_products

        def spied(terms, orders, left, right):
            calls.append((terms, tuple(orders), left, right))
            return original(terms, orders, left, right)

        def refuse(*args):
            raise AssertionError("the left side built a canonical product")

        monkeypatch.setattr(bimodule, "sum_of_products", spied)
        monkeypatch.setattr(BimodElement, "act", refuse)
        monkeypatch.setattr(Poly, "__mul__", refuse)
        for t, (kind, value) in enumerate(expected.items()):
            calls.clear()
            assert Functional(kind).value(x, mf, a, b) == value
            assert calls == [(x.terms, (t,), a, b)]

    @pytest.mark.parametrize("kind", ["F0", "F1", "F2"])
    def test_gauss_element_is_a_variant_mismatch(self, kind):
        func = Functional(kind)
        x = BimodElement.gauss(Poly([1, 2]))
        a, b = Poly([0, 1]), Poly([3])
        for check in (
            lambda: check_identity(func, a, x, b, mu3()),
            lambda: check_cauchy_schwarz(func, a, x, mu3()),
        ):
            with pytest.raises(VariantMismatchError) as exc:
                check()
            assert not isinstance(exc.value, TagMismatchError)


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

    def test_product_of_a_chain(self):
        rng = random.Random(63)
        for _ in range(60):
            shape = [rng.randint(0, 4) for _ in range(rng.randint(2, 5))]
            factors = [
                self._matrix(rng, r, c, rng.choice(SHAPES)) if r else Matrix.zeros(0, c)
                for r, c in zip(shape, shape[1:])
            ]
            product = Matrix.product(*factors)
            expected = self._dm(factors[0])
            for m in factors[1:]:
                expected = expected * self._dm(m)
            assert (product.nrows, product.ncols) == (shape[0], shape[-1])
            if product.nrows and product.ncols:
                assert self._dm(product) == expected
            else:
                assert product == Matrix.zeros(shape[0], shape[-1])
            _assert_canonical_matrix(product)
            if len(factors) == 2:
                assert product == factors[0] @ factors[1]

    def test_product_of_one_factor_is_that_factor(self):
        m = self._matrix(random.Random(64), 2, 3, "complex")
        assert Matrix.product(m) is m

    def test_product_refuses_a_mismatch_anywhere_in_the_chain(self):
        a, b, c = Matrix.diagonal([1] * 2), Matrix.zeros(2, 3), Matrix.diagonal([1] * 2)
        with pytest.raises(DimensionMismatchError, match="cannot multiply 2x3 by 2x2"):
            Matrix.product(a, b, c)
        with pytest.raises(DimensionMismatchError, match="cannot multiply 2x3 by 2x2"):
            b @ c

    def test_zero_and_identity(self):
        rng = random.Random(62)
        a = self._matrix(rng, 3, 4, "complex")
        assert a @ Matrix.zeros(4, 2) == Matrix.zeros(3, 2)
        assert Matrix.diagonal([1] * 3) @ a == a
        assert a @ Matrix.diagonal([1] * 4) == a
        # an all-zero row of the left factor and column of the right one
        rows = [list(r) for r in a.rows]
        rows[1] = [0] * 4
        cols = [list(r) for r in self._matrix(rng, 4, 3, "mixed").rows]
        for row in cols:
            row[2] = 0
        a, b = Matrix(rows), Matrix(cols)
        product = a @ b
        assert self._dm(product) == self._dm(a) * self._dm(b)
        assert all(product[1, j] == 0 for j in range(3))
        assert all(product[i, 2] == 0 for i in range(3))
        _assert_canonical_matrix(product)


class TestPolyAt:
    """Horner evaluation of a polynomial at a matrix, against sum c_k M^k."""

    def test_random_polys_and_matrices(self):
        rng = random.Random(71)
        fractional = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            m = TestMatmul._matrix(rng, n, n, rng.choice(SHAPES))
            p = _poly(rng, rng.choice(SHAPES), max_degree=8)
            fractional += m.den > 1 and p.degree > 0
            dm = TestMatmul._dm(m)
            expected = DomainMatrix.zeros((n, n), QQ_I)
            power = DomainMatrix.eye(n, QQ_I)
            for c in p.coeffs:
                expected += power * _qq(c)
                power = power * dm
            result = poly_at(p, m)
            assert TestMatmul._dm(result) == expected.to_dense()
            _assert_canonical_matrix(result)
        # the powers of the matrix denominator in the constants are exercised
        assert fractional >= 20

    def test_constant_and_zero_polynomials(self):
        m = Matrix([[1, 2], [3, Scalar(0, 1)]])
        assert poly_at(Poly(), m) == Matrix.zeros(2, 2)
        assert poly_at(Poly([Scalar(2, -1)]), m) == Matrix.diagonal([Scalar(2, -1)] * 2)

    def test_empty_matrix(self):
        empty = poly_at(Poly([1, Scalar(0, 2)]), Matrix([]))
        assert empty == Matrix([]) and (empty.nrows, empty.ncols) == (0, 0)
        with pytest.raises(DimensionMismatchError):
            poly_at(Poly([1]), Matrix([[1, 2]]))


class TestInverse:
    """Fraction-free Gauss-Jordan inversion, against sympy's inverse over QQ(i)."""

    @staticmethod
    def _check(m: Matrix):
        inv = inverse(m)
        assert TestMatmul._dm(inv) == TestMatmul._dm(m).inv().to_dense()
        _assert_canonical_matrix(inv)
        assert m @ inv == Matrix.diagonal([1] * m.nrows)

    def test_seeded_invertible_matrices(self):
        rng = random.Random(73)
        checked = {n: 0 for n in range(1, 5)}
        while min(checked.values()) < 30:
            n = rng.randint(1, 4)
            m = TestMatmul._matrix(rng, n, n, rng.choice(SHAPES))
            if TestMatmul._dm(m).rank() < n:
                continue
            self._check(m)
            checked[n] += 1

    def test_leading_zeros_force_row_swaps(self):
        i = Scalar(0, 1)
        for rows in (
            [[0, i], [Scalar(2, 3), Fraction(1, 5)]],
            [[0, 1, 0], [0, Scalar(1, -2), i], [Scalar(0, Fraction(3, 7)), 0, 1]],
            [[1, 2, 3], [2, 4, i], [Scalar(1, 1), 0, 0]],  # zero pivot in column 1
            [[0, 0, 0, i], [0, 0, Scalar(2, 1), 0], [0, 5, 0, 0], [Scalar(1, -1), 0, 0, 0]],
        ):
            self._check(Matrix(rows))

    @pytest.mark.parametrize(
        "rows",
        [
            [[0]],
            [[0, 1], [0, Scalar(2, 1)]],  # zero first column
            [[0, 1, 1], [0, Scalar(0, 1), 2], [0, 3, Fraction(1, 2)]],
            [[1, Scalar(0, 1)], [Scalar(0, 1), -1]],  # row 2 is i * row 1
            [[0, 1, 1], [1, 0, 0], [1, 1, 1]],  # a row swap, then a vanishing column
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        ],
    )
    def test_singular_inputs_raise(self, rows):
        m = Matrix(rows)
        assert TestMatmul._dm(m).rank() < m.nrows
        with pytest.raises(ZeroDivisionError):
            inverse(m)

    def test_seeded_rank_deficient_matrices(self):
        rng = random.Random(74)
        for _ in range(40):
            n = rng.randint(2, 4)
            rows = [list(r) for r in TestMatmul._matrix(rng, n - 1, n, rng.choice(SHAPES)).rows]
            f = _scalar(rng, "complex")
            rows.insert(rng.randrange(n), [f * c for c in rows[rng.randrange(n - 1)]])
            with pytest.raises(ZeroDivisionError):
                inverse(Matrix(rows))

    def test_empty_and_non_square(self):
        empty = inverse(Matrix([]))
        assert empty == Matrix([]) and (empty.nrows, empty.ncols) == (0, 0)
        with pytest.raises(DimensionMismatchError):
            inverse(Matrix([[1, 2]]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_criterion_8_tables(self, dim, monkeypatch):
        """The seeded tables of criterion 8 (gen = G^-1 S) against sympy's G^-1 S."""
        seen = []

        class _Recorder:
            def __init__(self, gram):
                self.gram = gram

            def __matmul__(self, s):
                seen.append((self.gram, s))
                return inverse(self.gram) @ s

        monkeypatch.setattr(selftest, "inverse", _Recorder)
        rng = random.Random(606)
        for _ in range(20):
            seen.clear()
            table = selftest._random_action_table(rng, dim)
            if not seen:  # the diagonal draws take no inverse
                continue
            [(gram, s)] = seen
            assert gram == table.gram
            expected = TestMatmul._dm(gram).inv() * TestMatmul._dm(s)
            assert TestMatmul._dm(table.gen) == expected.to_dense()


def _assert_canonical_matrix(m: Matrix):
    """The stored form: int rows of one shape, den > 0, content coprime to den."""
    assert type(m.re) is tuple and type(m.im) is tuple and len(m.re) == len(m.im)
    rows = m.re + m.im
    assert all(type(r) is tuple and len(r) == m.ncols for r in rows)
    assert all(type(x) is int for r in rows for x in r)
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *[x for r in rows for x in r]) == 1


def _adjoint_dm(d: DomainMatrix) -> DomainMatrix:
    rows, cols = d.shape
    return DomainMatrix(
        [[_conj(d[i, j].element) for i in range(rows)] for j in range(cols)], (cols, rows), QQ_I
    )


class TestMatrixRepresentation:
    """Matrix stores Gaussian-integer numerator rows over one denominator.

    Every result of ``@``, ``adjoint``, ``+`` and ``poly_at`` is checked
    against sympy over QQ(i) and for the canonical form; a matrix reached
    by different routes is one stored value.
    """

    def test_products_sums_and_adjoints(self):
        rng = random.Random(63)
        for _ in range(120):
            n, k, p = (rng.randint(1, 4) for _ in range(3))
            a = TestMatmul._matrix(rng, n, k, rng.choice(SHAPES))
            b = TestMatmul._matrix(rng, k, p, rng.choice(SHAPES))
            c = TestMatmul._matrix(rng, n, k, rng.choice(SHAPES))
            da, db, dc = (TestMatmul._dm(m) for m in (a, b, c))
            for result, expected in (
                (a @ b, da * db),
                (a + c, da + dc),
                (a.adjoint(), _adjoint_dm(da)),
            ):
                assert TestMatmul._dm(result) == expected.to_dense()
                _assert_canonical_matrix(result)

    def test_cancellations_reduce_the_denominator(self):
        rng = random.Random(64)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = TestMatmul._matrix(rng, n, n, "complex")
            minus_a = Matrix.from_numerators(
                [[-x for x in r] for r in a.re], [[-x for x in r] for r in a.im], a.den, n
            )
            zero = a + minus_a
            assert zero == Matrix.zeros(n, n) and zero.den == 1
            # sums with the adjoint, products with zero and double adjoints stay canonical
            for result in (a + a.adjoint(), a @ Matrix.zeros(n, n), a.adjoint().adjoint()):
                _assert_canonical_matrix(result)
            assert a.adjoint().adjoint() == a
            assert (a + a.adjoint()).is_hermitian()
        half = Matrix([[Fraction(1, 2), Scalar(0, Fraction(1, 2))]])
        assert (half + half).den == 1 and (half + half) == Matrix([[1, Scalar(0, 1)]])

    def test_poly_at_is_canonical(self):
        rng = random.Random(72)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = TestMatmul._matrix(rng, n, n, rng.choice(SHAPES))
            p = _poly(rng, rng.choice(SHAPES), max_degree=4)
            _assert_canonical_matrix(poly_at(p, m))
        m = Matrix([[Fraction(1, 3), 0], [0, Fraction(2, 3)]])
        # (3q)(m) = diag(1, 2): every denominator cancels
        assert poly_at(Poly([0, 3]), m).den == 1

    def test_same_matrix_by_three_routes(self):
        rng = random.Random(65)
        for _ in range(60):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[_scalar(rng, rng.choice(SHAPES)) for _ in range(k)] for _ in range(n)]
            m = Matrix(rows)
            _assert_canonical_matrix(m)
            f = rng.choice([2, 6, MAX_DEN, TALL[-1]])
            scaled = Matrix.from_numerators(
                [[f * x for x in r] for r in m.re], [[f * x for x in r] for r in m.im], f * m.den, k
            )
            for other in (scaled, m @ Matrix.diagonal([1] * k), Matrix.diagonal([1] * n) @ m):
                assert other == m and hash(other) == hash(m)
                assert (other.re, other.im, other.den) == (m.re, m.im, m.den)
            assert m.rows == tuple(tuple(r) for r in rows)
            assert all(m[i, j] == rows[i][j] for i in range(n) for j in range(k))
            _assert_lowest_terms(c for r in m.rows for c in r)

    def test_ints_fractions_and_scalars_build_one_value(self):
        as_ints = Matrix([[1, -2], [0, 3]])
        as_fractions = Matrix([[Fraction(2, 2), Fraction(-4, 2)], [Fraction(0), Fraction(9, 3)]])
        as_scalars = Matrix([[Scalar(1), Scalar(-2)], [Scalar(0), Scalar(3)]])
        assert as_ints == as_fractions == as_scalars
        assert hash(as_ints) == hash(as_fractions) == hash(as_scalars)
        assert as_ints.re == ((1, -2), (0, 3)) and as_ints.im == ((0, 0), (0, 0))
        assert as_ints.den == 1
        assert Matrix([]).re == () and Matrix([]).den == 1

    def test_sum_with_a_non_matrix_is_a_type_error(self):
        for other in (1, Fraction(1, 2), Scalar(0, 1), Poly([1]), [[1, 0], [0, 1]]):
            with pytest.raises(TypeError):
                Matrix.diagonal([1] * 2) + other
            with pytest.raises(TypeError):
                other + Matrix.diagonal([1] * 2)

    def test_immutable(self):
        m = Matrix([[1]])
        for name in ("re", "im", "den", "rows"):
            with pytest.raises(AttributeError):
                setattr(m, name, ())


class TestEmptyShapes:
    """A matrix with no rows or no columns keeps both dimensions."""

    def test_zero_columns(self):
        m = Matrix.zeros(2, 0)
        assert (m.nrows, m.ncols) == (2, 0)
        assert (m.adjoint().nrows, m.adjoint().ncols) == (0, 2)
        assert m.adjoint().adjoint() == m
        assert m.adjoint() @ m == Matrix([])
        assert m @ m.adjoint() == Matrix.zeros(2, 2)
        assert m + m == m

    def test_zero_rows(self):
        m = Matrix.zeros(0, 3)
        assert (m.nrows, m.ncols) == (0, 3)
        assert m.adjoint() == Matrix.zeros(3, 0)
        assert m @ Matrix.diagonal([1] * 3) == m
        assert Matrix.zeros(3, 0) @ m == Matrix.zeros(3, 3)
        with pytest.raises(DimensionMismatchError):
            m @ Matrix.diagonal([1] * 2)

    def test_shape_is_part_of_equality_and_hash(self):
        shapes = [(0, 0), (0, 1), (0, 3), (1, 0), (2, 0)]
        zeros = [Matrix.zeros(r, c) for r, c in shapes]
        assert len(set(zeros)) == len(shapes)
        assert all(a != b for i, a in enumerate(zeros) for b in zeros[i + 1 :])
        assert Matrix.zeros(0, 0) == Matrix([]) and Matrix.zeros(1, 0) == Matrix([[]])
        for (r, c), m in zip(shapes, zeros):
            assert hash(m) == hash(Matrix.zeros(r, c))

    def test_unequal_shapes_have_distinct_reprs(self):
        ms = [Matrix.zeros(0, 0), Matrix.zeros(0, 3), Matrix.zeros(2, 0), Matrix.zeros(2, 2)]
        assert len({repr(m) for m in ms}) == len(ms)
        for m in ms[:2]:  # a rowless repr rebuilds its matrix
            assert eval(repr(m), {"Matrix": Matrix}) == m


class TestFormValue:
    """FormMatrix.value, the 1x1 product psi^H M phi, against sympy."""

    def test_seeded_complex_inputs(self):
        rng = random.Random(91)
        for _ in range(80):
            n = rng.randint(1, 4)
            m = TestMatmul._matrix(rng, n, n, rng.choice(SHAPES))
            phi = [_scalar(rng, rng.choice(SHAPES)) for _ in range(n)]
            psi = [_scalar(rng, rng.choice(SHAPES)) for _ in range(n)]
            col = DomainMatrix([[_qq(c)] for c in phi], (n, 1), QQ_I)
            row = DomainMatrix([[_conj(_qq(c)) for c in psi]], (1, n), QQ_I)
            expected = (row * TestMatmul._dm(m) * col)[0, 0].element
            value = FormMatrix(m).value(phi, psi)
            assert _qq(value) == expected
            _assert_lowest_terms([value])

    def test_dimension_zero_is_the_empty_sum(self):
        x = FormMatrix(Matrix([]))
        assert x.value([], []) == Scalar(0)
        with pytest.raises(DimensionMismatchError):
            x.value([1], [])

    def test_plain_number_vectors_and_shape_checks(self):
        x = FormMatrix(Matrix([[1, Scalar(0, 1)], [2, Fraction(1, 2)]]))
        # psi^H M phi = conj(psi) . (M phi), with M phi = (1 + i, 2 + 1/2)
        assert x.value([1, 1], [Scalar(0, 1), 2]) == Scalar(6, -1)
        with pytest.raises(DimensionMismatchError):
            x.value([1, 1, 1], [1, 1])
        with pytest.raises(DimensionMismatchError):
            x.value([1, 1], [1])

    @pytest.mark.parametrize("phi, psi", [([1], [1, 2]), ([], [])])
    def test_mismatch_names_the_vector_lengths(self, phi, psi):
        """The caller's vectors are checked before any product is formed."""
        with pytest.raises(DimensionMismatchError) as err:
            FormMatrix(Matrix.diagonal([1] * 2)).value(phi, psi)
        message = str(err.value)
        assert f"lengths {len(phi)} and {len(psi)}" in message and "dimension 2" in message
        assert "multiply" not in message


def _scalar_of(z) -> Scalar:
    """The Scalar of a QQ_I element."""
    return Scalar(
        Fraction(int(z.x.numerator), int(z.x.denominator)),
        Fraction(int(z.y.numerator), int(z.y.denominator)),
    )


def _conj(z):
    return QQ_I(z.x, -z.y)


def _coeffs(p: sympy.Poly) -> list:
    """Coefficients of a sympy polynomial as QQ_I elements, top first; [] for 0."""
    return [QQ_I.from_sympy(c) for c in p.all_coeffs()] if not p.is_zero else []


def _rank_deficient_grams(shapes=SHAPES, factor="complex"):
    """25 seeded B^H B with B of k < n columns, entries of the given shapes,
    some columns repeating an earlier one times a ``factor``-shaped scalar;
    yields (G, rank B, k)."""
    rng = random.Random(81)
    for _ in range(25):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        cols = [[_scalar(rng, rng.choice(shapes)) for _ in range(k)] for _ in range(n)]
        for j in range(1, n):
            if rng.random() < 0.3:
                f = _scalar(rng, factor)
                cols[j] = [f * c for c in cols[rng.randrange(j)]]
        b = TestMatmul._dm(Matrix(list(zip(*cols))))
        bh = DomainMatrix([[_conj(b[i, j].element) for i in range(k)] for j in range(n)], (n, k), QQ_I)
        gram = bh * b
        yield Matrix([[_scalar_of(z) for z in row] for row in gram.to_list()]), b.rank(), k


class TestLdl:
    """L D L^H against sympy, on Hankel Grams and rank-deficient B^H B."""

    @staticmethod
    def _check(gram: Matrix):
        res = ldl_psd(gram)
        g = TestMatmul._dm(gram)
        n, r = gram.nrows, len(res.pivots)
        # natural order: a pivot exactly where the leading block gains rank
        ranks = [g.extract(list(range(k)), list(range(k))).rank() if k else 0 for k in range(n + 1)]
        assert list(res.pivots) == [k for k in range(n) if ranks[k + 1] > ranks[k]]
        assert r == ranks[n]
        # L D L^H equals G on the whole matrix, exactly, with the n x r L
        rows = lower_scalars(res)
        lower = DomainMatrix([[_qq(c) for c in row] for row in rows], (n, r), QQ_I)
        assert len(res.lower) == n
        for a in range(n):
            # one stored entry per pivot below a; column k is 1 at p_k and 0 above it
            assert len(res.lower[a]) == sum(p < a for p in res.pivots)
            for k, p in enumerate(res.pivots):
                if p >= a:
                    assert rows[a][k] == int(p == a)
        d = DomainMatrix.diag([QQ_I(sympy.Rational(v.numerator, v.denominator), 0) for v in res.diag], QQ_I, (r, r))
        lh = DomainMatrix([[_conj(lower[b, a].element) for b in range(n)] for a in range(r)], (r, n), QQ_I)
        assert (lower * d * lh).to_dense() == g.to_dense()
        assert all(v > 0 for v in res.diag)
        _assert_lowest_terms(Scalar(v) for v in res.diag)
        for row in res.lower:
            for entry in row:
                assert_canonical_triple(entry)
        return res

    @pytest.mark.parametrize(
        "mf, degrees",
        [
            (MomentFunctional.gaussian(64), (0, 1, 5, 12)),
            (MomentFunctional.lebesgue_unit(64), (0, 1, 5, 12)),
            (atoms012(), (1, 2, 6)),
            (mu3(), (3, 5, 9)),
        ],
        ids=["gauss64", "lebesgue01-64", "atoms012", "mu3"],
    )
    def test_hankel_grams(self, mf, degrees):
        for n in degrees:
            res = self._check(hankel_gram(mf, n))
            if mf.is_atomic:
                assert len(res.pivots) == min(n + 1, len(mf.atoms))

    def test_rank_deficient_gaussian_complex(self):
        middle_skips = 0
        for gram, rank_b, k in _rank_deficient_grams():
            res = self._check(gram)
            assert len(res.pivots) == rank_b <= k
            middle_skips += res.pivots != tuple(range(len(res.pivots)))
        assert middle_skips >= 5

    def test_skipped_pivot_in_the_middle(self):
        # column 1 repeats column 0, so index 1 is skipped and 2 still pivots
        gram = Matrix([[2, 2, Scalar(0, 1)], [2, 2, Scalar(0, 1)], [Scalar(0, -1), Scalar(0, -1), 3]])
        assert self._check(gram).pivots == (0, 2)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 2], [3, 1]], "not hermitian"),
            ([[1, Scalar(0, 1)], [Scalar(0, 1), 1]], "not hermitian"),
            ([[Scalar(1, 1)]], "non-real diagonal"),
            ([[-1]], "negative pivot -1"),
            ([[1, 2], [2, 1]], "negative pivot -3"),
            ([[Fraction(1, 3), 1], [1, Fraction(1, 5)]], "negative pivot -14/5"),
            ([[0, 1], [1, 0]], "zero pivot with a nonzero residual row"),
            ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], "zero pivot with a nonzero residual row"),
            # eigenvalues +-1; the residual row of the zero pivot is imaginary only
            ([[0, Scalar(0, 1)], [Scalar(0, -1), 0]], "zero pivot with a nonzero residual row"),
            # its one nonzero residual entry is imaginary and right after the zero pivot
            (
                [[0, Scalar(0, 1), 0], [Scalar(0, -1), 1, 0], [0, 0, 1]],
                "zero pivot with a nonzero residual row",
            ),
        ],
    )
    def test_not_positive(self, rows, message):
        with pytest.raises(NotPositiveError, match=message):
            ldl_psd(Matrix(rows))

    def test_empty_and_zero_matrices(self):
        assert len(ldl_psd(Matrix([])).pivots) == 0
        assert ldl_psd(Matrix.zeros(3, 3)).pivots == ()


def kernel_of(gram: Matrix) -> list:
    """The kernel basis that ``nullspace`` reads off gram's own LDL."""
    return list(nullspace(ldl_psd(gram))[1])


class TestNullspace:
    """The kernel read off the LDL against sympy's nullspace over QQ(i).

    sympy reduces the matrix to echelon form itself; each of its basis
    vectors, scaled to 1 at its last nonzero entry, is the vector of one
    skipped index.
    """

    @staticmethod
    def _check(gram: Matrix, kernel):
        g = TestMatmul._dm(gram)
        n = gram.nrows
        vectors = [vector_scalars(p, n) for p in kernel]
        expected = g.nullspace(divide_last=True).to_list() if n else []
        assert [[_qq(c) for c in v] for v in vectors] == expected
        pivots = ldl_psd(gram).pivots
        skipped = [s for s in range(n) if s not in pivots]
        assert len(kernel) == len(skipped)
        for p, v, s in zip(kernel, vectors, skipped):
            # 1 at the skipped index, weight only on the pivots below it
            assert v[s] == 1 and p.degree == s
            assert all(not c for b, c in enumerate(v) if b > s or (b != s and b not in pivots))
            assert (g * DomainMatrix([[_qq(c)] for c in v], (n, 1), QQ_I)).is_zero_matrix
            _assert_lowest_terms(v)
            _assert_canonical(p)

    @pytest.mark.parametrize(
        "mf",
        [mu3(), atoms012(), MomentFunctional.atomic([(Fraction(-3, 2), Fraction(5, 7))])],
        ids=["mu3", "atoms012", "point-mass"],
    )
    def test_hankel_grams(self, mf):
        for n in range(15):
            realization = build_gns(mf, n)
            vectors = kernel_of(hankel_gram(mf, n))
            self._check(hankel_gram(mf, n), vectors)
            assert realization.kernel == tuple(vectors)
            assert len(vectors) == max(0, n + 1 - len(mf.atoms))

    def test_rank_deficient_real(self):
        # nullspace reads a real L only: its one caller factors a Hankel Gram
        middle_skips = 0
        for gram, rank_b, _ in _rank_deficient_grams(("real",), "real"):
            vectors = kernel_of(gram)
            self._check(gram, vectors)
            assert len(vectors) == gram.nrows - rank_b
            middle_skips += ldl_psd(gram).pivots != tuple(range(rank_b))
        assert middle_skips >= 5

    def test_skipped_indices_in_the_middle(self):
        gram = Matrix([[2, 2, 1], [2, 2, 1], [1, 1, 3]])
        [v] = kernel_of(gram)
        assert vector_scalars(v, 3) == (Scalar(-1), Scalar(1), Scalar(0))

    def test_full_rank_empty_and_zero_matrices(self):
        for gram in (Matrix.diagonal([1] * 3), Matrix([])):
            assert kernel_of(gram) == []
        zero = Matrix.zeros(2, 2)
        assert [vector_scalars(v, 2) for v in kernel_of(zero)] == [(1, 0), (0, 1)]

    def test_rows_invert_the_pivot_block_of_l(self):
        # the same recurrence yields U at the pivots: U L_P = I, against sympy
        grams = [hankel_gram(mf, n) for mf in (mu3(), atoms012()) for n in (2, 5, 9)]
        grams += [gram for gram, _, _ in _rank_deficient_grams(("real",), "real")]
        for gram in grams:
            ldl = ldl_psd(gram)
            rows, kernel = nullspace(ldl)
            r = len(ldl.pivots)
            assert len(rows) == r and len(kernel) == gram.nrows - r
            piv = ldl.pivots
            u = DomainMatrix(
                [[_qq(vector_scalars(p, gram.nrows)[b]) for b in piv] for p in rows],
                (r, r),
                QQ_I,
            )
            lower = DomainMatrix([[_qq(c) for c in row] for row in pivot_lower_scalars(ldl)], (r, r), QQ_I)
            assert (u * lower).to_dense() == DomainMatrix.eye(r, QQ_I).to_dense()
            for b, p in zip(piv, rows):
                assert p.degree == b and p.re[b] == p.den and gcd(p.den, *p.re) == 1

    def test_skipped_index_below_a_later_pivot(self):
        # moments 1, 0, 0, 0, 1: G = diag(1, 0, 1) at N = 2, so index 1 is
        # skipped and index 2 still pivots; the kernel is [q]
        mf = MomentFunctional.from_moments([1, 0, 0, 0, 1])
        top = build_gns(mf, 2)
        assert top.pivots == (0, 2) and top.diag == (1, 1)
        assert top.rows == (Poly.monomial(0), Poly.monomial(2))
        assert top.kernel == (Poly.monomial(1),)
        self._check(hankel_gram(mf, 2), top.kernel)
        # the cached leading parts equal a new measure's realization, and sympy
        for n, pivots, kernel in ((0, (0,), ()), (1, (0,), (Poly.monomial(1),))):
            cached = build_gns(mf, n)
            fresh = build_gns(MomentFunctional.from_moments([1, 0, 0, 0, 1]), n)
            for got in (cached, fresh):
                assert got.degree == n
                assert got.pivots == pivots and got.diag == (1,)
                assert got.rows == (Poly.monomial(0),)
                assert got.kernel == kernel
                self._check(hankel_gram(mf, n), got.kernel)


ROOT = Path(__file__).resolve().parents[1]


def _file_measure(name: str) -> MomentFunctional:
    return MomentFunctional.from_json(json.loads((ROOT / "measures" / name).read_text()))


def _cluster() -> MomentFunctional:
    """Sixteen atoms x = 1/n with weights 1/2^n, n = 1..16."""
    return MomentFunctional.atomic([(Fraction(1, n), Fraction(1, 2**n)) for n in range(1, 17)])


# each measure with its moments computed by sympy, independently of the class
def _oracle_moments(name: str, count: int) -> list:
    rat = sympy.Rational
    if name == "gauss64":
        ms = [sympy.factorial2(k - 1) if k % 2 == 0 else 0 for k in range(count)]
    elif name == "lebesgue01-64":
        ms = [rat(1, k + 1) for k in range(count)]
    elif name == "mu3":
        ms = [sum(rat(x) ** k for x in (-1, 0, 1)) for k in range(count)]
    else:
        ms = [sum(rat(1, 2**n) * rat(1, n) ** k for n in range(1, 17)) for k in range(count)]
    return [QQ_I(m, 0) for m in ms]


MEASURES = {
    "gauss64": lambda: _file_measure("gauss64.json"),
    "lebesgue01-64": lambda: _file_measure("lebesgue01-64.json"),
    "mu3": lambda: _file_measure("mu3.json"),
    "cluster": _cluster,
}


def _sym_apply(p: Poly, ms) -> object:
    coeffs = [_qq(c) for c in p.coeffs]
    return sum((c * m for c, m in zip(coeffs, ms)), QQ_I(0))


class TestMoments:
    """apply, pairing, shifted_values and moments_up_to against sympy."""

    @pytest.mark.parametrize("name", list(MEASURES))
    def test_apply_and_pairing(self, name):
        mf = MEASURES[name]()
        ms = _oracle_moments(name, 64)
        rng = random.Random(91)
        for _ in range(60):
            p = _poly(rng, rng.choice(SHAPES), max_degree=40)
            assert _qq(mf.apply(p)) == _sym_apply(p, ms)
            u = _poly(rng, rng.choice(SHAPES), max_degree=20)
            v = _poly(rng, rng.choice(SHAPES), max_degree=20)
            v_conj = [_conj(c) for c in _coeffs(_sym_poly(v))]
            vu = _sym_poly(u) * sympy.Poly.from_list(v_conj or [0], T, domain=QQ_I)
            expected = sum((c * m for c, m in zip(reversed(_coeffs(vu)), ms)), QQ_I(0))
            value = mf.pairing(u, v)
            assert _qq(value) == expected
            _assert_lowest_terms([value])

    @pytest.mark.parametrize("name", list(MEASURES))
    def test_shifted_values_and_moments_up_to(self, name):
        mf = MEASURES[name]()
        ms = _oracle_moments(name, 64)
        rng = random.Random(92)
        for _ in range(20):
            p = _poly(rng, rng.choice(SHAPES), max_degree=12)
            count = rng.randint(0, 64 - max(p.degree, 0))
            re, im, den = mf.shifted_values(p, count)
            assert all(type(x) is int for x in (*re, *im, den)) and den > 0
            shifted = sequence_scalars((re, im, den))
            for s, value in enumerate(shifted):
                assert _qq(value) == _sym_apply(p, ms[s:])
            assert len(shifted) == len(im) == count
        for degree in (0, 1, 17, 63):
            got = mf.moments_up_to(degree)
            assert [_qq(m) for m in got] == ms[: degree + 1]
            _assert_lowest_terms(got)

    @pytest.mark.parametrize("name", list(MEASURES))
    def test_hankel_gram(self, name):
        mf = MEASURES[name]()
        ms = _oracle_moments(name, 64)
        for degree in (0, 1, 7, 31):
            gram = hankel_gram(mf, degree)
            n = degree + 1
            expected = DomainMatrix([[ms[j + k] for k in range(n)] for j in range(n)], (n, n), QQ_I)
            assert TestMatmul._dm(gram) == expected
            _assert_canonical_matrix(gram)

    def test_hankel_gram_refusals(self):
        # a non-real moment is refused when the list is built, before any degree reads it
        with pytest.raises(NotPositiveError, match="^moments of a positive functional must be real$"):
            MomentFunctional.from_moments([1, 0, Scalar(1, 1), 0, 3])
        short = MomentFunctional.from_moments([1, 0, 2, 0, 3])
        assert hankel_gram(short, 0) == Matrix([[1]])
        with pytest.raises(MomentOutOfRangeError, match="^moment 5 beyond stored truncation 4$"):
            hankel_gram(short, 3)

    def test_moment_list_is_stored_canonically(self):
        for name in ("gauss64", "lebesgue01-64"):
            nums, den, x = MEASURES[name]()._nums
            assert x == 1 and den > 0 and gcd(den, *nums) == 1
        mf = MomentFunctional.from_moments([Fraction(2, 6), Scalar(Fraction(-4, 3))])
        assert mf._nums == ((1, -4), 3, 1)
        assert mf.values == (Scalar(Fraction(1, 3)), Scalar(Fraction(-4, 3)))

    def test_out_of_range_index_is_the_first_moment_read(self):
        mf = MomentFunctional.from_moments([1, 0, 1, 0, 3])
        cases = [
            (lambda: mf.apply(Poly.monomial(7) + Poly.monomial(2)), 7),
            (lambda: mf.apply(Poly.monomial(9) + Poly.monomial(6) + Poly.monomial(3)), 6),
            (lambda: mf.shifted_values(Poly.monomial(2), 4), 5),
            (lambda: mf.shifted_values(Poly.monomial(6), 1), 6),
            (lambda: mf.moments_up_to(5), 5),
        ]
        for call, index in cases:
            with pytest.raises(MomentOutOfRangeError, match=f"^moment {index} beyond stored truncation 4$"):
                call()

    def test_atomic_cache_is_not_part_of_equality(self):
        a, b = _cluster(), _cluster()
        before = (hash(a), repr(a))
        assert a.moments_up_to(3) == b.moments_up_to(3)
        a.apply(Poly.monomial(40))
        assert len(a._nums[0]) != len(b._nums[0])  # the caches differ in reach
        assert a == b and hash(a) == hash(b) == before[0] and repr(a) == before[1]
        assert a.moments_up_to(3) == b.moments_up_to(3)
        assert len({a, b}) == 1



class TestGramRouteStaysOnNumerators:
    """build_gns and the probe pass integers from the moments to the
    pencil: no Scalar sequence is turned back into numerators on the way."""

    @pytest.fixture
    def calls(self, monkeypatch):
        original = algebra.gauss_numerators
        counts = []

        def counted(seqs):
            counts.append(len(seqs))
            return original(seqs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "starbimod" and getattr(module, "gauss_numerators", None) is original:
                monkeypatch.setattr(module, "gauss_numerators", counted)
        return counts

    @pytest.mark.parametrize("name", ["gauss64", "mu3"])
    def test_no_gauss_numerators_in_build_gns_or_the_probe(self, name, calls):
        mf = MEASURES[name]()
        rng = random.Random(3)
        y = rand_d2_element(rng, 2, 3)
        x = y + y.involution()
        gauss = BimodElement.gauss(real_poly(rng, 3))
        weight = nonzero_poly(rng, 2)
        calls.clear()
        build_gns(mf, 12)
        for kind in ("F0", "F1", "F2"):
            boundedness_probe(Functional(kind), x, mf, range(2, 13))
        boundedness_probe(Functional.gauss_poly(weight), gauss, mf, range(2, 13))
        if mf.is_atomic:
            values = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in mf.atoms]
            boundedness_probe(Functional.gauss_atoms(values), gauss, mf, range(2, 13))
        assert calls == []
        Poly([1, Fraction(1, 2)])
        assert calls == [1]  # the wrapper was live: Poly(...) converts Scalars in


class TestIdentityChecksStayOnNumerators:
    """check_identity builds no Fraction, and check_cauchy_schwarz builds
    only the two Fractions of its report: every functional value and
    pairing on the way is a Scalar of ints."""

    @pytest.fixture
    def built(self, monkeypatch):
        original = Fraction.__new__
        counts = [0]

        def counted(cls, *args, **kwargs):
            counts[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        return counts

    @staticmethod
    def _cases():
        rng = random.Random(11)
        measures = {"mu3": mu3(), "atoms012": atoms012()}
        measures.update((name, MEASURES[name]()) for name in ("gauss64", "lebesgue01-64"))
        cases = []
        for name, mf in measures.items():
            for kind in ("F0", "F1", "F2", "gauss-poly", "gauss-atoms"):
                if kind == "gauss-poly":
                    func = Functional.gauss_poly(nonzero_poly(rng, 2))
                elif kind == "gauss-atoms":
                    if not mf.is_atomic:
                        continue
                    func = Functional.gauss_atoms(
                        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in mf.atoms]
                    )
                else:
                    func = Functional(kind)
                if kind in ("F0", "F1", "F2"):
                    x = rand_d2_element(rng, 3, 3)
                else:
                    x = BimodElement.gauss(rand_poly(rng, 3))
                cases.append((func, rand_poly(rng, 3), x, rand_poly(rng, 3), mf))
        return cases

    def test_no_fraction_in_the_identity_checks(self, built):
        cases = self._cases()
        assert len(cases) == 18
        for func, a, x, b, mf in cases:
            built[0] = 0
            assert check_identity(func, a, x, b, mf).equal
            assert built[0] == 0, func
            report = check_cauchy_schwarz(func, a, x, mf)
            assert report.holds
            assert built[0] == 2, func  # lhs_squared and bound
            # the equality case of the bound takes the same route
            if func.kind != "gauss-atoms":
                built[0] = 0
                h = func.coefficient_poly(x)
                report = check_cauchy_schwarz(func, h, x, mf)
                assert report.lhs_squared == report.bound and built[0] == 2, func
        built[0] = 0
        assert Scalar(1, 2).re == 1
        assert built[0] == 1  # the wrapper was live: the view .re built one Fraction
