"""Normal ordering against the differential-operator oracle."""

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from sympy import QQ_I

from starbimod.algebra import I, Poly, Q, Scalar
from starbimod.parser import parse_expression
from starbimod.sampling import rand_poly, rand_scalar, rand_weyl
from starbimod.weyl import P, WeylElement

from exact_views import T, assert_canonical_poly, qq, sym_poly

QW = WeylElement.monomial(1, 0)
D = WeylElement.monomial(0, 1)


def sympy_apply(u: WeylElement, p: Poly) -> sympy.Poly:
    """sum c t^m (d/dt)^n p over the terms c q^m d^n of u, computed by sympy."""
    f = sym_poly(p)
    image = sympy.Poly(0, T, domain=QQ_I)
    for (m, n), c in u.terms.items():
        derivative = f.diff((T, n)) if n else f
        image += sympy.Poly.from_list([qq(c)] + [0] * m, T, domain=QQ_I) * derivative
    return image


def rand_nonmonomial(rng, degree: int) -> Poly:
    """Dense Gaussian-rational polynomial with nonzero constant and top terms."""
    coeffs = [rand_scalar(rng) for _ in range(degree + 1)]
    for k in (0, degree):
        while coeffs[k].is_zero():
            coeffs[k] = rand_scalar(rng)
    return Poly(coeffs)


class TestPinnedProducts:
    def test_dq(self):
        assert D * QW == WeylElement([((1, 1), 1), ((0, 0), 1)])

    def test_d2_q(self):
        # second-derivative commutation: d^2 q = q d^2 + 2 d
        assert D * D * QW == WeylElement([((1, 2), 1), ((0, 1), 2)])

    def test_d2_q2(self):
        expected = WeylElement([((2, 2), 1), ((1, 1), 4), ((0, 0), 2)])
        assert D * D * QW * QW == expected

    def test_defining_relation(self):
        assert D * QW - QW * D == WeylElement.monomial(0, 0)
        assert P * QW - QW * P == WeylElement.monomial(0, 0, -I)

    def test_unit_is_neutral(self):
        rng = random.Random(5)
        u = rand_weyl(rng)
        assert u * WeylElement.monomial(0, 0) == u
        assert WeylElement.monomial(0, 0) * u == u


class TestInvolution:
    def test_d_squared_fixed(self):
        assert (D * D).involution() == D * D

    def test_qd(self):
        # (q d)^+ = -q d - 1
        assert (QW * D).involution() == -(QW * D) - WeylElement.monomial(0, 0)

    def test_q_powers_fixed(self):
        for m in range(5):
            assert WeylElement.monomial(m, 0).involution() == WeylElement.monomial(m, 0)

    def test_antimultiplicative(self):
        rng = random.Random(7)
        for _ in range(150):
            u = rand_weyl(rng)
            v = rand_weyl(rng)
            assert (u * v).involution() == v.involution() * u.involution()

    def test_involutive(self):
        rng = random.Random(8)
        for _ in range(150):
            u = rand_weyl(rng)
            assert u.involution().involution() == u

    def test_p_is_hermitian(self):
        assert P.involution() == P


class TestApply:
    def test_second_derivative(self):
        assert (D * D).apply(Q**3) == 6 * Q

    def test_euler_operator(self):
        assert (QW * D).apply(Q * Q) == 2 * Q * Q

    def test_product_rule_element(self):
        du = D * QW  # canonical q d + 1
        assert du.apply(Q) == 2 * Q

    def test_linear_in_argument(self):
        u = QW * D + D
        assert u.apply(Q * Q + Q) == u.apply(Q * Q) + u.apply(Q)


class TestApplyAgainstSympy:
    """``apply`` checked exactly against sympy's derivative over QQ(i)."""

    def check(self, u, p):
        image = u.apply(p)
        assert_canonical_poly(image)
        assert sym_poly(image) == sympy_apply(u, p)

    def test_random_elements_on_dense_polys(self):
        rng = random.Random(21)
        for _ in range(300):
            u = rand_weyl(rng, max_terms=4, max_exp=6)
            p = rand_nonmonomial(rng, rng.randint(1, 9))
            self.check(u, p)

    def test_derivative_order_above_degree(self):
        rng = random.Random(22)
        p = rand_nonmonomial(rng, 3)
        for n in (3, 4, 7):
            u = WeylElement.monomial(2, n, rand_scalar(rng) + I)
            self.check(u, p)
        assert WeylElement.monomial(5, 4, 2).apply(p).is_zero()
        assert WeylElement.monomial(0, 3).apply(p).degree == 0

    def test_zero_polynomial(self):
        rng = random.Random(23)
        u = rand_weyl(rng)
        self.check(u, Poly())
        assert u.apply(Poly()).is_zero()

    def test_zero_element(self):
        p = rand_nonmonomial(random.Random(24), 5)
        self.check(WeylElement(), p)
        assert WeylElement().apply(p).is_zero()

    def test_pure_q_and_pure_d_terms(self):
        rng = random.Random(25)
        for _ in range(20):
            p = rand_nonmonomial(rng, rng.randint(1, 6))
            c = rand_scalar(rng) + I
            self.check(WeylElement.monomial(rng.randint(0, 5), 0, c), p)
            self.check(WeylElement.monomial(0, rng.randint(1, 5), c), p)

    @pytest.mark.parametrize("part", ["real", "imaginary"])
    def test_real_and_imaginary_polys(self, part):
        """Each coefficient of p real, or each purely imaginary, on Gaussian
        and on real elements, with interior zero coefficients too."""
        rng = random.Random(26 if part == "real" else 27)
        unit = Scalar(1) if part == "real" else I
        for _ in range(100):
            degree = rng.randint(0, 9)
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) * unit for _ in range(degree + 1)]
            coeffs[-1] = unit * rng.choice([1, -2, Fraction(3, 4)])
            p = Poly(coeffs)
            assert all(c.is_real() if part == "real" else not c.re for c in p.coeffs)
            u = rand_weyl(rng, max_terms=4, max_exp=6)
            self.check(u, p)
            real = WeylElement(
                [((m, n), Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for m, n in u.nums]
            )
            self.check(real, p)


class TestOracle:
    def test_faithfulness_at_truncation(self):
        rng = random.Random(12)
        for _ in range(100):
            u = rand_weyl(rng, max_terms=3, max_exp=4)
            v = rand_weyl(rng, max_terms=3, max_exp=4)
            bound = max(u.max_d_degree, v.max_d_degree, 0) + max(
                u.max_q_degree, v.max_q_degree, 0
            ) + 1
            agree = all(
                u.apply(Poly.monomial(k)) == v.apply(Poly.monomial(k))
                for k in range(bound + 1)
            )
            assert agree == (u == v)

    def test_associativity(self):
        rng = random.Random(13)
        for _ in range(60):
            u = rand_weyl(rng, 2, 4)
            v = rand_weyl(rng, 2, 4)
            w = rand_weyl(rng, 2, 4)
            assert (u * v) * w == u * (v * w)


class TestStructure:
    def test_d_profile(self):
        u = QW * QW * D + WeylElement.monomial(1, 1, 3) + WeylElement.monomial(0, 0)
        profile = u.d_profile()
        assert profile[1] == Q * Q + 3 * Q
        assert profile[0] == Poly.constant(1)

    def test_scalar_multiplication(self):
        u = QW * D
        assert (u * Scalar(0, 1)) * Scalar(0, -1) == u

    def test_power(self):
        assert D**3 == D * D * D
        assert (QW + D) ** 2 == QW * QW + QW * D + D * QW + D * D

    def test_from_profile_respects_products(self):
        p = Q * Q - 2
        r = Q + 1
        assert WeylElement.from_profile({0: p * r}) == (
            WeylElement.from_profile({0: p}) * WeylElement.from_profile({0: r})
        )


def assert_canonical(u: WeylElement):
    """den > 0, gcd(den, every numerator) == 1, no zero entry, int tuples."""
    assert isinstance(u.den, int) and u.den > 0
    parts = [x for pair in u.nums.values() for x in pair]
    assert all(type(x) is int for x in parts)
    assert all(type(pair) is tuple and any(pair) for pair in u.nums.values())
    assert gcd(u.den, *parts) == 1


def rand_profile(rng) -> dict:
    """d powers 0..3 with seeded Gaussian-rational polynomials (zero ones too)."""
    return {n: rand_poly(rng, 4) for n in rng.sample(range(4), rng.randint(1, 4))}


class TestCanonicalStorage:
    def test_results_are_canonical(self):
        rng = random.Random(31)
        for _ in range(150):
            u = rand_weyl(rng)
            v = rand_weyl(rng)
            c = rand_scalar(rng)
            results = [u, u + v, u - v, u - u, -u, u * v, u * c, c * u, 3 * u]
            results += [u + Fraction(1, 3), u.involution(), v * u.involution()]
            for w in results:
                assert_canonical(w)
        for _ in range(100):
            assert_canonical(WeylElement.from_profile(rand_profile(rng)))

    def test_zero_is_empty_over_one(self):
        u = rand_weyl(random.Random(32))
        for z in (WeylElement(), u - u, u * 0, WeylElement.from_profile({})):
            assert dict(z.nums) == {} and z.den == 1

    def test_from_profile_inverts_d_profile(self):
        rng = random.Random(33)
        for _ in range(200):
            u = rand_weyl(rng, max_terms=6)
            assert WeylElement.from_profile(u.d_profile()) == u

    def test_from_profile_matches_constructor(self):
        rng = random.Random(34)
        mixed = 0
        for _ in range(200):
            profile = rand_profile(rng)
            mixed += len({h.den for h in profile.values() if h}) > 1
            expected = WeylElement(
                [((m, n), c) for n, h in profile.items() for m, c in enumerate(h.coeffs)]
            )
            assert WeylElement.from_profile(profile) == expected
        assert mixed > 50

    def test_involution_conjugates(self):
        c = Scalar(Fraction(1, 2), 3)
        assert WeylElement.monomial(2, 0, c).involution() == WeylElement.monomial(
            2, 0, c.conjugate()
        )
        assert (I * D).involution() == I * D


class TestImmutable:
    def test_terms_view_does_not_write_through(self):
        u = parse_expression("q*d + 1")
        h, s = hash(u), {u}
        view = u.terms
        view[(5, 5)] = Scalar(7)
        view[(0, 0)] = Scalar(2)
        assert u.to_expression() == "q*d + 1"
        assert u == WeylElement([((1, 1), 1), ((0, 0), 1)])
        assert hash(u) == h and u in s

    def test_numerators_are_read_only(self):
        u = parse_expression("q*d + 1/2")
        with pytest.raises(TypeError):
            u.nums[(5, 5)] = (7, 0)
        with pytest.raises(TypeError):
            u.nums[(1, 1)][0] = 7
        with pytest.raises(AttributeError):
            u.nums = {}
        with pytest.raises(AttributeError):
            u.den = 1
        assert u.to_expression() == "q*d + 1/2"

    def test_shared_generators_stay_intact(self):
        for src in ("q", "d", "p", "i"):
            parse_expression(src).terms[(0, 0)] = Scalar(5)
        D.terms[(3, 3)] = Scalar(1)
        P.terms[(0, 1)] = Scalar(1)
        assert parse_expression("d*q") == WeylElement([((1, 1), 1), ((0, 0), 1)])
        assert parse_expression("d*q").to_expression() == "q*d + 1"
        assert parse_expression("p").to_expression() == "-i*d"

    def test_foreign_operand_is_a_type_error(self):
        for op in (lambda u: "a" - u, lambda u: u - "a", lambda u: "a" * u):
            with pytest.raises(TypeError):
                op(WeylElement.monomial(0, 0))


_EXPRESSIONS = [
    ((0, 0), Scalar(1), "1"),
    ((0, 0), Scalar(-1), "-1"),
    ((0, 0), Scalar(Fraction(3, 4)), "3/4"),
    ((0, 0), Scalar(Fraction(-3, 4)), "-3/4"),
    ((0, 0), Scalar(0, 1), "i"),
    ((0, 0), Scalar(0, -1), "-i"),
    ((0, 0), Scalar(0, Fraction(5, 2)), "5/2*i"),
    ((0, 0), Scalar(0, Fraction(-5, 2)), "-5/2*i"),
    ((0, 0), Scalar(2, 1), "(2 + i)"),
    ((0, 0), Scalar(2, -1), "(2 - i)"),
    ((0, 0), Scalar(Fraction(-1, 3), Fraction(3, 2)), "(-1/3 + 3/2*i)"),
    ((0, 0), Scalar(Fraction(1, 2), Fraction(-7, 3)), "(1/2 - 7/3*i)"),
    ((1, 2), Scalar(1), "q*d^2"),
    ((1, 2), Scalar(-1), "-q*d^2"),
    ((2, 0), Scalar(Fraction(3, 4)), "3/4*q^2"),
    ((0, 1), Scalar(Fraction(-3, 4)), "-3/4*d"),
    ((1, 1), Scalar(0, 1), "i*q*d"),
    ((1, 1), Scalar(0, -1), "-i*q*d"),
    ((3, 0), Scalar(0, Fraction(5, 2)), "5/2*i*q^3"),
    ((0, 3), Scalar(0, Fraction(-5, 2)), "-5/2*i*d^3"),
    ((1, 2), Scalar(2, 1), "(2 + i)*q*d^2"),
    ((1, 2), Scalar(2, -1), "(2 - i)*q*d^2"),
    ((1, 0), Scalar(1, 1), "(1 + i)*q"),
    ((0, 1), Scalar(-1, -1), "(-1 - i)*d"),
    ((2, 2), Scalar(Fraction(-1, 3), Fraction(3, 2)), "(-1/3 + 3/2*i)*q^2*d^2"),
    ((2, 2), Scalar(Fraction(1, 2), Fraction(-7, 3)), "(1/2 - 7/3*i)*q^2*d^2"),
]


class TestToExpression:
    @pytest.mark.parametrize("mn, c, text", _EXPRESSIONS)
    def test_single_term(self, mn, c, text):
        u = WeylElement({mn: c})
        assert u.to_expression() == text
        assert parse_expression(text) == u

    def test_sum_order_and_signs(self):
        u = WeylElement(
            {
                (0, 0): Scalar(1, -1),
                (0, 1): Scalar(Fraction(-3, 4)),
                (2, 0): 1,
                (1, 1): Scalar(0, -2),
            }
        )
        assert u.to_expression() == "q^2 - 2*i*q*d - 3/4*d + (1 - i)"
        assert WeylElement().to_expression() == "0"


class TestSquareAndMultiply:
    def bases(self):
        rng = random.Random(41)
        return [
            WeylElement(),
            WeylElement.monomial(0, 0),
            WeylElement.monomial(0, 0, rand_scalar(rng) + I),
            QW,
            WeylElement.monomial(2, 0, Fraction(-1, 3)),
            D,
            WeylElement.monomial(0, 2, I),
            QW + D,
            P,
            rand_weyl(rng, 3, 2),
            rand_weyl(rng, 2, 3),
        ]

    def test_power_is_the_repeated_product(self):
        for x in self.bases():
            folded = WeylElement.monomial(0, 0)
            for n in range(10):
                power = x**n
                assert power == folded, (x, n)
                assert power.den == folded.den and dict(power.nums) == dict(folded.nums)
                assert_canonical(power)
                folded = folded * x

    def test_negative_exponent_raises(self):
        for x in (WeylElement(), QW, QW + D):
            with pytest.raises(ValueError):
                x**-1

    def test_parser_products_are_logarithmic(self, monkeypatch):
        calls = []
        original = WeylElement.__mul__

        def counted(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(WeylElement, "__mul__", counted)
        assert parse_expression("q^64") == WeylElement.monomial(64, 0)
        assert len(calls) <= 12
        expected = (QW + D) * (QW + D) * (QW + D) * (QW + D) * (QW + D)
        calls.clear()
        assert parse_expression("(q + d)^5") == expected
        assert len(calls) <= 5


class TestMonomialsAndGeneratorPowers:
    """``WeylElement.monomial`` against Fraction pairs; parsed generator
    powers against square-and-multiply."""

    @pytest.mark.parametrize(
        "coeff, re, im",
        [
            (Scalar(Fraction(-3, 4), Fraction(5, 6)), Fraction(-3, 4), Fraction(5, 6)),
            (Fraction(2, 3), Fraction(2, 3), 0),
            (-4, -4, 0),
            (Scalar(0, Fraction(-7, 2)), 0, Fraction(-7, 2)),
            (Scalar(0), 0, 0),
            (0, 0, 0),
        ],
    )
    def test_monomial(self, coeff, re, im):
        for m, n in [(0, 0), (3, 0), (0, 5), (2, 7)]:
            u = WeylElement.monomial(m, n, coeff)
            assert_canonical(u)
            expected = {(m, n): (Fraction(re), Fraction(im))} if re or im else {}
            assert {mn: (c.re, c.im) for mn, c in u.terms.items()} == expected

    @pytest.mark.parametrize("m, n", [(-1, 0), (0, -1), (-3, 2), (2, -3), (-1, -1)])
    @pytest.mark.parametrize("coeff", [1, Scalar(0, -2), 0])
    def test_monomial_refuses_a_negative_power(self, m, n, coeff):
        with pytest.raises(ValueError, match="negative power"):
            WeylElement.monomial(m, n, coeff)

    @pytest.mark.parametrize("m, n", [(-1, 0), (0, -1), (-3, 2), (2, -3), (-1, -1)])
    @pytest.mark.parametrize("coeff", [1, Scalar(0, -2), 0])
    def test_constructor_refuses_a_negative_power(self, m, n, coeff):
        # q^-1 would print as "q^-1" and apply(q^2) would read q
        with pytest.raises(ValueError, match="negative power"):
            WeylElement({(m, n): coeff})
        with pytest.raises(ValueError, match="negative power"):
            WeylElement([((0, 0), 1), ((m, n), coeff)])

    @pytest.mark.parametrize("n", [-1, -2])
    def test_from_profile_refuses_a_negative_power(self, n):
        for h in (Q, Poly(), Poly([1, Scalar(0, 1)])):
            with pytest.raises(ValueError, match="negative power"):
                WeylElement.from_profile({0: Q, n: h})

    @pytest.mark.parametrize("k", [-1, -3])
    def test_generator_powers_refuse_a_negative_power(self, k):
        for m, n in ((k, 0), (0, k)):
            with pytest.raises(ValueError, match="negative power"):
                WeylElement.monomial(m, n)

    @pytest.mark.parametrize("symbol, generator", [("q", QW), ("d", D)])
    def test_parsed_generator_powers(self, symbol, generator):
        for n in range(65):
            parsed = parse_expression(f"{symbol}^{n}")
            expected = generator**n
            assert parsed == expected == parse_expression(f"({symbol})^{n}")
            assert parsed.den == expected.den and dict(parsed.nums) == dict(expected.nums)
            assert_canonical(parsed)
            assert parse_expression(f"-2*{symbol}^{n}") == -2 * expected


class TestApplyNonzeroCoefficients:
    """``apply`` reads only the nonzero coefficients of its argument."""

    def check(self, u, p):
        image = u.apply(p)
        assert_canonical_poly(image)
        assert sym_poly(image) == sympy_apply(u, p)

    def elements(self):
        rng = random.Random(43)
        return [WeylElement(), QW * D, D * D] + [rand_weyl(rng) for _ in range(20)]

    def test_monomials(self):
        for u in self.elements():
            for k in range(13):
                self.check(u, Poly.monomial(k))

    def test_zero_polynomial(self):
        for u in self.elements():
            self.check(u, Poly())

    def test_sparse_polynomials_with_interior_zeros(self):
        rng = random.Random(44)
        for u in self.elements():
            degree = rng.randint(2, 10)
            coeffs = [Scalar(0)] * (degree + 1)
            for k in {0, degree, *rng.sample(range(degree + 1), 2)}:
                coeffs[k] = rand_scalar(rng) + I
            self.check(u, Poly(coeffs))

    def test_oracle_takes_no_product(self, monkeypatch):
        from starbimod import algebra, weyl

        def refuse(*args):
            raise AssertionError("the oracle must not use the product")

        u = rand_weyl(random.Random(45))
        expected = [sympy_apply(u, Poly.monomial(k)) for k in range(8)]
        monkeypatch.setattr(WeylElement, "__mul__", refuse)
        monkeypatch.setattr(weyl, "_normal_dq", refuse)
        monkeypatch.setattr(algebra, "sum_of_products", refuse)
        assert [sym_poly(u.apply(Poly.monomial(k))) for k in range(8)] == expected


class TestApplyCoercesItsArgument:
    """``apply`` takes what ``Poly.coerce`` takes: a scalar is a constant."""

    @pytest.mark.parametrize("c", [3, 0, Fraction(-2, 3), Scalar(0, 1), Scalar(Fraction(1, 2), -2)])
    def test_scalar_acts_as_the_constant_polynomial(self, c):
        rng = random.Random(47)
        for u in [WeylElement(), QW, D, QW * D + 2] + [rand_weyl(rng) for _ in range(10)]:
            assert u.apply(c) == u.apply(Poly.constant(c))

    @pytest.mark.parametrize("value", ["q", 1.5, None, QW, [1, 2]])
    def test_foreign_argument_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="cannot coerce"):
            QW.apply(value)


class TestApplyCache:
    """The terms cached by the first ``apply`` never change a result.

    Cold and warm calls are interleaved over several elements, and each
    image must equal the cold image of a pickled copy, which drops the
    cache.
    """

    def polys(self):
        rng = random.Random(48)
        return [Poly(), Poly.monomial(0), Poly.monomial(9), Q**3 + I, 5] + [
            rand_poly(rng, 8) for _ in range(6)
        ]

    def check(self, elements):
        for p in self.polys():
            for u in elements:
                cold = pickle.loads(pickle.dumps(u))
                assert cold == u and not hasattr(cold, "_groups")
                image, expected = u.apply(p), cold.apply(p)
                assert image == expected
                assert (image.re, image.im, image.den) == (expected.re, expected.im, expected.den)

    def test_random_elements(self):
        rng = random.Random(49)
        self.check([WeylElement(), QW, D * D] + [rand_weyl(rng) for _ in range(12)])

    @pytest.mark.parametrize("symbol", ["q", "d"])
    def test_shared_generator_powers_of_the_parser(self, symbol):
        # the parser hands out one shared element per power
        powers = [parse_expression(f"{symbol}^{n}") for n in range(65)]
        assert all(parse_expression(f"{symbol}^{n}") is u for n, u in enumerate(powers))
        self.check(powers)


class TestParsedLiterals:
    @pytest.mark.parametrize("text", ["0", "3/6", "0/5", "12/4", "7", "10/15"])
    def test_literal_matches_the_scalar_route(self, text):
        value = parse_expression(text)
        old = WeylElement.monomial(0, 0, Scalar(Fraction(text)))
        assert value == old
        assert value.den == old.den and dict(value.nums) == dict(old.nums)
        assert_canonical(value)
