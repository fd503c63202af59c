"""Normal ordering against the differential-operator oracle."""

import random

import sympy

from starbimod.algebra import I, Poly, Q, Scalar
from starbimod.sampling import rand_scalar, rand_weyl
from starbimod.weyl import D, P, WeylElement

T = sympy.Symbol("t")
QW = WeylElement.q_power(1)


def _sym(c: Scalar):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


def _sym_poly(p: Poly) -> sympy.Poly:
    return sympy.Poly([_sym(c) for c in reversed(p.coeffs)] or [0], T, domain=sympy.QQ_I)


def sympy_apply(u: WeylElement, p: Poly) -> sympy.Poly:
    """sum c t^m (d/dt)^n p over the terms c q^m d^n of u, computed by sympy."""
    f = _sym_poly(p)
    image = sympy.Poly(0, T, domain=sympy.QQ_I)
    for (m, n), c in u.terms.items():
        derivative = f.diff((T, n)) if n else f
        image += sympy.Poly(_sym(c) * T**m, T, domain=sympy.QQ_I) * derivative
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
        assert D * QW - QW * D == WeylElement.one()
        assert P * QW - QW * P == WeylElement.monomial(0, 0, -I)

    def test_unit_is_neutral(self):
        rng = random.Random(5)
        u = rand_weyl(rng)
        assert u * WeylElement.one() == u
        assert WeylElement.one() * u == u


class TestInvolution:
    def test_d_squared_fixed(self):
        assert (D * D).involution() == D * D

    def test_qd(self):
        # (q d)^+ = -q d - 1
        assert (QW * D).involution() == -(QW * D) - WeylElement.one()

    def test_q_powers_fixed(self):
        for m in range(5):
            assert WeylElement.q_power(m).involution() == WeylElement.q_power(m)

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
        assert _sym_poly(u.apply(p)) == sympy_apply(u, p)

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
        assert WeylElement.d_power(3).apply(p).degree == 0

    def test_zero_polynomial(self):
        rng = random.Random(23)
        u = rand_weyl(rng)
        self.check(u, Poly())
        assert u.apply(Poly()).is_zero()

    def test_zero_element(self):
        p = rand_nonmonomial(random.Random(24), 5)
        self.check(WeylElement.zero(), p)
        assert WeylElement.zero().apply(p).is_zero()

    def test_pure_q_and_pure_d_terms(self):
        rng = random.Random(25)
        for _ in range(20):
            p = rand_nonmonomial(rng, rng.randint(1, 6))
            c = rand_scalar(rng) + I
            self.check(WeylElement.monomial(rng.randint(0, 5), 0, c), p)
            self.check(WeylElement.monomial(0, rng.randint(1, 5), c), p)


class TestOracle:
    def test_product_soundness(self):
        rng = random.Random(11)
        for _ in range(200):
            u = rand_weyl(rng, max_terms=3, max_exp=5)
            v = rand_weyl(rng, max_terms=3, max_exp=5)
            uv = u * v
            for k in range(9):
                mono = Poly.monomial(k)
                assert uv.apply(mono) == u.apply(v.apply(mono))

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
        u = QW * QW * D + WeylElement.monomial(1, 1, 3) + WeylElement.one()
        profile = u.d_profile()
        assert profile[1] == Q * Q + 3 * Q
        assert profile[0] == Poly.constant(1)

    def test_scalar_multiplication(self):
        u = QW * D
        assert (u * Scalar(0, 1)) * Scalar(0, -1) == u

    def test_power(self):
        assert D**3 == D * D * D
        assert (QW + D) ** 2 == QW * QW + QW * D + D * QW + D * D

    def test_from_poly_respects_products(self):
        p = Q * Q - 2
        r = Q + 1
        assert WeylElement.from_poly(p * r) == (
            WeylElement.from_poly(p) * WeylElement.from_poly(r)
        )
