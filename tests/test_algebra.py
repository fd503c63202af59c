"""Scalar and polynomial layer: exact arithmetic, involution, literals."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbimod import algebra
from starbimod.algebra import (
    I,
    ONE,
    P_ONE,
    Poly,
    Q,
    Scalar,
    format_scalar,
    parse_scalar,
)
from starbimod.errors import ParseError
from starbimod.parser import parse_expression
from starbimod.weyl import WeylElement

fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)
scalars = st.builds(Scalar, fractions, fractions)
polys = st.builds(Poly, st.lists(scalars, max_size=6))


class TestScalar:
    def test_reduced_storage(self):
        z = Scalar(Fraction(2, 4), Fraction(-6, 3))
        assert z.re == Fraction(1, 2) and z.im == -2

    def test_field_ops(self):
        z = Scalar(1, 2)
        w = Scalar(3, -1)
        assert z * w == Scalar(5, 5)
        assert (z / w) * w == z
        assert z - z == Scalar(0)

    def test_conjugation_is_multiplicative(self):
        z = Scalar(2, 3)
        w = Scalar(-1, Fraction(1, 2))
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()

    def test_abs2(self):
        assert Scalar(3, 4).abs2() == 25

    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", Scalar(1)),
            ("-1/2i", Scalar(0, Fraction(-1, 2))),
            ("2+3i", Scalar(2, 3)),
            ("2+-3i", Scalar(2, -3)),
            ("2-3i", Scalar(2, -3)),
            ("-5/3", Scalar(Fraction(-5, 3))),
            # a denominator takes the decimal digits of any script, as a numerator does
            ("٣", Scalar(3)),
            ("٣+1i", Scalar(3, 1)),
            ("1/٣", Scalar(Fraction(1, 3))),
            ("2+1/٣i", Scalar(2, Fraction(1, 3))),
            ("-٣/٠٤", Scalar(Fraction(-3, 4))),
            ("1/३-٥/۶i", Scalar(Fraction(1, 3), Fraction(-5, 6))),
        ],
    )
    def test_literal_parse(self, text, value):
        assert parse_scalar(text) == value

    @given(scalars)
    @settings(max_examples=150)
    def test_literal_roundtrip(self, z):
        assert parse_scalar(format_scalar(z)) == z

    @pytest.mark.parametrize(
        "bad",
        # a zero denominator is refused in every script, never divided by
        ["", "i", "1+i", "2//3", "1.5", "2+3", "1/0", "2+1/00i", "1/٠", "2+1/٠٠i", "1/०i"],
    )
    def test_literal_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(bad)

    def test_rational_constructor_takes_the_same_literals(self):
        assert Scalar("1/٣", "-٣/٠٤") == Scalar(Fraction(1, 3), Fraction(-3, 4))
        with pytest.raises(ParseError):
            Scalar("1/٠")


class TestPolyBasics:
    def test_difference_of_squares(self):
        assert (1 + Q) * (1 - Q) == 1 - Q * Q

    def test_add_cancels(self):
        assert (Q * Q + 1) + Poly.constant(-1) == Q * Q

    def test_monomial_product(self):
        assert Poly.monomial(1, 2) * Poly.monomial(2, 3) == Poly.monomial(3, 6)

    def test_degree_adds_on_product(self):
        p = Q * Q + 1
        r = Q**3 - Q
        assert (p * r).degree == p.degree + r.degree

    def test_canonical_trailing_zeros(self):
        assert Poly([ONE, Scalar(0), Scalar(0)]).coeffs == (ONE,)
        assert Poly([Scalar(0)]).is_zero()

    def test_involution_examples(self):
        assert (I * Q).conjugate() == -I * Q
        assert (Q * Q).conjugate() == Q * Q
        p = Scalar(2, 1) + Poly.monomial(1, Scalar(0, 3))
        assert p.conjugate() == Scalar(2, -1) + Poly.monomial(1, Scalar(0, -3))

    def test_derivative_examples(self):
        assert (Q**3).derivative() == 3 * Q * Q
        assert Q.derivative(2) == Poly()
        assert (Q * Q + 2 * Q).derivative() == 2 * Q + 2

    def test_eval_examples(self):
        assert (Q * Q + 1)(2) == Scalar(5)
        assert Q(Fraction(1, 2)) == Scalar(Fraction(1, 2))
        assert Poly()(7) == Scalar(0)

    def test_coeff_strings_roundtrip(self):
        p = Poly([Scalar(1), Scalar(0), Scalar(0, Fraction(-1, 2))])
        strings = p.coeff_strings()
        assert strings == ["1", "0", "-1/2i"]
        assert Poly.from_coeff_strings(strings) == p


class TestPolyPower:
    def test_convolutions_per_power(self, monkeypatch):
        calls = []
        original = algebra._convolve_into

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(algebra, "_convolve_into", counted)
        for n in range(10):
            calls.clear()
            result = (Q + 1) ** n
            # floor(log2 n) squares and popcount(n) - 1 multiplications
            assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
            assert result == Poly([comb(n, k) for k in range(n + 1)])

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            Q ** -1


class TestPolyText:
    def test_pinned_examples(self):
        assert str(Poly()) == "0"
        assert str(Poly([Scalar(1), Scalar(0, 1), Fraction(1, 2)])) == "1/2*q^2 + i*q + 1"
        assert str(Poly([0, Scalar(2, -3)])) == "(2 - 3*i)*q"
        assert str(-Q * Q - 1) == "-q^2 - 1"

    def test_parser_reads_it_back(self):
        rng = random.Random(41)

        def frac():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        draws = [
            lambda: rng.choice([ONE, -ONE, I, -I]),
            lambda: Scalar(0, frac()),
            lambda: Scalar(frac(), frac()),
            lambda: Scalar(0),
        ]
        for _ in range(200):
            p = Poly([rng.choice(draws)() for _ in range(rng.randint(1, 6))])
            assert parse_expression(str(p)) == WeylElement.from_poly(p), str(p)


class TestPolyLaws:
    @given(polys, polys, polys)
    @settings(max_examples=100)
    def test_ring_axioms(self, p, r, s):
        assert (p + r) + s == p + (r + s)
        assert (p * r) * s == p * (r * s)
        assert p * (r + s) == p * r + p * s
        assert p * r == r * p
        assert p + r == r + p

    @given(polys)
    def test_units(self, p):
        assert p * P_ONE == p
        assert p + Poly() == p

    @given(polys, polys)
    @settings(max_examples=100)
    def test_involution_laws(self, p, r):
        assert p.conjugate().conjugate() == p
        assert (p * r).conjugate() == p.conjugate() * r.conjugate()

    @given(polys, polys)
    @settings(max_examples=100)
    def test_leibniz(self, p, r):
        assert (p * r).derivative() == p.derivative() * r + p * r.derivative()

    @given(polys, polys, fractions)
    @settings(max_examples=100)
    def test_eval_is_a_homomorphism(self, p, r, t):
        assert (p * r)(t) == p(t) * r(t)
        assert (p + r)(t) == p(t) + r(t)


# small values, so that equal pairs across the types are drawn often
tiny_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=2)
tiny_scalars = st.builds(Scalar, tiny_fractions, st.sampled_from([0, 0, 1]))
tiny_polys = st.builds(Poly, st.lists(tiny_scalars, max_size=2))
tiny_weyls = st.builds(
    WeylElement,
    st.lists(
        st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)), tiny_scalars),
        max_size=2,
    ),
)
numbers = st.one_of(
    st.integers(-2, 2), tiny_fractions, tiny_scalars, tiny_polys, tiny_weyls
)


class TestEqHashContract:
    @settings(max_examples=400)
    @given(numbers, numbers)
    def test_equal_values_hash_alike(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_sets_merge_equal_values(self):
        assert len({Scalar(1), 1}) == 1
        assert len({Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert len({Poly.constant(2), 2}) == 1
        assert len({Poly(), 0}) == 1
        assert len({WeylElement.one() * 3, 3, Scalar(3), Poly.constant(3)}) == 1
        assert len({WeylElement.from_poly(Q), Q}) == 1
