"""Expression grammar: pinned parses, round trips, rejection detail."""

import random
from fractions import Fraction

import pytest

from starbimod.algebra import I, Scalar
from starbimod.errors import ParseError
from starbimod.parser import MAX_EXPONENT, parse_expression, tokenize
from starbimod.sampling import rand_weyl
from starbimod.weyl import WeylElement


class TestPinnedParses:
    def test_rewrite_rule(self):
        assert parse_expression("d*q") == WeylElement([((1, 1), 1), ((0, 0), 1)])

    def test_nonzero_constant_collapse(self):
        value = parse_expression("q^2*d^2 - 2*q*d^2*q + d^2*q^2")
        assert value == WeylElement([((0, 0), 2)])
        assert not value.is_zero()

    def test_defining_relation(self):
        assert parse_expression("p*q - q*p") == WeylElement([((0, 0), -I)])

    def test_rationals_and_i(self):
        assert parse_expression("1/2 + 3*i") == WeylElement(
            [((0, 0), Scalar(Fraction(1, 2), 3))]
        )

    def test_parenthesised_powers(self):
        assert parse_expression("(q+d)^2") == parse_expression(
            "q^2 + q*d + d*q + d^2"
        )

    def test_unary_minus_binds_after_power(self):
        assert parse_expression("-q^2") == -parse_expression("q^2")

    def test_whitespace_insensitive(self):
        assert parse_expression(" d * q ") == parse_expression("d*q")


class TestRoundTrip:
    def test_random_canonical_forms(self):
        rng = random.Random(3)
        for _ in range(300):
            u = rand_weyl(rng, max_terms=4, max_exp=6)
            assert parse_expression(u.to_expression()) == u

    def test_zero(self):
        assert parse_expression(WeylElement.zero().to_expression()).is_zero()

    def test_complex_coefficients(self):
        u = WeylElement([((2, 1), Scalar(1, -2)), ((0, 0), Scalar(0, Fraction(3, 4)))])
        assert parse_expression(u.to_expression()) == u


class TestErrors:
    def test_offset_and_expected(self):
        with pytest.raises(ParseError) as info:
            parse_expression("q + ")
        assert info.value.offset == 4
        assert "q" in info.value.expected

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_expression("2 q")
        assert info.value.offset == 2

    def test_unknown_symbol(self):
        with pytest.raises(ParseError) as info:
            parse_expression("q * x")
        assert info.value.offset == 4

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("q^1/2")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError) as info:
            parse_expression("(q + d")
        assert ")" in info.value.expected

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expression("   ")

    def test_missing_denominator(self):
        with pytest.raises(ParseError):
            parse_expression("1/")

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse_expression("q & d")


class TestExponentCap:
    """x^n is refused when n times the degree of x exceeds MAX_EXPONENT."""

    @pytest.mark.parametrize(
        "src, offset",
        [
            ("q^100000000", 2),
            (f"q^{MAX_EXPONENT + 1}", 2),
            (f"d^{MAX_EXPONENT + 1}", 2),
            ("(q^8)^9", 6),
            ("((q^2)^4)^9", 10),
            ("(q*d^2)^33", 8),
            ("2 + (q+d)^65", 10),
            ("2^100000000", 2),
            (f"i^{MAX_EXPONENT + 1}", 2),
        ],
    )
    def test_refused_at_exponent_offset(self, src, offset):
        with pytest.raises(ParseError) as info:
            parse_expression(src)
        assert info.value.offset == offset
        assert "exceeds the limit" in str(info.value)

    def test_degree_at_cap_accepted(self):
        assert parse_expression(f"q^{MAX_EXPONENT}") == WeylElement.q_power(MAX_EXPONENT)
        assert parse_expression("(q^8)^8") == WeylElement.q_power(64)
        assert parse_expression(f"d^{MAX_EXPONENT}") == WeylElement.d_power(MAX_EXPONENT)
        assert parse_expression("i^64") == WeylElement.one()

    def test_zero_exponent(self):
        assert parse_expression("(q+d)^0") == WeylElement.one()


class TestTokenizer:
    def test_offsets(self):
        toks = tokenize("q + 3/4*d")
        kinds = [(t.kind, t.offset) for t in toks]
        assert kinds == [
            ("sym", 0),
            ("op", 2),
            ("number", 4),
            ("op", 7),
            ("sym", 8),
            ("end", 9),
        ]

    def test_rational_token(self):
        toks = tokenize("12/35")
        assert toks[0].text == "12/35"
