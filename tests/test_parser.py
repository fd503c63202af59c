"""Expression grammar: pinned parses, round trips, rejection detail."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from starbimod.algebra import I, Scalar
from starbimod.errors import ParseError
from starbimod import parser
from starbimod.parser import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_PAIRS,
    parse_expression,
    tokenize,
)
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
        assert parse_expression(WeylElement().to_expression()).is_zero()

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

    def test_offset_is_a_string_index_not_a_byte_offset(self):
        # an Arabic-Indic one is a decimal digit of two bytes in UTF-8
        src = "\u0661 + x"
        with pytest.raises(ParseError) as info:
            parse_expression(src)
        assert info.value.offset == 4 == src.index("x")
        assert len(src[:4].encode("utf-8")) == 5
        assert "(offset 4)" in str(info.value)

    @pytest.mark.parametrize(
        "route",
        [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_keep_the_fields(self, route):
        # Exception's own reduce replays the formatted message alone
        err = ParseError("bad", 3, {"q"})
        out = route(err)
        assert type(out) is ParseError
        assert str(out) == str(err) == "bad (offset 3)"
        assert out.offset == 3 and out.expected == frozenset({"q"})


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
        assert parse_expression(f"q^{MAX_EXPONENT}") == WeylElement.monomial(MAX_EXPONENT, 0)
        assert parse_expression("(q^8)^8") == WeylElement.monomial(64, 0)
        assert parse_expression(f"d^{MAX_EXPONENT}") == WeylElement.monomial(0, MAX_EXPONENT)
        assert parse_expression("i^64") == WeylElement.monomial(0, 0)

    def test_zero_exponent(self):
        assert parse_expression("(q+d)^0") == WeylElement.monomial(0, 0)


class TestTermPairCap:
    """A product of more than MAX_TERM_PAIRS term pairs is refused before it is formed."""

    # the three hostile inputs once parsed for a minute or more
    HOSTILE = [
        ("(q+d+q*d)^64", 10),
        ("(q+d+q*d)^32*(q+d+q*d)^32", 10),
        ("(q+d)^64*(q+d)^64", 6),
    ]

    @pytest.fixture
    def largest(self, monkeypatch):
        """The largest term-pair count of a product formed while the test runs."""
        seen = [0]
        original = WeylElement.__mul__

        def counted(u, v):
            if isinstance(v, WeylElement):
                seen[0] = max(seen[0], len(u.nums) * len(v.nums))
            return original(u, v)

        monkeypatch.setattr(WeylElement, "__mul__", counted)
        return seen

    @pytest.mark.parametrize(
        "src, offset",
        HOSTILE
        + [
            # 65 by 66 terms, one pair over the cap, at the '*'
            ("(1+q)^64*((1+d)^64+q^2)", 8),
            ("((1+d)^64+q^2)*(1+q)^64", 14),
        ],
    )
    def test_refused_at_its_operator(self, src, offset, largest):
        with pytest.raises(ParseError) as info:
            parse_expression(src)
        assert info.value.offset == offset
        assert f"exceeding the limit of {MAX_TERM_PAIRS}" in str(info.value)
        assert 0 < largest[0] <= MAX_TERM_PAIRS

    def test_at_the_cap_parses(self, largest):
        # two degree-64 polynomials in one monomial, 65 terms each
        assert MAX_TERM_PAIRS == 65 * 65
        value = parse_expression("(1+q)^64*(1+d)^64")
        assert largest[0] == MAX_TERM_PAIRS
        assert len(value.nums) == MAX_TERM_PAIRS
        assert parse_expression("(1+q*d)^64*(1+q*d)^64") == parse_expression("(1+q*d)^64") ** 2

    def test_the_largest_tested_power_is_well_inside(self, largest):
        assert parse_expression("(2*q + 1)^64") == parse_expression("2*q + 1") ** 64
        assert largest[0] == 33 * 33


class TestNestingCap:
    """A '(' more than MAX_NESTING deep is refused at its offset."""

    @pytest.mark.parametrize(
        "prefix",
        ["", "q + ", "-", "2*(q - 1) + "],
    )
    def test_refused_at_the_first_paren_too_deep(self, prefix):
        src = prefix + "(" * 300 + "q" + ")" * 300
        with pytest.raises(ParseError) as info:
            parse_expression(src)
        assert info.value.offset == len(prefix) + MAX_NESTING
        assert "nested more than" in str(info.value)

    def test_depth_counts_open_parentheses_only(self):
        deep = "(" * MAX_NESTING + "q" + ")" * MAX_NESTING
        assert parse_expression(deep) == WeylElement.monomial(1, 0)
        # closed groups do not add up: a long run of siblings at the limit parses
        assert parse_expression(" + ".join([deep] * 50)) == parse_expression("50*q")
        with pytest.raises(ParseError):
            parse_expression(f"({deep})")


class TestNumberSize:
    """No numerator or denominator of a parsed value has more than MAX_DIGITS digits."""

    @pytest.mark.parametrize(
        "src, offset",
        [
            ("1" * 5000, 0),
            ("7" * (MAX_DIGITS + 1), 0),
            ("q + 1/" + "3" * (MAX_DIGITS + 1), 6),
            ("q^" + "9" * 5000, 2),
        ],
    )
    def test_long_literal_refused_at_its_offset(self, src, offset):
        with pytest.raises(ParseError) as info:
            parse_expression(src)
        assert info.value.offset == offset
        assert f"exceeds the limit of {MAX_DIGITS}" in str(info.value)

    def test_literal_at_the_limit_accepted(self):
        big = "9" * MAX_DIGITS
        assert parse_expression(big) == WeylElement.monomial(0, 0, int(big))
        assert parse_expression(f"1/{big}") == WeylElement.monomial(0, 0, Fraction(1, int(big)))

    @pytest.mark.parametrize(
        "src, offset",
        [
            ("((2^64)^64)^64", 8),  # 2^4096 has 1234 digits
            ("(1/2^64)^64", 9),  # so does its reciprocal
            ("(2^64)^64", 7),
            ("9" * 600 + "*" + "9" * 600, 600),
            ("1/" + "9" * 600 + " + 1/1" + "0" * 600, 603),  # coprime denominators
        ],
    )
    def test_long_result_refused(self, src, offset):
        with pytest.raises(ParseError) as info:
            parse_expression(src)
        assert info.value.offset == offset
        assert f"more than {MAX_DIGITS} digits" in str(info.value)

    def test_results_within_the_limit_accepted(self):
        assert parse_expression("((2^8)^8)^8") == WeylElement.monomial(0, 0, 2**512)
        assert parse_expression("(2*q + 1)^64").terms[(64, 0)] == 2**64


def _view_parts(value):
    for c in value.terms.values():
        for part in (c.re, c.im):
            yield abs(part.numerator)
            yield part.denominator


def _view_exceeds(value) -> bool:
    """The digit cap read off the reduced Scalar parts alone."""
    return any(part >= 10**MAX_DIGITS for part in _view_parts(value))


def _view_power_refused(value, n: int) -> bool:
    """The power guard read off the reduced Scalar parts alone."""
    bits = max((part.bit_length() for part in _view_parts(value)), default=0)
    return n * bits > (10**MAX_DIGITS).bit_length()


def _near_cap_values(rng):
    """Seeded elements whose parts straddle the cap; the denominators of
    the parts are coprime, so the stored numerators run far above them."""
    for _ in range(150):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            parts = []
            for _ in range(2):
                digits = rng.choice([1, 40, 960, 995, 999, 1000, 1001])
                num = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1))
                den = rng.choice([1, 7, 3**20, 10**39 + 7, 10**999, 10**1000 - 1, 10**1000])
                parts.append(Fraction(num, den) if rng.random() < 0.8 else 0)
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = Scalar(*parts)
        yield WeylElement(terms)


class TestSizeGuardOnNumerators:
    """The size guards compare the stored numerators first and read the
    reduced parts only near the cap; every decision matches the rule on
    the reduced parts."""

    HAND_BUILT = [
        WeylElement(),
        WeylElement.monomial(0, 0, Scalar(Fraction(7 * (10**MAX_DIGITS - 1), 7), Fraction(1, 7))),
        WeylElement.monomial(0, 0, Scalar(10**MAX_DIGITS, Fraction(1, 7))),
        WeylElement.monomial(2, 1, Scalar(Fraction(1, 10**MAX_DIGITS - 1), Fraction(1, 3))),
        WeylElement.monomial(0, 0, Fraction(1, 10**MAX_DIGITS)),
        WeylElement({(0, 0): Fraction(10**MAX_DIGITS - 1, 3), (1, 0): Fraction(1, 7)}),
    ]

    def test_seeded_and_hand_built_values(self):
        values = self.HAND_BUILT + list(_near_cap_values(random.Random(11)))
        outcomes = set()
        for value in values:
            stored = max([value.den, *(abs(x) for pair in value.nums.values() for x in pair)])
            expected = _view_exceeds(value)
            assert parser.exceeds_digits(value) == expected
            outcomes.add((stored >= 10**MAX_DIGITS, expected))
            for n in (1, 2, 3, 4, 64):
                assert parser._power_too_long(value, n) == _view_power_refused(value, n)
        # stored numerators at the cap with reduced parts below it, and above it
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_stored_numerator_at_the_cap_is_accepted(self):
        nines = "9" * MAX_DIGITS
        value = parse_expression(f"{nines} + 1/7*i")
        assert value.nums[(0, 0)][0] == 7 * int(nines)  # stored over the den 7
        assert parse_expression(f"({nines} + 1/7*i)^1") == value
        with pytest.raises(ParseError, match="digits"):
            parse_expression(f"({nines} + 1/7*i)*10")


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
