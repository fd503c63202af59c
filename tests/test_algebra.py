"""Scalar and polynomial layer: exact arithmetic, involution, literals.

Also the copy and pickle contract of every immutable value type.
"""

import copy
import hashlib
import pickle
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbimod import algebra
from starbimod.algebra import (
    I,
    ONE,
    P_ONE,
    Immutable,
    Poly,
    Q,
    Scalar,
    format_scalar,
    format_sum,
    parse_scalar,
)
from starbimod.bimodule import BimodElement
from starbimod.errors import ParseError
from starbimod.exactla import Matrix
from starbimod.forms import ActionTable, FormMatrix
from starbimod.gns import Functional, build_gns
from starbimod.moments import MomentFunctional
from starbimod.parser import parse_expression
from starbimod.sampling import atoms012, cluster16, mu3, rand_weyl
from starbimod.weyl import WeylElement

from exact_views import assert_canonical_poly


@st.composite
def _bounded_fractions(draw, bound: int, max_denominator: int):
    """The set that ``st.fractions(min_value=-bound, max_value=bound,
    max_denominator=max_denominator)`` draws, built from two integers at a
    fraction of its cost: the denominator d first, so that a failure
    shrinks towards an integer, then a numerator in [-bound*d, bound*d]."""
    d = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers(-bound * d, bound * d)), d)


fractions = _bounded_fractions(40, 12)
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

    def test_rational_constructor_takes_no_text(self):
        # text is read by parse_scalar alone, under its digit cap
        for args in (("1/3",), (0, "1/3"), ("9" * 1500,)):
            with pytest.raises(TypeError):
                Scalar(*args)


def _assert_canonical(z: Scalar) -> None:
    parts = (z.re_num, z.im_num, z.den)
    assert all(type(n) is int for n in parts), parts
    assert z.den > 0 and gcd(*parts) == 1, parts


rationals = st.one_of(st.integers(-40, 40), fractions)


class TestScalarAgainstFractionPairs:
    """Scalar arithmetic on its ints against (re, im) Fraction arithmetic."""

    @given(scalars, scalars)
    @settings(max_examples=300)
    def test_field_ops(self, z, w):
        a, b, c, d = z.re, z.im, w.re, w.im
        expected = [
            (z + w, (a + c, b + d)),
            (z - w, (a - c, b - d)),
            (z * w, (a * c - b * d, a * d + b * c)),
            (-z, (-a, -b)),
            (z.conjugate(), (a, -b)),
        ]
        norm = c * c + d * d
        if norm:
            expected.append((z / w, ((a * c + b * d) / norm, (b * c - a * d) / norm)))
        else:
            with pytest.raises(ZeroDivisionError):
                z / w
        for got, (re, im) in expected:
            _assert_canonical(got)
            assert (got.re, got.im) == (re, im)
            assert got == Scalar(re, im)
        assert type(z.abs2()) is Fraction and z.abs2() == a * a + b * b
        assert z.is_real() == (b == 0)
        assert z.is_zero() == (not a and not b) == (not z)
        assert (z == w) == ((a, b) == (c, d))

    @given(scalars, rationals)
    @settings(max_examples=200)
    def test_mixed_ops_with_rationals(self, z, q):
        a, b = z.re, z.im
        for got, (re, im) in [
            (z + q, (a + q, b)),
            (q + z, (a + q, b)),
            (z - q, (a - q, b)),
            (q - z, (q - a, -b)),
            (z * q, (a * q, b * q)),
            (q * z, (a * q, b * q)),
        ]:
            _assert_canonical(got)
            assert (got.re, got.im) == (re, im)
        if q:
            assert z / q == Scalar(a / q, b / q)
        else:
            with pytest.raises(ZeroDivisionError):
                z / q

    @given(scalars)
    def test_construction_is_canonical(self, z):
        _assert_canonical(z)
        assert (z.re, z.im) == (Fraction(z.re_num, z.den), Fraction(z.im_num, z.den))
        assert type(z.re) is Fraction and type(z.im) is Fraction

    @given(rationals)
    def test_a_real_scalar_equals_and_hashes_like_its_rational(self, q):
        z = Scalar(q)
        _assert_canonical(z)
        assert z == q and q == z and not (z != q)
        assert hash(z) == hash(q)
        assert z != q + 1 and z != Scalar(q, 1)

    @given(scalars)
    def test_complex_hash_and_repr(self, z):
        if z.im:
            assert hash(z) == hash((z.re, z.im))
        assert repr(z) == f"Scalar({z.re!r}, {z.im!r})"

    def test_pinned_repr_and_int_input(self):
        assert repr(Scalar(Fraction(2, 4), -3)) == "Scalar(Fraction(1, 2), Fraction(-3, 1))"
        z = Scalar(6, -4)
        assert (z.re_num, z.im_num, z.den) == (6, -4, 1)
        assert Scalar(True) == 1 and type(Scalar(True).re_num) is int

    def test_division_by_zero(self):
        for zero in (Scalar(0), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                Scalar(1, 2) / zero

    @pytest.mark.parametrize("z", [Scalar(2), Scalar(Fraction(-3, 4), 5), I])
    def test_a_rational_divides_by_a_scalar(self, z):
        for v in (1, -7, 0, Fraction(1, 2), Fraction(-5, 3)):
            assert v / z == Scalar(v) / z
        with pytest.raises(ZeroDivisionError):
            1 / Scalar(0)
        with pytest.raises(TypeError):
            z / Poly([1])

    def test_immutable_views(self):
        z = Scalar(1, 2)
        for name in ("re", "im", "re_num", "im_num", "den"):
            with pytest.raises(AttributeError):
                setattr(z, name, 1)


def _fraction_text(re: Fraction, im: Fraction) -> str:
    """format_scalar written on the Fraction parts."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re}+{im}i"


def _fraction_term(mono: str, re: Fraction, im: Fraction) -> str:
    """One term of format_sum written on the Fraction parts."""
    i_text = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if re and im:
        coeff = f"({re} - {i_text[1:]})" if i_text.startswith("-") else f"({re} + {i_text})"
    else:
        coeff = i_text if im else str(re)
    if not mono:
        return coeff
    if coeff in ("1", "-1"):
        return coeff[:-1] + mono
    return f"{coeff}*{mono}"


units = st.sampled_from([ONE, -ONE, I, -I, Scalar(1, 1), Scalar(-1, -1), Scalar(Fraction(1, 2), -3)])


class TestScalarText:
    """Text printed from the ints is the text of the reduced Fraction parts."""

    @given(st.one_of(scalars, units), st.sampled_from(["", "q", "d", "q^2*d"]))
    @settings(max_examples=300)
    def test_matches_the_fraction_text(self, z, mono):
        assert format_scalar(z) == _fraction_text(z.re, z.im)
        if z:
            assert format_sum([(mono, z)]) == _fraction_term(mono, z.re, z.im)

    def test_pinned_strings(self):
        assert format_scalar(Scalar(2, -3)) == "2+-3i"
        assert format_scalar(Scalar(0, Fraction(-4, 8))) == "-1/2i"
        assert format_sum([("", Scalar(Fraction(1, 2), -3))]) == "(1/2 - 3*i)"
        assert format_sum([("q^2*d", -I)]) == "-i*q^2*d"
        assert format_sum([("q", Scalar(Fraction(6, 4))), ("", -ONE)]) == "3/2*q - 1"

    def test_weyl_expressions_are_pinned(self):
        # sha256 of the text printed when Scalar held Fraction parts
        rng = random.Random(27)
        lines = []
        for _ in range(150):
            u, v = rand_weyl(rng), rand_weyl(rng)
            lines += [u.to_expression(), (u * v).to_expression()]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "4d1f839056240c23c727b5de90daff18f3345bc25ac868f43bf5fef6e0a03073"


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


def _fraction_pairs(p: Poly) -> list:
    return [(c.re, c.im) for c in p.coeffs]


def _trimmed(pairs: list) -> list:
    while pairs and pairs[-1] == (0, 0):
        pairs.pop()
    return pairs


class TestPolyStoreAgainstFractionPairs:
    """``from_numerators`` and ``monomial`` against (re, im) Fraction pairs."""

    NUMERATORS = [
        ([], [], 1),
        ([0, 0, 0], [0, 0, 0], 7),
        ([1, 2], [0, 0], 1),
        ([2, -4, 6, 0, 0], [0, 8, -2, 0, 0], 10),
        ([-3, 0, 9], [6, 0, 0], 3),
        ([0, 0, -5], [0, 0, 0], 15),
        ([-12, 18, 0], [0, -6, 0], 4),
        ([0, 5, 0], [-7, 0, 0], 35),
        ([-4, 0], [0, -4], 4),
    ]

    @pytest.mark.parametrize("kind", [list, tuple])
    @pytest.mark.parametrize("re, im, den", NUMERATORS)
    def test_from_numerators(self, kind, re, im, den):
        args = kind(re), kind(im)
        p = Poly.from_numerators(*args, den)
        assert_canonical_poly(p)
        expected = [(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)]
        assert _fraction_pairs(p) == _trimmed(expected)
        assert args == (kind(re), kind(im))

    def test_from_numerators_random(self):
        rng = random.Random(51)
        for _ in range(300):
            n = rng.randint(0, 8)
            factor = rng.choice([1, 1, 2, 3, 6, 12])
            re = [factor * rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(n)]
            im = [factor * rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(n)]
            den = factor * rng.randint(1, 5)
            p = Poly.from_numerators(re, im, den)
            assert_canonical_poly(p)
            expected = [(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)]
            assert _fraction_pairs(p) == _trimmed(expected)

    @pytest.mark.parametrize(
        "coeff, re, im",
        [
            (Scalar(Fraction(-3, 4), Fraction(5, 6)), Fraction(-3, 4), Fraction(5, 6)),
            (Scalar(Fraction(2, 3)), Fraction(2, 3), 0),
            (Fraction(-5, 2), Fraction(-5, 2), 0),
            (7, 7, 0),
            (Scalar(0, Fraction(-7, 2)), 0, Fraction(-7, 2)),
            (I, 0, 1),
            (Scalar(0), 0, 0),
            (Fraction(0), 0, 0),
            (0, 0, 0),
        ],
    )
    def test_monomial(self, coeff, re, im):
        for k in range(13):
            p = Poly.monomial(k, coeff)
            assert_canonical_poly(p)
            expected = [(Fraction(0), Fraction(0))] * k + [(Fraction(re), Fraction(im))]
            assert _fraction_pairs(p) == _trimmed(expected)
            assert p.degree == (k if re or im else -1)

    @pytest.mark.parametrize("coeff", [5, Scalar(0, 1), 0])
    def test_monomial_refuses_a_negative_power(self, coeff):
        # q^-2 is no polynomial; a zero coefficient does not excuse it
        for k in (-1, -2, -10**30):
            with pytest.raises(ValueError, match="negative power"):
                Poly.monomial(k, coeff)


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
            assert parse_expression(str(p)) == WeylElement.from_profile({0: p}), str(p)


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
tiny_fractions = _bounded_fractions(2, 2)
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
        assert len({WeylElement.monomial(0, 0) * 3, 3, Scalar(3), Poly.constant(3)}) == 1
        assert len({WeylElement.from_profile({0: Q}), Q}) == 1

    def test_equal_realizations_hash_alike(self):
        # one functional in two presentations, factored at x = lcm(1..16) and at x = 1
        cluster = cluster16()
        listed = MomentFunctional.from_moments(cluster.moments_up_to(24))
        for n in range(13):
            r1, r2 = build_gns(cluster, n), build_gns(listed, n)
            assert r1 is not r2 and r1 == r2 and hash(r1) == hash(r2)
            assert len({r1, r2}) == 1
        assert build_gns(mu3(), 2) != build_gns(atoms012(), 2)


def _used(value, use):
    """``value`` after ``use(value)`` has filled its caches."""
    use(value)
    return value


# one value of each immutable type, with fractional and complex parts
_COPY_VALUES = {
    "Scalar": Scalar(Fraction(-2, 3), Fraction(5, 6)),
    "Poly": Poly([Scalar(1, Fraction(1, 4)), 0, Fraction(-7, 2)]),
    "Matrix": Matrix([[Fraction(1, 2), Scalar(0, 3)], [Scalar(-1, Fraction(2, 5)), 4]]),
    "Matrix-0x3": Matrix.zeros(0, 3),
    "FormMatrix": FormMatrix(Matrix([[1, Scalar(0, Fraction(1, 3))], [Scalar(0, -2), 5]])),
    "BimodElement-d2": BimodElement.d_squared().act(Q + Scalar(0, 1), Q * Q - Fraction(1, 2)),
    "BimodElement-gauss": BimodElement.gauss(Q * Fraction(3, 2) + I),
    "Functional-F1": Functional("F1"),
    "Functional-gauss-poly": Functional.gauss_poly(Q * Q + Fraction(1, 3)),
    "Functional-gauss-atoms": Functional.gauss_atoms([1, Fraction(1, 2), 2]),
    "WeylElement": _used(
        WeylElement({(1, 2): Scalar(Fraction(1, 2), -1), (0, 1): 3, (2, 0): I}),
        lambda u: u.apply(Q**3),
    ),
    "MomentFunctional-atoms": _used(
        MomentFunctional.atomic([(-1, Fraction(1, 2)), (Fraction(2, 3), 3)]),
        lambda mf: mf.apply(Q**5),
    ),
    "MomentFunctional-values": _used(
        MomentFunctional.from_moments([1, Fraction(-1, 2), Fraction(5, 3), 0]),
        lambda mf: mf.apply(Q**2),
    ),
    "ActionTable": _used(
        ActionTable(Matrix([[1, 2], [1, 3]]), Matrix([[1, 0], [0, 2]])),
        lambda table: table.left_factor(Q + I),
    ),
}
_ROUTES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def _canonical_fields(v):
    if isinstance(v, FormMatrix):
        return _canonical_fields(v.mat)
    if isinstance(v, WeylElement):
        return dict(v.nums), v.den
    # the caches of these two are not part of the value
    if isinstance(v, MomentFunctional):
        return v.atoms, v.values
    if isinstance(v, ActionTable):
        return _canonical_fields(v.gen), _canonical_fields(v.gram)
    return tuple(getattr(v, name) for name in type(v).__slots__)


@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize("name", _COPY_VALUES)
def test_value_types_survive_copy_and_pickle(name, route):
    """Each route rebuilds the value from its canonical fields.

    Types with value equality must also give an equal value with an equal
    hash; a ``BimodElement`` must stay equivalent.
    """
    value = _COPY_VALUES[name]
    out = _ROUTES[route](value)
    assert type(out) is type(value)
    assert _canonical_fields(out) == _canonical_fields(value)
    if type(value).__eq__ is not object.__eq__:
        assert out == value and hash(out) == hash(value)
    if isinstance(value, BimodElement):
        assert out.equivalent(value)


def test_the_hand_slotted_types_refuse_every_assignment():
    """The six hand-slotted types share one guard, which names each type."""
    guarded = [v for v in _COPY_VALUES.values() if isinstance(v, Immutable)]
    assert {type(v).__name__ for v in guarded} == {
        "Scalar",
        "Poly",
        "Matrix",
        "WeylElement",
        "MomentFunctional",
        "ActionTable",
    }
    for value in guarded:
        for name in (*type(value).__slots__, "extra"):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                setattr(value, name, 1)
