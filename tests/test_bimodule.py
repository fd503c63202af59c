"""Bimodule elements: actions, involution, the classifying triple, lowering."""

import random
from fractions import Fraction

import pytest

from starbimod import algebra
from starbimod.algebra import I, P_ONE, Poly, Q, Scalar
from starbimod.bimodule import BimodElement, Generator
from starbimod.errors import TagMismatchError
from starbimod.sampling import rand_d2_element, rand_poly, rand_scalar
from starbimod.weyl import P, WeylElement

from draws import nonzero_poly

D2 = BimodElement.d_squared()


def pairs(*items):
    return BimodElement(Generator.D2, list(items))


def zero_triple_junk(f: Poly, g: Poly) -> BimodElement:
    """A nonzero-looking term list whose classifying triple vanishes."""
    fg = f * g
    d1 = f * g.derivative()
    d2 = f * g.derivative(2)
    half = Fraction(1, 2)
    return pairs(
        (f, g),
        (-fg, P_ONE),
        (-d1, Q),
        (d1 * Q, P_ONE),
        (-(d2 * half), Q * Q),
        (d2 * Q, Q),
        (-(d2 * Q * Q * half), P_ONE),
    )


class TestActionAndInvolution:
    def test_action_example(self):
        x = D2.act(Q, Q * Q)
        assert x.equivalent(pairs((Q, Q * Q)))

    def test_unit_law(self):
        rng = random.Random(3)
        x = rand_d2_element(rng)
        assert x.act(P_ONE, P_ONE).equivalent(x)

    def test_unit_side_takes_no_product(self, monkeypatch):
        rng = random.Random(5)
        x = rand_d2_element(rng, 4, 4)
        a = nonzero_poly(rng, 4)
        b = nonzero_poly(rng, 4)
        # the product route, built before the counter is live
        by_products = {
            "left": [(P_ONE * aj, bj * b) for aj, bj in x.terms],
            "right": [(a * aj, bj * P_ONE) for aj, bj in x.terms],
        }
        # a unit factor costs ``Poly.__mul__`` no convolution
        products = []
        original = algebra._product

        def counted(*numerators):
            products.append(numerators)
            return original(*numerators)

        monkeypatch.setattr(algebra, "_product", counted)
        n = len(x.terms)
        cases = [
            ("left", P_ONE, b, n),
            ("left", Poly.constant(Fraction(2, 2)), b, n),
            ("right", a, 1, n),
            ("right", a, P_ONE, n),
        ]
        for side, left, right, count in cases:
            products.clear()
            acted = x.act(left, right)
            assert len(products) == count, (side, left, right)
            assert acted.terms == BimodElement(Generator.D2, by_products[side]).terms
        products.clear()
        assert x.act(1, P_ONE).terms == x.terms
        assert products == []

    def test_gauss_absorption(self):
        p = rand_poly(random.Random(4), 3)
        x = BimodElement.gauss(p).act(Q, Q)
        assert x.gauss_poly() == Q * p * Q

    def test_involution_swap(self):
        assert pairs((Q, P_ONE)).involution().equivalent(pairs((P_ONE, Q)))
        assert pairs((P_ONE, Q)).involution().equivalent(pairs((Q, P_ONE)))

    def test_involution_antilinear(self):
        x = pairs((Poly.constant(I), P_ONE))
        assert x.involution().equivalent(pairs((P_ONE, Poly.constant(-I))))

    def test_empty_term_list_is_zero(self):
        assert BimodElement(Generator.D2).is_zero()
        assert BimodElement(Generator.GAUSS).is_zero()


class TestGaussSum:
    def test_sum_adds_the_polynomials(self):
        x, y = BimodElement.gauss(Q + 1), BimodElement.gauss(Q)
        # the sum as the constructor folds the concatenated pairs
        folded = BimodElement(Generator.GAUSS, x.terms + y.terms)
        total = x + y
        assert total.equivalent(folded)
        assert total.gauss_poly() == Q * 2 + 1

    def test_negation_and_multiples_scale_the_polynomial(self):
        x, y = BimodElement.gauss(Q + 1), BimodElement.gauss(Q)
        # each as the constructor folds the scaled left factors
        folded = [
            BimodElement(Generator.GAUSS, [(a * c, b) for a, b in x.terms])
            for c in (-1, 3, Fraction(1, 2), I)
        ]
        folded.append(BimodElement(Generator.GAUSS, [*x.terms, *((-a, b) for a, b in y.terms)]))
        got = [-x, x * 3, Fraction(1, 2) * x, x * I, x - y]
        assert [g.gauss_poly() for g in got] == [f.gauss_poly() for f in folded]
        assert got[0].gauss_poly() == -Q - 1 and got[4].gauss_poly() == P_ONE
        assert (x * 0).terms == () and (-BimodElement(Generator.GAUSS)).terms == ()

    def test_random_arithmetic_is_the_polynomial_arithmetic(self):
        # the general pair path serves GAUSS elements: each result is the
        # element of the same arithmetic on the polynomials
        rng = random.Random(41)
        polys = [rand_poly(rng, 4) for _ in range(12)] + [Poly(), Q * Fraction(1, 3) - I]
        p = nonzero_poly(rng, 4)
        cases = [(rng.choice(polys), rng.choice(polys)) for _ in range(30)]
        cases += [(p, -p), (p, p), (Poly(), p)]
        scalars = [rand_scalar(rng) for _ in range(6)] + [0, 3, Fraction(-2, 7), I]
        for f, g in cases:
            x, y = BimodElement.gauss(f), BimodElement.gauss(g)
            c = rng.choice(scalars)
            for got, want in [
                (x + y, f + g), (x - y, f - g), (-x, -f), (c * x, f * c), (x * c, f * c),
            ]:
                assert got.equivalent(BimodElement.gauss(want)), (f, g, c)
        assert (BimodElement.gauss(p) + BimodElement.gauss(-p)).is_zero()
        assert (BimodElement.gauss(p) - BimodElement.gauss(p)).terms == ()

    def test_cancelling_sum_is_zero(self):
        total = BimodElement.gauss(Q) + BimodElement.gauss(-Q)
        assert total.is_zero() and total.terms == ()


class TestTriple:
    def test_generator(self):
        assert D2.triple() == (P_ONE, Poly(), Poly())

    def test_q_both_sides(self):
        assert pairs((Q, Q)).triple() == (Q * Q, Q, Poly())

    def test_triple_matches_ambient_products(self):
        rng = random.Random(17)
        for _ in range(100):
            x = rand_d2_element(rng, 3, 3)
            assert BimodElement.from_weyl(x.weyl_by_products()).triple() == x.triple()

    def test_equivalence_examples(self):
        assert not pairs((P_ONE, Q)).equivalent(pairs((Q, P_ONE)))
        x0 = pairs((Q * Q, P_ONE), (Poly.monomial(1, -2), Q), (P_ONE, Q * Q))
        y0 = (
            pairs((P_ONE, Q * Q))
            - pairs((Q * Q, P_ONE))
            - (pairs((P_ONE, Q)) - pairs((Q, P_ONE))).act(2 * Q, P_ONE)
        )
        assert x0.equivalent(y0)

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            D2.equivalent(BimodElement.gauss(1))


class TestLowering:
    def test_generator_image(self):
        assert D2.theta_map() == WeylElement.monomial(0, 1, I)

    def test_commutator_image(self):
        x = pairs((P_ONE, Q)) - pairs((Q, P_ONE))
        assert x.theta_map() == WeylElement.monomial(0, 0, I)

    def test_well_defined_on_classes(self):
        rng = random.Random(23)
        for _ in range(100):
            x = rand_d2_element(rng, 3, 3)
            junk = zero_triple_junk(rand_poly(rng, 2), rand_poly(rng, 2))
            y = x + junk
            assert junk.is_zero()
            assert x.theta_map() == y.theta_map()
            assert BimodElement.from_weyl(x.weyl_by_products()).theta_map() == x.theta_map()

    def test_bimodule_homomorphism(self):
        rng = random.Random(31)
        for _ in range(100):
            x = rand_d2_element(rng, 3, 3)
            a = rand_poly(rng, 3)
            b = rand_poly(rng, 3)
            lhs = x.act(a, b).theta_map()
            rhs = (
                WeylElement.from_profile({0: a})
                * x.theta_map()
                * WeylElement.from_profile({0: b})
            )
            assert lhs == rhs


class TestSchrodingerTable:
    def test_generator_table(self):
        table = D2.schrodinger_table(8)
        assert table[0].is_zero()
        for k in range(1, 9):
            assert table[k] == Poly.monomial(k - 1, Scalar(0, k))

    def test_x0_table_vanishes(self):
        x0 = pairs((Q * Q, P_ONE), (Poly.monomial(1, -2), Q), (P_ONE, Q * Q))
        assert all(p.is_zero() for p in x0.schrodinger_table(6))


class TestFromWeyl:
    def test_needs_low_d_degree(self):
        with pytest.raises(ValueError):
            BimodElement.from_weyl(WeylElement.monomial(0, 3))

    def test_momentum_reachable(self):
        elem = BimodElement.from_weyl(P)
        assert elem.triple() == (Poly(), Poly.constant(Scalar(0, Fraction(-1, 2))), Poly())

    def test_roundtrip_on_random_elements(self):
        rng = random.Random(37)
        for _ in range(100):
            x = rand_d2_element(rng, 3, 3)
            y = BimodElement.from_weyl(x.weyl_by_products())
            assert y.equivalent(x)
            assert y.triple() == x.triple()
            assert len(y.terms) <= 3
            assert all(b in (P_ONE, Q, Q * Q) for _, b in y.terms)


class TestHermitianSandwich:
    def test_outputs_are_hermitian(self):
        rng = random.Random(41)
        for _ in range(100):
            y = rand_d2_element(rng, 2, 2)
            y = y + y.involution()
            a = rand_poly(rng, 3)
            out = y.act(a.conjugate(), a)
            assert out.is_hermitian()


class TestJson:
    def test_roundtrip(self):
        # an element file reads back as its terms' coefficient strings
        for data in (
            {"tag": "d2", "terms": [[["1", "0", "2/3"], ["0", "1+1i"]], [["-1"], ["0", "0", "1"]]]},
            {"tag": "gauss", "terms": [[["1"], ["1", "-1/2i"]]]},
        ):
            x = BimodElement.from_json(data)
            assert x.tag.value == data["tag"]
            assert [[a.coeff_strings(), b.coeff_strings()] for a, b in x.terms] == data["terms"]
