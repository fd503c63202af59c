"""Moment functionals, the GNS truncation, and the paired functionals."""

import dataclasses
import gc
import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from starbimod.algebra import P_ONE, Poly, Q, Scalar, gauss_numerators
from starbimod.bimodule import BimodElement, Generator
from starbimod.errors import (
    MomentMismatchError,
    MomentOutOfRangeError,
    NotPositiveError,
    UnsupportedVariantError,
    VariantMismatchError,
)
from starbimod.exactla import Matrix
from starbimod.gns import (
    Functional,
    UniquenessReport,
    build_gns,
    check_cauchy_schwarz,
    check_identity,
    check_intertwiner,
)
from starbimod.moments import MomentFunctional
from starbimod.sampling import (
    atoms012,
    cluster16,
    mu3,
    rand_d2_element,
    rand_fraction,
    rand_gauss_element,
    rand_poly,
)

from exact_views import hankel_gram

D2 = BimodElement.d_squared()


class TestMoments:
    def test_atomic_counting(self):
        assert mu3().moments_up_to(3) == (Scalar(3), Scalar(0), Scalar(2), Scalar(0))

    def test_gaussian_closed_form(self):
        # independent oracle: m_{2n} = (2n)! / (2^n n!)
        m = MomentFunctional.gaussian(20).moments_up_to(18)
        for n in range(10):
            expected = Fraction(
                math.factorial(2 * n), 2**n * math.factorial(n)
            )
            assert m[2 * n] == Scalar(expected)
            if n:
                assert m[2 * n - 1] == Scalar(0)

    def test_lebesgue(self):
        mf = MomentFunctional.lebesgue_unit(8)
        assert mf.apply(Poly.monomial(3)) == Scalar(Fraction(1, 4))

    def test_out_of_range(self):
        mf = MomentFunctional.from_moments([1, 0, 2])
        with pytest.raises(MomentOutOfRangeError):
            mf.moments_up_to(3)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            MomentFunctional.atomic([(0, -1)])

    def test_pairing_reproduces_moments(self):
        mf = mu3()
        m = mf.moments_up_to(6)
        for j in range(4):
            for k in range(4):
                assert mf.pairing(Poly.monomial(j), Poly.monomial(k)) == m[j + k]

    @pytest.mark.parametrize("count", [0, 1, 2])
    @pytest.mark.parametrize("make", [MomentFunctional.gaussian, MomentFunctional.lebesgue_unit])
    def test_short_standard_lists(self, make, count):
        assert make(count).values == make(8).values[:count]

    @pytest.mark.parametrize("make", [MomentFunctional.gaussian, MomentFunctional.lebesgue_unit])
    def test_negative_count_refused(self, make):
        with pytest.raises(ValueError, match="negative moment count -1"):
            make(-1)

    def test_json_roundtrip(self):
        atoms = [{"x": x, "w": "1"} for x in ("-1", "0", "1")]
        assert MomentFunctional.from_json({"type": "atomic", "atoms": atoms}) == mu3()
        values = {"type": "moments", "values": ["3", "0", "2"]}
        assert MomentFunctional.from_json(values) == MomentFunctional.from_moments([3, 0, 2])


# a float, a Decimal and a string, the last past MAX_DIGITS: not an int or a Fraction
INEXACT = [0.1, Decimal("0.1"), "1/2", "1" * 3000]


class TestExactInputs:
    """Atoms and atom values take an int or a Fraction, as a Scalar part does."""

    @pytest.mark.parametrize("value", INEXACT, ids=["float", "Decimal", "str", "long-str"])
    @pytest.mark.parametrize("slot", [0, 1], ids=["point", "weight"])
    def test_atom_refuses_an_inexact_number(self, slot, value):
        atom = [1, 1]
        atom[slot] = value
        with pytest.raises(TypeError, match="cannot build a rational from"):
            MomentFunctional.atomic([(0, 1), tuple(atom)])

    @pytest.mark.parametrize("value", INEXACT, ids=["float", "Decimal", "str", "long-str"])
    def test_atom_value_refuses_an_inexact_number(self, value):
        with pytest.raises(TypeError, match="cannot build a rational from"):
            Functional.gauss_atoms([1, value, 3])

    def test_ints_and_fractions_are_kept_exactly(self):
        half = Fraction(1, 2)
        assert MomentFunctional.atomic([(half, 3)]).atoms == ((half, Fraction(3)),)
        assert Functional.gauss_atoms([half, 2]).atom_values == (half, Fraction(2))
        # text enters through the literal grammar, as JSON and the CLI read it
        atoms = [{"x": "1/2", "w": "3"}]
        assert MomentFunctional.from_json({"type": "atomic", "atoms": atoms}).atoms == (
            (half, Fraction(3)),
        )


class TestBuildGns:
    def test_mu3_gram(self):
        realization = build_gns(mu3(), 2)
        assert hankel_gram(mu3(), 2) == Matrix([[3, 0, 2], [0, 2, 0], [2, 0, 2]])
        assert realization.kernel == ()
        assert len(realization.pivots) == 3

    def test_mu3_kernel_at_degree_3(self):
        realization = build_gns(mu3(), 3)
        assert realization.kernel == (Q**3 - Q,)

    def test_kernel_vectors_annihilate_gram(self):
        realization = build_gns(mu3(), 5)
        for v in realization.kernel:
            for k in range(6):
                assert mu3().pairing(v, Poly.monomial(k)).is_zero()

    def test_kernel_is_an_ideal_under_truncation(self):
        mf = mu3()
        realization = build_gns(mf, 5)
        for v in realization.kernel:
            shifted = v * Q
            if shifted.degree <= 5:
                for k in range(6):
                    assert mf.pairing(shifted, Poly.monomial(k)).is_zero()

    def test_the_measure_is_freed_without_the_cycle_collector(self):
        # the measure caches its realization, which holds no reference back
        atom = Fraction(1, 987654321)
        gc.disable()
        try:
            mf = MomentFunctional.atomic([(atom, 1), (1, 2)])
            build_gns(mf, 3)
            del mf
            left = [
                o
                for o in gc.get_objects()
                if isinstance(o, MomentFunctional) and atom in dict(o.atoms or ())
            ]
            assert left == []
        finally:
            gc.enable()

    def test_indefinite_sequence_rejected(self):
        with pytest.raises(NotPositiveError):
            build_gns(MomentFunctional.from_moments([1, 0, -1]), 1)

    @pytest.mark.parametrize(
        "mf, degree", [(mu3(), -1), (MomentFunctional.gaussian(8), -3)], ids=["mu3", "gaussian"]
    )
    def test_negative_degree_refused(self, mf, degree):
        with pytest.raises(ValueError, match=f"negative degree {degree}"):
            build_gns(mf, degree)
        assert mf._gns is None

    def test_zero_diagonal_rejected(self):
        with pytest.raises(NotPositiveError):
            build_gns(MomentFunctional.from_moments([0, 1, 0]), 1)

    @pytest.mark.parametrize("degree", [2.0, 2.5, Fraction(2)], ids=repr)
    def test_non_integer_degree_refused(self, degree):
        mf = MomentFunctional.gaussian(8)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build_gns(mf, degree)
        assert mf._gns is None

    def test_complex_moments_rejected(self):
        # refused when the list is built, so no degree can realize it
        data = {"type": "moments", "values": ["1", "1+1i", "1"]}
        for build in (
            lambda: MomentFunctional.from_moments([1, Scalar(0, 1)]),
            lambda: MomentFunctional.from_json(data),
        ):
            with pytest.raises(NotPositiveError, match="^moments of a positive functional must be real$"):
                build()

    def test_shipped_measures_pass_the_gate(self):
        # degree 14 is the probe workload's gate degree
        paths = sorted((Path(__file__).resolve().parents[1] / "measures").glob("*.json"))
        assert paths
        for path in paths:
            mf = MomentFunctional.from_json(json.loads(path.read_text(encoding="utf-8")))
            assert build_gns(mf, 14).degree == 14, path.name

    @pytest.mark.parametrize(
        "make",
        [mu3, atoms012, cluster16, lambda: MomentFunctional.gaussian(25)],
        ids=["mu3", "atoms012", "cluster16", "gaussian"],
    )
    def test_a_cached_leading_part_equals_a_fresh_build(self, make):
        warm = make()
        top = build_gns(warm, 12)
        for n in range(13):
            lead, fresh = build_gns(warm, n), build_gns(make(), n)
            assert lead == fresh and hash(lead) == hash(fresh)
            # identity is the cache's: only a read at the cached degree returns its object
            assert (lead is top) == (n == 12)


class TestFunctionalValues:
    def test_f0_counts_mass(self):
        assert Functional("F0").value(D2, mu3()) == Scalar(3)

    def test_f1_example(self):
        x = BimodElement(Generator.D2, [(Q, Q)])
        assert Functional("F1").value(x, atoms012()) == Scalar(3)

    def test_f2_example(self):
        x = BimodElement(Generator.D2, [(P_ONE, Q * Q)])
        assert Functional("F2").value(x, mu3()) == Scalar(6)

    def test_gauss_poly_weight(self):
        func = Functional.gauss_poly(Q)
        assert func.value(BimodElement.gauss(Q), mu3()) == Scalar(2)

    def test_gauss_atoms(self):
        func = Functional.gauss_atoms([1, 2, 3])
        # sum w_i v_i p(x_i) with p = q at atoms -1, 0, 1
        assert func.value(BimodElement.gauss(Q), mu3()) == Scalar(2)

    def test_tag_mismatch(self):
        with pytest.raises(VariantMismatchError):
            Functional("F0").value(BimodElement.gauss(1), mu3())
        with pytest.raises(VariantMismatchError):
            Functional.gauss_poly(Q).value(D2, mu3())

    def test_gauss_atoms_needs_atomic(self):
        func = Functional.gauss_atoms([1, 2, 3])
        with pytest.raises(VariantMismatchError):
            func.value(BimodElement.gauss(1), MomentFunctional.gaussian(8))

    def test_gauss_atoms_checks_in_order(self):
        func = Functional.gauss_atoms([1, 2, 3])
        with pytest.raises(UnsupportedVariantError):
            Functional("F0").atom_images(D2, mu3())
        calls = [
            func.value,
            func.atom_images,
            lambda x, mf: check_identity(func, Q, x, Q, mf),
            lambda x, mf: check_cauchy_schwarz(func, Q, x, mf),
        ]
        four_atoms = MomentFunctional.atomic([(0, 1), (1, 1), (2, 1), (3, 1)])
        for call in calls:
            with pytest.raises(VariantMismatchError, match="expects a gauss element"):
                call(D2, MomentFunctional.gaussian(8))
            with pytest.raises(VariantMismatchError, match="atomic measure"):
                call(BimodElement.gauss(1), MomentFunctional.gaussian(8))
            with pytest.raises(VariantMismatchError, match="3 values for 4 atoms"):
                call(BimodElement.gauss(1), four_atoms)
        with pytest.raises(TypeError):
            check_identity(func, Q, BimodElement.gauss(1), "not a polynomial", mu3())

    def test_value_is_class_function(self):
        rng = random.Random(83)
        for _ in range(80):
            x = rand_d2_element(rng, 3, 3)
            y = BimodElement.from_weyl(x.weyl_by_products())
            for func in (Functional("F0"), Functional("F1"), Functional("F2")):
                assert func.value(x, mu3()) == func.value(y, mu3())


class TestThetaPolynomials:
    def test_lowered_identity(self):
        b = rand_poly(random.Random(5), 4)
        assert Functional("F0").theta(D2, b) == b

    def test_lowered_derivative(self):
        assert Functional("F1").theta(D2, Q * Q) == 2 * Q

    def test_lowered_second_derivative(self):
        assert Functional("F2").theta(D2, Q**3) == 6 * Q

    def test_sandwiched_zero(self):
        x = BimodElement(Generator.D2, [(Q, Q)])
        assert Functional("F2").theta(x, P_ONE).is_zero()

    def test_atom_variant_has_no_polynomial_operator(self):
        with pytest.raises(UnsupportedVariantError):
            Functional.gauss_atoms([1, 2, 3]).theta(BimodElement.gauss(1), Q)

    def test_theta_is_the_right_action_read_off(self):
        # F(a x b) = f(a theta(x) b) for every a, so theta(x) b is the
        # coefficient polynomial of x b; no theta formula is used here
        rng = random.Random(97)
        for _ in range(60):
            x = rand_d2_element(rng, 3, 3)
            b = rand_poly(rng, 4)
            for func in (Functional("F0"), Functional("F1"), Functional("F2")):
                assert func.theta(x, b) == func.coefficient_poly(x.act(P_ONE, b))
            func = Functional.gauss_poly(rand_poly(rng, 2))
            y = rand_gauss_element(rng, 3)
            assert func.theta(y, b) == func.coefficient_poly(y.act(P_ONE, b))

    def test_theta_respects_classes(self):
        rng = random.Random(89)
        for _ in range(80):
            x = rand_d2_element(rng, 3, 3)
            y = BimodElement.from_weyl(x.weyl_by_products())
            b = rand_poly(rng, 3)
            for func in (Functional("F0"), Functional("F1"), Functional("F2")):
                assert func.theta(x, b) == func.theta(y, b)


class TestIdentity:
    def test_pinned_d2_case(self):
        report = check_identity(Functional("F0"), Q, D2, Q, mu3())
        assert report.lhs == Scalar(2)
        assert report.rhs == Scalar(2)
        assert report.equal

    def test_pinned_f1_case(self):
        report = check_identity(Functional("F1"), P_ONE, D2, Q, atoms012())
        assert report.lhs == Scalar(3) and report.equal

    def test_pinned_gauss_case(self):
        report = check_identity(
            Functional.gauss_poly(Q), Q, BimodElement.gauss(1), P_ONE, mu3()
        )
        assert report.lhs == Scalar(2) and report.equal

    def test_random_exactness(self):
        rng = random.Random(97)
        measures = [mu3(), atoms012(), MomentFunctional.gaussian(40)]
        for _ in range(150):
            func = rng.choice(
                [Functional("F0"), Functional("F1"), Functional("F2")]
            )
            mf = rng.choice(measures)
            report = check_identity(
                func,
                rand_poly(rng, 4),
                rand_d2_element(rng, 3, 3),
                rand_poly(rng, 4),
                mf,
            )
            assert report.equal

    def test_atom_coordinate_identity(self):
        rng = random.Random(101)
        for _ in range(60):
            func = Functional.gauss_atoms(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            )
            report = check_identity(
                func,
                rand_poly(rng, 4),
                rand_gauss_element(rng, 3),
                rand_poly(rng, 4),
                mu3(),
            )
            assert report.equal


class TestHermiticity:
    def test_f0_is_hermitian(self):
        rng = random.Random(103)
        f0 = Functional("F0")
        for _ in range(100):
            x = rand_d2_element(rng, 3, 3)
            assert f0.value(x.involution(), mu3()) == f0.value(x, mu3()).conjugate()

    def test_gauss_real_weight_is_hermitian(self):
        rng = random.Random(107)
        func = Functional.gauss_poly(Q * Q - 1)
        for _ in range(100):
            x = rand_gauss_element(rng, 3)
            assert func.value(x.involution(), mu3()) == func.value(
                x, mu3()
            ).conjugate()

    def test_f1_f2_involution_transport(self):
        # F1 and F2 are not hermitian; under the involution they transport
        # along the triple law (h0, h1, h2) -> (h0+, h0+' - h1+, ...).
        rng = random.Random(109)
        mf = MomentFunctional.gaussian(40)
        for _ in range(100):
            x = rand_d2_element(rng, 3, 3)
            h0, h1, h2 = x.triple()
            f1 = Functional("F1")
            lhs1 = f1.value(x.involution(), mf)
            rhs1 = mf.apply(h0.derivative() - h1).conjugate()
            assert lhs1 == rhs1
            f2 = Functional("F2")
            lhs2 = f2.value(x.involution(), mf)
            rhs2 = mf.apply(
                h0.derivative(2) - 2 * h1.derivative() + h2
            ).conjugate()
            assert lhs2 == rhs2


class TestCauchySchwarz:
    def test_pinned_case(self):
        report = check_cauchy_schwarz(Functional("F0"), Q, D2, mu3())
        assert report.lhs_squared == 0
        assert report.bound == 6
        assert report.holds

    def test_equality_at_proportional_input(self):
        x = BimodElement(Generator.D2, [(Q, Q * Q - 1)])
        func = Functional("F1")
        h = func.coefficient_poly(x)
        report = check_cauchy_schwarz(func, h, x, mu3())
        assert report.lhs_squared == report.bound

    def test_pinned_equality_case(self):
        x = BimodElement(Generator.D2, [(P_ONE, Q * Q)])
        report = check_cauchy_schwarz(Functional("F2"), P_ONE, x, mu3())
        assert report.lhs_squared == 36 and report.bound == 36

    def test_random_cases_hold(self):
        rng = random.Random(113)
        measures = [mu3(), atoms012(), MomentFunctional.lebesgue_unit(40)]
        variants = [Functional("F0"), Functional("F1"), Functional("F2")]
        for _ in range(150):
            report = check_cauchy_schwarz(
                rng.choice(variants),
                rand_poly(rng, 4),
                rand_d2_element(rng, 3, 3),
                rng.choice(measures),
            )
            assert report.holds

    def test_the_bound_is_real(self):
        # the report keeps the real part of c f(a^+ a): for complex a and x,
        # on every variant and sample measure, both factors are real
        rng = random.Random(131)
        measures = [
            mu3(),
            atoms012(),
            MomentFunctional.lebesgue_unit(64),
            MomentFunctional.gaussian(64),
        ]
        complex_unit = Scalar(1, 1)
        for mf in measures:
            variants = [Functional(kind) for kind in ("F0", "F1", "F2")]
            variants.append(Functional.gauss_poly(rand_poly(rng, 2) * complex_unit))
            if mf.is_atomic:
                variants.append(Functional.gauss_atoms([rand_fraction(rng) for _ in mf.atoms]))
            for func in variants:
                for _ in range(8):
                    a = rand_poly(rng, 4) * complex_unit
                    if func.tag is Generator.D2:
                        x = rand_d2_element(rng, 3, 3) * complex_unit
                    else:
                        x = rand_gauss_element(rng, 3) * complex_unit
                    gram = mf.pairing(a, a)
                    if func.kind == "gauss-atoms":
                        images = func.atom_images(x, mf)
                        c = mf.atom_pairing(images, images)
                    else:
                        h = func.coefficient_poly(x)
                        c = mf.apply(h.conjugate() * h)
                    assert gram.is_real() and c.is_real(), func.describe()
                    report = check_cauchy_schwarz(func, a, x, mf)
                    assert report.bound == (c * gram).re

    def test_gauss_atom_variant_holds(self):
        rng = random.Random(127)
        for _ in range(60):
            func = Functional.gauss_atoms(
                [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            )
            report = check_cauchy_schwarz(
                func, rand_poly(rng, 4), rand_gauss_element(rng, 3), mu3()
            )
            assert report.holds


# The gauss-atoms sums as Scalar loops: the reference the integer sums
# of Functional and check_* must reproduce exactly.
def _ref_images(func, x, mf):
    p = x.gauss_poly()
    return [p(pt) * v for (pt, _), v in zip(mf.atoms, func.atom_values)]


def _ref_value(func, x, mf):
    re = im = 0
    for (_, w), u in zip(mf.atoms, _ref_images(func, x, mf)):
        re += u.re * w
        im += u.im * w
    return Scalar(re, im)


def _ref_theta_image(func, x, b, mf):
    return tuple(u * b(pt) for (pt, _), u in zip(mf.atoms, _ref_images(func, x, mf)))


def _ref_identity(func, a, x, b, mf):
    lhs = _ref_value(func, x.act(a, b), mf)
    rhs = Scalar(0)
    for (pt, w), u in zip(mf.atoms, _ref_theta_image(func, x, b, mf)):
        rhs = rhs + u * a.conjugate()(pt).conjugate() * w
    return lhs, rhs


def _ref_cauchy_schwarz(func, a, x, mf):
    lhs = _ref_value(func, x.act(a.conjugate(), P_ONE), mf)
    c = Scalar(0)
    for (_, w), u in zip(mf.atoms, _ref_images(func, x, mf)):
        c = c + u * u.conjugate() * w
    return lhs.abs2(), (c * mf.pairing(a, a)).re


class TestGaussAtomsIntegerSums:
    """value, atom_images, check_identity and check_cauchy_schwarz of
    gauss-atoms against the Scalar loops, exactly."""

    @staticmethod
    def _cases(mf, seed):
        rng = random.Random(seed)
        zero = Poly()
        for n in range(40):
            values = [rand_fraction(rng) for _ in mf.atoms]
            values[n % len(values)] = Fraction(0)
            values[(n + 1) % len(values)] = -abs(rand_fraction(rng)) or Fraction(-1)
            x = BimodElement.gauss(zero) if n % 10 == 0 else rand_gauss_element(rng, 4)
            a = zero if n % 10 == 3 else rand_poly(rng, 5)
            b = zero if n % 10 == 7 else rand_poly(rng, 5)
            yield Functional.gauss_atoms(values), a, x, b

    @pytest.mark.parametrize("name", ["mu3", "atoms012", "cluster"])
    def test_against_scalar_loops(self, name):
        mf = {"mu3": mu3, "atoms012": atoms012, "cluster": cluster16}[name]()
        for func, a, x, b in self._cases(mf, 131):
            assert func.value(x, mf) == _ref_value(func, x, mf)
            re, im, den = func.atom_images(x, mf)
            vector = [Scalar(Fraction(u, den), Fraction(v, den)) for u, v in zip(re, im)]
            assert vector == _ref_images(func, x, mf)
            report = check_identity(func, a, x, b, mf)
            assert (report.lhs, report.rhs) == _ref_identity(func, a, x, b, mf)
            assert report.equal
            cs = check_cauchy_schwarz(func, a, x, mf)
            assert (cs.lhs_squared, cs.bound) == _ref_cauchy_schwarz(func, a, x, mf)
            assert type(cs.lhs_squared) is Fraction and type(cs.bound) is Fraction


def _atom_vector(values):
    """Scalars as an atom vector ``(re, im, den)``."""
    [(re, im)], den = gauss_numerators([values])
    return re, im, den


def _rand_complex(rng, n):
    return [Scalar(rand_fraction(rng), rand_fraction(rng)) for _ in range(n)]


class TestAtomRealization:
    """atom_power_sums, atom_pairing and atom_product against Fraction loops."""

    MEASURES = {"mu3": mu3, "atoms012": atoms012, "cluster": cluster16}

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_unit_power_sums_are_the_moments(self, name):
        mf = self.MEASURES[name]()
        re, im, den = mf.atom_power_sums(mf.at_atoms(P_ONE), 29)
        sums = tuple(Scalar(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im))
        assert sums == tuple(
            Scalar(sum(w * x**k for x, w in mf.atoms)) for k in range(29)
        )
        assert sums == self.MEASURES[name]().moments_up_to(28)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_pairing_and_product_on_complex_vectors(self, name):
        mf = self.MEASURES[name]()
        n = len(mf.atoms)
        rng = random.Random(17)

        def pairing(u, v):  # the Fraction loop
            return sum(
                (w * a * b.conjugate() for (_, w), a, b in zip(mf.atoms, u, v)), Scalar(0)
            )

        for _ in range(20):
            u, v, v2 = (_rand_complex(rng, n) for _ in range(3))
            c = Scalar(rand_fraction(rng), rand_fraction(rng))
            uu, vv, vv2 = _atom_vector(u), _atom_vector(v), _atom_vector(v2)
            assert mf.atom_pairing(uu, vv) == pairing(u, v)
            assert mf.atom_pairing(vv, uu) == mf.atom_pairing(uu, vv).conjugate()
            combo = _atom_vector([c * b + b2 for b, b2 in zip(v, v2)])
            assert mf.atom_pairing(uu, combo) == (
                c.conjugate() * mf.atom_pairing(uu, vv) + mf.atom_pairing(uu, vv2)
            )
            re, im, den = mf.atom_product(uu, vv)
            assert [Scalar(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)] == [
                a * b for a, b in zip(u, v)
            ]
            re, im, den = mf.atom_power_sums(uu, 7)
            assert [Scalar(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)] == [
                sum((w * a * x**k for (x, w), a in zip(mf.atoms, u)), Scalar(0))
                for k in range(7)
            ]

    def test_a_moment_list_has_no_atom_realization(self):
        mf = MomentFunctional.gaussian(8)
        vec = ([1], [0], 1)
        calls = [
            lambda: mf.at_atoms(Q),
            lambda: mf.atom_product(vec, vec),
            lambda: mf.atom_pairing(vec, vec),
            lambda: mf.atom_power_sums(vec, 3),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="a moment list has no atoms"):
                call()


class TestUniqueness:
    def test_permuted_atoms(self):
        permuted = MomentFunctional.atomic([(1, 1), (0, 1), (-1, 1)])
        report = check_intertwiner(mu3(), permuted, 6)
        assert report.verified

    def test_point_mass_presentations(self):
        point = MomentFunctional.atomic([(0, 2)])
        moments = MomentFunctional.from_moments([2] + [0] * 12)
        assert check_intertwiner(point, moments, 6).verified

    def test_mismatch_detected(self):
        with pytest.raises(MomentMismatchError):
            check_intertwiner(mu3(), atoms012(), 4)

    def test_negative_degree_is_no_pass(self):
        # it compares no moment, so it must not read as verified
        with pytest.raises(ValueError, match="negative degree -1"):
            check_intertwiner(mu3(), mu3(), -1)

    def test_non_integer_atoms_against_their_moment_list(self):
        # the atoms are factored at x = lcm(3, 7, 4, 5, 2) = 420, the list at x = 1
        atoms = MomentFunctional.atomic(
            [
                (Fraction(-2, 3), Fraction(1, 5)),
                (Fraction(1, 7), Fraction(3, 2)),
                (Fraction(5, 4), Fraction(2, 9)),
                (Fraction(2, 5), 1),
                (Fraction(-1, 2), Fraction(7, 3)),
            ]
        )
        moments = MomentFunctional.from_moments(atoms.moments_up_to(16))
        for n in range(1, 9):
            assert check_intertwiner(atoms, moments, n) == UniquenessReport(n, True)
        # five atoms: degrees 5..8 have a kernel to compare
        assert len(build_gns(moments, 8).kernel) == 4

    def test_the_report_is_the_degree_and_the_verdict(self):
        assert [f.name for f in dataclasses.fields(UniquenessReport)] == ["degree", "verified"]


class TestUnitWeightProducts:
    """gauss-poly with weight 1 convolves no unit factor, and its results hold."""

    A = Poly([1, Scalar(0, 1)])
    B = Poly([Fraction(-1, 2), 0, 2])
    X = BimodElement.gauss(Poly([3, Scalar(Fraction(1, 3), 1), 0, -1]))
    PINNED = [
        (mu3, Scalar(Fraction(9, 2), -2), Fraction(1105, 9), Fraction(1345, 9)),
        (
            lambda: MomentFunctional.gaussian(40),
            Scalar(-1, Fraction(-80, 3)),
            Fraction(208, 9),
            Fraction(416, 9),
        ),
    ]

    @pytest.mark.parametrize("measure, value, lhs_squared, bound", PINNED)
    def test_convolutions_and_results(self, measure, value, lhs_squared, bound, monkeypatch):
        from starbimod import algebra

        mf = measure()
        func = Functional.gauss_poly(P_ONE)
        calls = []
        original = algebra._convolve_into

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(algebra, "_convolve_into", counted)
        report = check_identity(func, self.A, self.X, self.B, mf)
        # p * b and a * (p b) on the left; theta(x) b and a * image on the right
        assert len(calls) == 4
        assert report.lhs == report.rhs == value
        calls.clear()
        cs = check_cauchy_schwarz(func, self.A, self.X, mf)
        # a^+ * p, h^+ * h and a^+ * a
        assert len(calls) == 3
        assert (cs.lhs_squared, cs.bound) == (lhs_squared, bound)
