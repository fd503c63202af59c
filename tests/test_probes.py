"""Float-side probes: boundedness plateaus and the numerical-radius bound."""

import json
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import comb, factorial, inf
from pathlib import Path

import numpy as np
import pytest
import sympy
from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix

from starbimod import gns, probes
from starbimod.algebra import P_ONE, Poly, Q, Scalar
from starbimod.bimodule import BimodElement, Generator
from starbimod.errors import (
    DoubleRangeError,
    MomentOutOfRangeError,
    NotHermitianError,
    NotPositiveError,
    SingularGramError,
)
from starbimod.exactla import Matrix, inverse, ldl_psd, nullspace
from starbimod.gns import Functional, build_gns, check_intertwiner
from starbimod.moments import MomentFunctional
from starbimod.probes import (
    BOUNDED,
    GROWTH,
    _reduced_pencil,
    boundedness_probe,
    form_numerators,
    generator_probe,
    norm_bound_trials,
    numerical_radius_norm_check,
    plateau_verdict,
)
from starbimod.sampling import (
    atoms012,
    cluster16,
    mu3,
    rand_atoms,
    rand_d2_element,
    rand_fraction,
    rand_poly,
)

from draws import nonzero_poly, real_poly
from exact_views import (
    assert_canonical_poly,
    hankel_gram,
    lower_scalars,
    pencil_scalars,
    pivot_lower_scalars,
)

D2 = BimodElement.d_squared()
ROOT = Path(__file__).resolve().parents[1]


def file_measure(name: str) -> MomentFunctional:
    return MomentFunctional.from_json(json.loads((ROOT / "measures" / name).read_text()))


class TestBoundednessProbe:
    def test_identity_operator_is_flat(self):
        report = boundedness_probe(
            Functional("F0"), D2, MomentFunctional.gaussian(64), range(2, 9)
        )
        assert report.verdict == BOUNDED
        assert all(abs(v - 1.0) < 1e-9 for v in report.lambdas)

    def test_derivative_grows_on_gaussian(self):
        report = boundedness_probe(
            Functional("F1"), D2, MomentFunctional.gaussian(64), range(2, 11)
        )
        assert report.verdict == GROWTH
        assert all(b >= a - 1e-9 for a, b in zip(report.lambdas, report.lambdas[1:]))

    def test_unit_interval_multiplication_converges_too_slowly(self):
        # multiplication by q on [0,1] has norm 1, but the finite-degree
        # quotient climbs like the largest quadrature node, outside the
        # plateau tolerance at these degrees
        report = boundedness_probe(
            Functional.gauss_poly(Q),
            BimodElement.gauss(1),
            MomentFunctional.lebesgue_unit(64),
            range(2, 11),
        )
        assert report.verdict == GROWTH
        assert report.lambdas[-1] < 1.0
        assert abs(report.lambdas[-1] - 0.98911) < 1e-3

    def test_monotone_in_degree(self):
        rng = random.Random(11)
        mf = MomentFunctional.gaussian(64)
        for _ in range(10):
            x = rand_d2_element(rng, 2, 2)
            x = x + x.involution()
            report = boundedness_probe(Functional("F0"), x, mf, range(2, 8))
            assert all(
                b >= a - 1e-9 for a, b in zip(report.lambdas, report.lambdas[1:])
            )

    def test_requires_hermitian_element(self):
        skew = BimodElement(Generator.D2, [(Q, P_ONE)])
        with pytest.raises(NotHermitianError):
            boundedness_probe(
                Functional("F0"), skew, MomentFunctional.gaussian(32), range(2, 5)
            )

    def test_requires_three_degrees(self):
        with pytest.raises(ValueError):
            boundedness_probe(
                Functional("F0"), D2, MomentFunctional.gaussian(32), [2, 3]
            )

    @pytest.mark.parametrize(
        "degrees", [[2, 10, 10, 10], [2, 2, 3], [2, 3, 3], [3, 2, 4]], ids=str
    )
    def test_requires_strictly_increasing_degrees(self, degrees):
        # three copies of lambda_10 would read as a plateau: Bounded, where
        # the tower 2..10 grows
        mf = MomentFunctional.gaussian(64)
        assert generator_probe(mf, range(2, 11)).verdict == GROWTH
        with pytest.raises(ValueError, match="need an increasing list of at least three degrees"):
            generator_probe(mf, degrees)

    @pytest.mark.parametrize("degrees", [[-1, 2, 3], [-3, -2, -1]], ids=str)
    def test_refuses_negative_degrees(self, degrees):
        # a negative degree has no Gram, so it must not read as a singular one
        with pytest.raises(ValueError, match="none negative"):
            boundedness_probe(Functional("F0"), D2, MomentFunctional.gaussian(32), degrees)

    @pytest.mark.parametrize("degrees", [[1.5, 2, 3], [Fraction(1), 2, 3], [1, 2, 3.0]], ids=str)
    def test_refuses_non_integer_degrees(self, degrees):
        # 1.5 would read degree 1's rank under a report that names 1.5
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            boundedness_probe(Functional("F0"), D2, MomentFunctional.gaussian(8), degrees)

    @pytest.mark.parametrize("mname", ["gauss64", "mu3"])
    @pytest.mark.parametrize(
        "func, x",
        [
            (Functional("F0"), BimodElement(Generator.D2)),
            (Functional("F2"), BimodElement(Generator.D2)),
            (Functional.gauss_poly(Q), BimodElement(Generator.GAUSS)),
        ],
        ids=["F0", "F2", "gauss-poly"],
    )
    def test_zero_element_reads_zero_at_every_degree(self, func, x, mname):
        # every leading block of the pencil is exactly zero
        mf = file_measure("gauss64.json") if mname == "gauss64" else mu3()
        report = boundedness_probe(func, x, mf, range(2, 7))
        assert report.lambdas == (0.0,) * 5
        assert report.verdict == BOUNDED
        assert report.max_bits == 1

    def test_zero_measure_has_no_positive_part(self):
        mf = MomentFunctional.atomic([(0, 0)])
        with pytest.raises(SingularGramError):
            boundedness_probe(Functional("F0"), D2, mf, range(2, 5))

    @pytest.mark.parametrize("scale", [10**400, Fraction(1, 10**400)], ids=["1e400", "1e-400"])
    def test_moments_beyond_the_double_range(self, scale):
        # scaling every moment by c scales the Gram and the form alike, so
        # the pencil and its lambdas do not change
        plain = MomentFunctional.gaussian(32)
        scaled = MomentFunctional.from_moments([v * scale for v in plain.values])
        for func in (Functional("F1"), Functional("F2")):
            want = boundedness_probe(func, D2, plain, range(2, 9))
            got = boundedness_probe(func, D2, scaled, range(2, 9))
            assert got.verdict == want.verdict
            assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got.lambdas, want.lambdas))

    def test_lambda_beyond_the_double_range_refused(self):
        # one atom at 10^400: q acts as multiplication by 10^400
        mf = MomentFunctional.atomic([(10**400, 1)])
        with pytest.raises(DoubleRangeError):
            generator_probe(mf, range(0, 3))

    def test_lambda_below_the_double_range_refused(self):
        # q acts as multiplication by 10^-400 and 2*10^-400
        tiny = Fraction(1, 10**400)
        mf = MomentFunctional.atomic([(tiny, 1), (2 * tiny, 1)])
        with pytest.raises(DoubleRangeError, match="below"):
            generator_probe(mf, range(0, 3))

    def test_small_block_under_a_large_top_keeps_its_scale(self):
        # lambda_0 = m1/m0 is about 1e-300 while the top lambda is 1e100, so
        # one power of two for the whole pencil would flush block 0 to zero
        mf = MomentFunctional.atomic([(Fraction(1, 10**300), 1), (10**100, Fraction(1, 10**700))])
        report = generator_probe(mf, range(0, 3))
        m0, m1 = mf.moments_up_to(1)
        exact = m1.re / m0.re
        assert abs(report.lambdas[0] - float(exact)) <= 1e-12 * float(exact)
        assert all(abs(v - 1e100) <= 1e-12 * 1e100 for v in report.lambdas[1:])

    def test_zero_pencil_is_bounded(self):
        # one atom at 0: multiplication by q is the zero operator
        report = generator_probe(MomentFunctional.atomic([(0, 1)]), range(0, 3))
        assert report.lambdas == (0.0, 0.0, 0.0)
        assert report.verdict == BOUNDED

    def test_generator_probe_on_three_atoms(self):
        report = generator_probe(mu3(), range(2, 9))
        assert report.verdict == BOUNDED
        assert abs(report.lambdas[-1] - 1.0) < 1e-9

    def test_singular_gram_is_projected(self):
        # mu3 has rank 3 at every degree; the probe still runs to degree 8
        report = boundedness_probe(Functional("F0"), D2, mu3(), range(2, 9))
        assert report.verdict == BOUNDED
        assert all(abs(v - 1.0) < 1e-9 for v in report.lambdas)


def reference_form(func, x, mf, degree):
    """H[j][k] = F(q^j x q^k) entry by entry, through act and F, hermitised."""
    n = degree + 1
    rows = [
        [func.value(x.act(Poly.monomial(j), Poly.monomial(k)), mf) for k in range(n)]
        for j in range(n)
    ]
    half = Scalar(1) / Scalar(2)
    return [
        [(rows[j][k] + rows[k][j].conjugate()) * half for k in range(n)]
        for j in range(n)
    ]


def reference_lambda(func, x, mf, degree):
    """lambda_N from the degree-N Gram's own LDL alone, by dense exact inverses."""
    ldl = ldl_psd(hankel_gram(mf, degree))
    h = reference_form(func, x, mf, degree)
    piv = ldl.pivots
    linv = inverse(Matrix(pivot_lower_scalars(ldl)))
    z = linv @ Matrix([[h[a][b] for b in piv] for a in piv]) @ linv.adjoint()
    scale = np.array([1.0 / np.sqrt(float(d)) for d in ldl.diag])
    mat = np.array([[complex(v) for v in row] for row in z.rows], dtype=complex)
    mat = mat * np.outer(scale, scale)
    mat = 0.5 * (mat + mat.conj().T)
    return float(np.max(np.abs(np.linalg.eigvalsh(mat))))


def hermitian_d2(rng):
    y = rand_d2_element(rng, 2, 3)
    return y + y.involution()


def hermitian_gauss(rng):
    return BimodElement.gauss(real_poly(rng, 3))


MEASURES = {
    "mu3": mu3(),
    "atoms012": atoms012(),
    "lebesgue": MomentFunctional.lebesgue_unit(64),
    "gaussian": MomentFunctional.gaussian(64),
}


def quadratic_form_matrix(func, x, mf, degree):
    """H[j][k] = F(q^j * x * q^k) for j, k <= degree, hermitised exactly."""
    return [list(row) for row in form_numerators(func, x, mf, degree).rows]


class TestStructuredForm:
    @pytest.mark.parametrize("mname", sorted(MEASURES))
    @pytest.mark.parametrize("degree", [0, 1, 8])
    def test_matches_entrywise_construction(self, mname, degree):
        mf = MEASURES[mname]
        rng = random.Random(degree * 31 + len(mname))
        cases = [(Functional(k), hermitian_d2(rng)) for k in ("F0", "F1", "F2")]
        cases.append(
            (Functional.gauss_poly(nonzero_poly(rng, 2)), hermitian_gauss(rng))
        )
        if mf.is_atomic:
            values = [rand_fraction(rng) for _ in mf.atoms]
            cases.append((Functional.gauss_atoms(values), hermitian_gauss(rng)))
        for func, x in cases:
            assert quadratic_form_matrix(func, x, mf, degree) == reference_form(
                func, x, mf, degree
            ), func.describe()

    @pytest.mark.parametrize(
        "func, x, mf",
        [
            (Functional("F1"), D2, MomentFunctional.gaussian(64)),
            (Functional("F2"), hermitian_d2(random.Random(5)), MomentFunctional.lebesgue_unit(64)),
            (Functional("F1"), hermitian_d2(random.Random(6)), mu3()),
            (Functional.gauss_poly(Q), BimodElement.gauss(1), atoms012()),
            (Functional.gauss_atoms([1, -2, 3]), BimodElement.gauss(Q), atoms012()),
        ],
    )
    def test_tower_matches_per_degree_reduction(self, func, x, mf):
        degrees = range(1, 8)
        report = boundedness_probe(func, x, mf, degrees)
        for n, lam in zip(degrees, report.lambdas):
            ref = reference_lambda(func, x, mf, n)
            assert abs(lam - ref) <= 1e-12 * max(abs(ref), 1e-300), n

    @pytest.mark.parametrize(
        "func, x",
        [
            (Functional("F0"), None),
            (Functional("F1"), None),
            (Functional("F2"), None),
            (Functional.gauss_poly(Q), BimodElement.gauss(Q * Q)),
        ],
    )
    def test_reads_exactly_the_moments_of_the_entrywise_route(self, func, x):
        # q^3 g q + q g q^3 has the triple (2q^4, 4q^3, 6q^2), so every
        # variant needs moments beyond the 2N that the Gram reads
        if x is None:
            y = BimodElement(Generator.D2, [(Q**3, Q)])
            x = y + y.involution()
        top = 4
        values = MomentFunctional.gaussian(64).values

        def truncated(length):
            return MomentFunctional.from_moments(values[:length])

        length = 1
        while True:
            try:
                build_gns(truncated(length), top)
                reference_form(func, x, truncated(length), top)
                break
            except MomentOutOfRangeError:
                length += 1
        assert length > 2 * top + 1
        boundedness_probe(func, x, truncated(length), range(2, top + 1))
        with pytest.raises(MomentOutOfRangeError):
            boundedness_probe(func, x, truncated(length - 1), range(2, top + 1))


class TestFormIsTheHermitianPart:
    """The probe's form reads Re F(a^+ x a): F1 and F2 are not hermitian
    functionals, so lambda_N is max |Re F(a^+ x a)| / f(a^+ a) for them."""

    @pytest.mark.parametrize("kind", ["F1", "F2"])
    @pytest.mark.parametrize("mname", ["gauss64", "mu3"])
    def test_value_at_a_is_re_f(self, kind, mname):
        mf = file_measure("gauss64.json") if mname == "gauss64" else mu3()
        func = Functional(kind)
        rng = random.Random(29)
        degree = 4
        unsymmetric = 0
        for x in (D2, hermitian_d2(rng)):
            form = form_numerators(func, x, mf, degree).rows
            for _ in range(12):
                a = rand_poly(rng, degree)
                coeffs = [a.coefficient(k) for k in range(degree + 1)]
                quad = sum(
                    (
                        u.conjugate() * form[j][k] * v
                        for j, u in enumerate(coeffs)
                        for k, v in enumerate(coeffs)
                    ),
                    Scalar(0),
                )
                value = func.value(x.act(a.conjugate(), a), mf)
                assert quad == Scalar(value.re)
                unsymmetric += value.im != 0
        assert unsymmetric  # Re drops a nonzero imaginary part somewhere

    def test_f1_witness_on_gauss64(self):
        mf = file_measure("gauss64.json")
        q_d2 = BimodElement(Generator.D2, [(Q, P_ONE)])
        assert Functional("F1").value(q_d2, mf) == Scalar(0)
        assert Functional("F1").value(q_d2.involution(), mf) == Scalar(1)


def fresh_pencil(form, ldl):
    """The reduced pencil's entries against ``ldl`` and its own rows of L^-1,
    no cache involved, with its size."""
    rows = nullspace(ldl)[0]
    return _reduced_pencil(form, rows)[0], len(rows)


def _dm(rows) -> DomainMatrix:
    n = len(rows)
    return DomainMatrix(
        [
            [
                QQ_I(
                    sympy.Rational(c.re.numerator, c.re.denominator),
                    sympy.Rational(c.im.numerator, c.im.denominator),
                )
                for c in row
            ]
            for row in rows
        ],
        (n, n),
        QQ_I,
    )


def _adjoint(m: DomainMatrix) -> DomainMatrix:
    n = m.shape[0]
    return DomainMatrix(
        [[QQ_I(m[j, i].element.x, -m[j, i].element.y) for j in range(n)] for i in range(n)],
        (n, n),
        QQ_I,
    )


def congruence_cases():
    rng = random.Random(17)
    cases = []
    for mname, top in (("mu3", 7), ("atoms012", 6), ("lebesgue", 6), ("gaussian", 6)):
        mf = MEASURES[mname]
        funcs = [(Functional(kind), hermitian_d2(rng)) for kind in ("F0", "F1", "F2")]
        weight = nonzero_poly(rng, 2)
        funcs.append((Functional.gauss_poly(weight), hermitian_gauss(rng)))
        if mf.is_atomic:
            values = [rand_fraction(rng) for _ in mf.atoms]
            funcs.append((Functional.gauss_atoms(values), hermitian_gauss(rng)))
        cases += [
            pytest.param(mname, top, func, x, id=f"{mname}-{func.kind}") for func, x in funcs
        ]
    return cases


class TestPencilCongruence:
    """Z = L^-1 H_P L^-T, checked with sympy rather than the triangular solves."""

    @pytest.mark.parametrize("mname, top, func, x", congruence_cases())
    def test_congruence_restores_the_form(self, mname, top, func, x):
        mf = MEASURES[mname]
        ldl = ldl_psd(hankel_gram(mf, top))
        z = pencil_scalars(*fresh_pencil(form_numerators(func, x, mf, top), ldl))
        h = reference_form(func, x, mf, top)
        piv = ldl.pivots
        lower = _dm(pivot_lower_scalars(ldl))
        expected = _dm([[h[a][b] for b in piv] for a in piv])
        assert (lower * _dm(z) * _adjoint(lower)).to_dense() == expected.to_dense()
        # max_bits reads the reduced entries of the same Z, here from sympy
        linv = lower.inv()
        zs = (linv * expected * _adjoint(linv)).to_list()
        bits = max(
            (
                abs(int(part)).bit_length()
                for row in zs
                for v in row
                for q in (v.x, v.y)
                for part in (q.numerator, q.denominator)
            ),
            default=0,
        )
        report = boundedness_probe(func, x, mf, range(top - 2, top + 1))
        assert report.max_bits == bits
        assert report.pivots == piv

    def test_complex_factor(self):
        # a moment Gram is real, so a rational B gives the real Gram B^T B the
        # congruence needs; the form H = Y + Y^H is Gaussian-complex, which
        # exercises its imaginary part
        rng = random.Random(23)

        def scalar():
            return Scalar(rand_fraction(rng), rand_fraction(rng))

        complex_forms = 0
        for _ in range(20):
            n = rng.randint(1, 6)
            b = Matrix([[rand_fraction(rng) for _ in range(n)] for _ in range(rng.randint(1, n))])
            ldl = ldl_psd(b.adjoint() @ b)
            assert not any(im for row in ldl.lower for _, im, _ in row)
            y = Matrix([[scalar() for _ in range(n)] for _ in range(n)])
            h = y + y.adjoint()
            entries, size = fresh_pencil(h, ldl)
            complex_forms += any(im for _, im in entries.values())
            z = pencil_scalars(entries, size)
            piv = ldl.pivots
            lower = _dm(pivot_lower_scalars(ldl))
            expected = _dm([[h[a, c] for c in piv] for a in piv])
            assert (lower * _dm(z) * _adjoint(lower)).to_dense() == expected.to_dense()
        assert complex_forms

    @pytest.mark.parametrize("mname, top, func, x", congruence_cases())
    def test_leading_block_is_the_lower_degree_reduction(self, mname, top, func, x):
        mf = MEASURES[mname]
        ldl = ldl_psd(hankel_gram(mf, top))
        z = pencil_scalars(*fresh_pencil(form_numerators(func, x, mf, top), ldl))
        for n in range(top):
            small = ldl_psd(hankel_gram(mf, n))
            r = len(small.pivots)
            assert r == sum(p <= n for p in ldl.pivots)
            zn = pencil_scalars(*fresh_pencil(form_numerators(func, x, mf, n), small))
            assert zn == [row[:r] for row in z[:r]], n


class TestNestedFactor:
    @pytest.mark.parametrize("mf", [mu3(), MomentFunctional.gaussian(64)])
    def test_leading_block_factor_is_leading_part(self, mf):
        gram = hankel_gram(mf, 8)
        full = ldl_psd(gram)
        assert list(full.pivots) == sorted(full.pivots)
        for n in range(1, gram.nrows + 1):
            block = ldl_psd(Matrix([row[:n] for row in gram.rows[:n]]))
            r = sum(p < n for p in full.pivots)
            assert block.pivots == full.pivots[:r]
            assert block.diag == full.diag[:r]
            # every row of L below n, skipped or pivot, nests with its entries
            assert lower_scalars(block) == tuple(row[:r] for row in lower_scalars(full)[:n])
            assert block.lower == full.lower[:n]


# each call builds a new object, so no two tests share a cached realization
CACHE_MEASURES = {
    "gauss64": lambda: file_measure("gauss64.json"),
    "lebesgue01-64": lambda: file_measure("lebesgue01-64.json"),
    "mu3": mu3,
    "atoms012": atoms012,
    "cluster": cluster16,
}


def criterion_11_measures() -> dict:
    """Makers of the 50 random atomic measures of ``selftest.psd_gate``, in its draw order."""
    rng = random.Random(707)
    makers = {}
    for k in range(50):
        makers[f"random{k}"] = lambda atoms=rand_atoms(rng): MomentFunctional.atomic(atoms)
    return makers


# atomic measures, which have kernels, each with the degree M cached first
KERNEL_CASES = {
    "mu3": (mu3, 12),
    "atoms012": (atoms012, 12),
    "point-mass": (lambda: MomentFunctional.atomic([(Fraction(-3, 2), Fraction(5, 7))]), 12),
    "cluster": (cluster16, 18),
    "negative-fractional": (
        lambda: MomentFunctional.atomic(
            [
                (Fraction(-7, 3), Fraction(2, 9)),
                (Fraction(-1, 4), Fraction(5, 6)),
                (Fraction(-5, 6), Fraction(1, 10)),
                (Fraction(3, 5), Fraction(3, 4)),
                (Fraction(-9, 10), Fraction(7, 15)),
            ]
        ),
        12,
    ),
    **{name: (make, 12) for name, make in criterion_11_measures().items()},
}


def count_eliminations(monkeypatch) -> list:
    """The matrices of every ``ldl_psd`` call of ``build_gns`` from now on."""
    calls = []
    original = gns.ldl_psd

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(gns, "ldl_psd", counted)
    return calls


# every measure the realization laws run on, with the degree M cached first: the
# two continuous sample measures, a moment list that reaches M + 2, and the KERNEL_CASES
REALIZATIONS = {
    **{
        name: (lambda name=name: file_measure(f"{name}.json"), 12)
        for name in ("gauss64", "lebesgue01-64")
    },
    "gaussian32": (lambda: MomentFunctional.gaussian(32), 12),
    **KERNEL_CASES,
}
STAGES = ("_hankel", "ldl_psd", "nullspace")


class TestRealizationLaws:
    """The contract of ``build_gns``, the one route to the realization, on every measure.

    The route law: a build on a new measure is ``ldl_psd`` of the Hankel
    Gram and what ``nullspace`` reads off it.  The cache-and-work law: each
    build above the cached degree M runs each stage once, and every read at
    or below M is the fresh build, computed from nothing, and the cached
    object itself exactly at M.
    """

    @pytest.mark.parametrize("name", list(REALIZATIONS))
    def test_a_build_is_the_direct_route(self, name):
        make, top = REALIZATIONS[name]
        for n in range(top + 1):
            realization = build_gns(make(), n)
            assert realization.degree == n
            assert len(realization.pivots) + len(realization.kernel) == n + 1
            ldl = ldl_psd(hankel_gram(make(), n))
            fields = realization.pivots, realization.diag, realization.rows, realization.kernel
            assert fields == (ldl.pivots, ldl.diag, *nullspace(ldl)), n

    @pytest.mark.parametrize("name", list(REALIZATIONS))
    @pytest.mark.parametrize("half_first", [True, False], ids=["half-then-top", "top"])
    def test_reads_are_fresh_builds_and_cost_nothing(self, name, half_first, monkeypatch):
        make, top = REALIZATIONS[name]
        fresh = [build_gns(make(), n) for n in range(top + 1)]
        counts = Counter()
        for stage in STAGES:

            def counted(*args, _stage=stage, _original=getattr(gns, stage)):
                counts[_stage] += 1
                return _original(*args)

            monkeypatch.setattr(gns, stage, counted)
        mf = make()
        for m in (top // 2, top) if half_first else (top,):
            cached = build_gns(mf, m)
            assert counts == dict.fromkeys(STAGES, 1)
            counts.clear()
        if mf.is_atomic:
            # an atomic measure's cached power sums grow past the factored degree
            mf.moments_up_to(2 * top + 16)
        # ascending, so the leading parts grow in steps; then a low degree again
        for n in (*range(top + 1), 3):
            realization = build_gns(mf, n)
            assert realization == fresh[n] and hash(realization) == hash(fresh[n]), n
            assert (realization is cached) == (n == top), n
            assert hankel_gram(mf, n) == hankel_gram(make(), n), n
        if not name.startswith("random"):
            # a random measure may have zero weight, where the probes refuse
            boundedness_probe(Functional("F1"), D2, mf, range(2, top + 1))
            generator_probe(mf, range(2, top + 1))
        assert counts == {}
        build_gns(mf, top + 2)
        assert counts == dict.fromkeys(STAGES, 1)


class TestRealizationCache:
    """``build_gns`` keeps one realization per measure object, at the largest degree asked.

    Every read above that degree must fail where a new measure fails, no
    two objects share a realization, however equal, and no probe report
    depends on what the cache holds; ``TestRealizationLaws`` checks the
    reads at or below it.
    """

    @pytest.mark.parametrize("name", sorted(CACHE_MEASURES))
    def test_probe_reports_do_not_depend_on_the_cache(self, name):
        degrees = range(2, 9)
        x = hermitian_d2(random.Random(41))

        def reports(warm):
            mf = CACHE_MEASURES[name]()
            warm(mf)
            return (
                boundedness_probe(Functional("F1"), x, mf, degrees),
                boundedness_probe(Functional("F2"), x, mf, degrees),
                generator_probe(mf, degrees),
            )

        cold = reports(lambda mf: None)
        warmers = (
            lambda mf: build_gns(mf, 8),
            lambda mf: build_gns(mf, 14),
            lambda mf: generator_probe(mf, range(4, 13)),
            lambda mf: generator_probe(mf, range(0, 4)),
            lambda mf: build_gns(mf, 5).rows[:2],
        )
        for warm in warmers:
            assert reports(warm) == cold

    # moments PSD to degree 4 that fail at degree 5 in two ways (a non-real
    # moment cannot be built: the constructor refuses it)
    GAUSS = MomentFunctional.gaussian(9).values
    FAILING = {
        "negative-pivot": ([*GAUSS, 0, 0], NotPositiveError),
        "short": (GAUSS, MomentOutOfRangeError),
    }

    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_a_failed_gate_is_never_cached(self, case, monkeypatch):
        values, error = self.FAILING[case]
        with pytest.raises(error) as fresh:
            build_gns(MomentFunctional.from_moments(values), 5)
        message = str(fresh.value)
        reads = [build_gns(MomentFunctional.from_moments(values), n) for n in range(5)]
        mf = MomentFunctional.from_moments(values)
        build_gns(mf, 4)
        calls = count_eliminations(monkeypatch)
        for _ in range(2):
            for request in (
                lambda: build_gns(mf, 5),
                lambda: generator_probe(mf, range(3, 6)),
                lambda: boundedness_probe(Functional("F0"), D2, mf, range(2, 6)),
            ):
                with pytest.raises(error) as got:
                    request()
                assert str(got.value) == message
            # degrees <= 4 are still served from the cache, with no elimination
            before = len(calls)
            assert [build_gns(mf, n) for n in range(5)] == reads
            generator_probe(mf, range(1, 4))
            assert len(calls) == before

    @pytest.mark.parametrize("name", sorted(CACHE_MEASURES))
    def test_equal_measures_never_share_a_factor(self, name, monkeypatch):
        a, b = CACHE_MEASURES[name](), CACHE_MEASURES[name]()
        assert a == b and hash(a) == hash(b)
        calls = count_eliminations(monkeypatch)
        build_gns(a, 8)
        build_gns(b, 8)
        assert len(calls) == 2
        # criterion 10 builds both realizations from their own factors
        check_intertwiner(a, b, 6)
        assert len(calls) == 2
        assert build_gns(a, 6).rows is not build_gns(b, 6).rows

    @pytest.mark.parametrize("name", sorted(CACHE_MEASURES))
    def test_value_semantics_ignore_the_factor(self, name):
        mf = CACHE_MEASURES[name]()
        before = (hash(mf), repr(mf))
        build_gns(mf, 10).rows[:3]
        assert (hash(mf), repr(mf)) == before
        assert mf == CACHE_MEASURES[name]()
        with pytest.raises(AttributeError):
            mf._gns = None

    def test_two_threads_probing_one_measure(self):
        # the gate at the top realizes the measure, so both probes read one cached realization
        degrees = range(2, 15)
        func = Functional("F1")
        want = boundedness_probe(func, D2, file_measure("lebesgue01-64.json"), degrees)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                mf = file_measure("lebesgue01-64.json")
                build_gns(mf, degrees[-1])
                start = threading.Barrier(2, timeout=60)
                got = []

                def probe():
                    start.wait()
                    got.append(boundedness_probe(func, D2, mf, degrees))

                threads = [threading.Thread(target=probe) for _ in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == [want, want]
                assert boundedness_probe(func, D2, mf, degrees) == want
        finally:
            sys.setswitchinterval(interval)


class TestScaledRealization:
    """``build_gns`` factors S G S at the moments' natural scale and maps the factor back.

    The fields map back real, and the elimination reads the integer power
    sums; ``TestRealizationLaws`` checks them against the direct route.
    """

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_the_realization_is_real(self, case):
        # each row of U is P_a: a real canonical Poly, unit lower
        # triangular, so monic at its own pivot
        make, top = KERNEL_CASES[case]
        realization = build_gns(make(), top)
        assert not any(im for row in ldl_psd(hankel_gram(make(), top)).lower for _, im, _ in row)
        for p, row in zip(realization.pivots, realization.rows):
            assert_canonical_poly(row)
            assert row.degree == p and row.re[p] == row.den
        assert not any(any(v.im) for v in realization.rows + realization.kernel)

    def test_the_cluster_gate_eliminates_the_integer_power_sums(self, monkeypatch):
        calls = count_eliminations(monkeypatch)
        build_gns(cluster16(), 14)
        [m] = calls
        # m_k = N_k / (W X^k) with W = 2^16 and X = lcm(1..16)
        w, x = 2**16, 720720
        sums = [sum(Fraction(1, 2**n * n**k) for n in range(1, 17)) * w * x**k for k in range(29)]
        assert all(s.denominator == 1 for s in sums)
        assert m.den == w
        assert m.re == tuple(tuple(sums[j + k] for k in range(15)) for j in range(15))
        assert not any(map(any, m.im))


# the KERNEL_CASES and the two continuous sample measures, each at its top degree
ORTHOGONAL_CASES = {
    **KERNEL_CASES,
    **{
        name: (lambda name=name: file_measure(f"{name}.json"), 30)
        for name in ("gauss64", "lebesgue01-64")
    },
}


class TestRowsAreOrthogonalPolynomials:
    """Row a of U = L^-1 is the monic orthogonal polynomial P_a of the measure.

    P_a is real, monic at its pivot p_a and zero at every skipped index,
    and f(P_a P_b) = D_a delta_ab, read off the moments by
    ``MomentFunctional.pairing`` and not off the factor.
    """

    @pytest.mark.parametrize("case", list(ORTHOGONAL_CASES))
    def test_rows_are_orthogonal_with_norms_d(self, case):
        make, top = ORTHOGONAL_CASES[case]
        mf = make()
        realization = build_gns(mf, top)
        pivots, rows = realization.pivots, realization.rows
        skipped = set(range(top + 1)) - set(pivots)
        for p, row in zip(pivots, rows):
            assert row.degree == p and row.re[p] == row.den and not any(row.im)
            assert not any(row.re[s] for s in skipped if s < p), p
        for a, (pa, d) in enumerate(zip(rows, realization.diag)):
            for b, pb in enumerate(rows):
                assert mf.pairing(pa, pb) == (d if a == b else 0), (a, b)


class TestReadsIgnoreTheCacheReach:
    """A moment read gives the same Python value on a fresh measure and on
    one whose cache earlier reads took far beyond it."""

    MEASURES = {
        "cluster": cluster16,
        "negative-fractional": KERNEL_CASES["negative-fractional"][0],
        "mu3": mu3,
    }

    @pytest.mark.parametrize("name", list(MEASURES))
    def test_a_warm_read_equals_a_fresh_one(self, name):
        make = self.MEASURES[name]
        warm = make()
        build_gns(warm, 30)
        warm.apply(Poly.monomial(60))
        p = Poly([1, Fraction(1, 2), 3])
        reads = {
            "shifted_values": lambda mf: mf.shifted_values(p, 5),
            "apply": lambda mf: mf.apply(p * p.derivative()),
            "moments_up_to": lambda mf: mf.moments_up_to(7),
            "hankel_gram": lambda mf: hankel_gram(mf, 4),
        }
        for what, read in reads.items():
            assert read(warm) == read(make()), what
        # the cached entries themselves never change with the reach
        nums, den, x = make().numerators(8)
        assert warm.numerators(8)[1:] == (den, x)
        assert warm.numerators(8)[0][:9] == nums[:9]


def hermite_top_zero(n: int) -> float:
    """The largest zero of He_n, by Newton's method from the right.

    He_n and He_n' = n He_(n-1) are evaluated by the recurrence
    He_(k+1) = q He_k - k He_(k-1).  All zeros are real and, by Gershgorin
    on the Jacobi matrix, below 2 sqrt(n), so the iterates fall
    monotonically onto the largest.
    """

    def pair(q):
        prev, cur = 1.0, q
        for k in range(1, n):
            prev, cur = cur, q * cur - k * prev
        return cur, prev

    q = 2 * n**0.5
    while True:
        value, below = pair(q)
        nxt = q - value / (n * below)
        if nxt >= q:  # rounding noise: the fall has stopped
            return q
        q = nxt


def hermite_rows(top: int) -> list[list[int]]:
    """The coefficients of He_0..He_top from q^0 up, by He_(k+1) = q He_k - k He_(k-1)."""
    he = [[1], [0, 1]]
    for k in range(1, top):
        up = [0, *he[k]]
        he.append([a - k * b for a, b in zip(up, he[k - 1] + [0, 0])])
    return he[: top + 1]


def legendre_rows(top: int) -> list[list[Fraction]]:
    """The coefficients of the monic shifted Legendre polynomials on [0, 1], k <= top.

    By the explicit sum sum_j (-1)^(k+j) C(k, j) C(k+j, j) q^j / C(2k, k).
    """
    return [
        [
            Fraction((-1) ** (k + j) * comb(k, j) * comb(k + j, j), comb(2 * k, k))
            for j in range(k + 1)
        ]
        for k in range(top + 1)
    ]


def row_fractions(rows) -> list[list[Fraction]]:
    """Rows of U = L^-1 as ``nullspace`` gives them, the ``Poly`` P_a, as Fractions."""
    return [[Fraction(v, p.den) for v in p.re] for p in rows]


# the two continuous sample measures: their U rows and pivots D_k in closed form
CLASSICAL = {
    "gauss64": (
        lambda top: [[Fraction(c) for c in row] for row in hermite_rows(top)],
        lambda k: Fraction(factorial(k)),
    ),
    "lebesgue01-64": (
        legendre_rows,
        lambda k: Fraction(factorial(k) ** 4, factorial(2 * k) ** 2 * (2 * k + 1)),
    ),
}


class TestClassicalFactors:
    """The Gram factors of gauss64 and lebesgue01-64 at N = 30, against closed forms.

    Row k of U = L^-1 is the monic Hermite He_k on gauss64 and the monic
    shifted Legendre polynomial on lebesgue01-64; D_k is k! and
    (k!)^4 / (((2k)!)^2 (2k + 1)).  The families are built by their own
    recurrence or sum, never from an LDL.
    """

    TOP = 30

    def test_factor_is_shifted_legendre(self):
        # gauss64's is TestHermiteOracle.test_factor_is_hermite
        rows, pivot = CLASSICAL["lebesgue01-64"]
        ldl = ldl_psd(hankel_gram(file_measure("lebesgue01-64.json"), self.TOP))
        assert ldl.pivots == tuple(range(self.TOP + 1))
        assert ldl.diag == tuple(pivot(k) for k in range(self.TOP + 1))
        assert row_fractions(nullspace(ldl)[0]) == rows(self.TOP)

    @pytest.mark.parametrize("name", sorted(CLASSICAL))
    def test_cached_reads_below_the_top(self, name, monkeypatch):
        rows, pivot = CLASSICAL[name]
        mf = file_measure(f"{name}.json")
        build_gns(mf, self.TOP)
        calls = count_eliminations(monkeypatch)
        for n in (10, 20, self.TOP):
            factor = build_gns(mf, n)
            assert factor.pivots == tuple(range(n + 1))
            assert factor.diag == tuple(pivot(k) for k in range(n + 1))
            assert row_fractions(factor.rows[: n + 1]) == rows(n)
        assert calls == []

    @pytest.mark.parametrize("name", sorted(CLASSICAL))
    def test_empty_kernel(self, name):
        realization = build_gns(file_measure(f"{name}.json"), self.TOP)
        assert realization.kernel == ()
        assert len(realization.pivots) == self.TOP + 1


class TestHermiteOracle:
    """F1 on d^2 over the Gaussian moments, against the monic Hermite polynomials.

    U = L^-1 has the coefficients of He_k as its rows and D = diag(k!), and
    theta(d^2) under F1 is d/dq with He_k' = k He_(k-1), so the pencil is
    k!/2 at (k-1, k) and its mirror.  D^-1/2 Z D^-1/2 is half the Jacobi
    matrix of He with off-diagonal sqrt(k), and lambda_N is half the
    largest zero of He_(N+1).
    """

    TOP = 30
    GAUSS64 = file_measure("gauss64.json")

    def test_factor_is_hermite(self):
        ldl = ldl_psd(hankel_gram(self.GAUSS64, self.TOP))
        assert ldl.pivots == tuple(range(self.TOP + 1))
        assert ldl.diag == tuple(factorial(k) for k in range(self.TOP + 1))
        he = hermite_rows(self.TOP)
        assert nullspace(ldl) == (tuple(Poly.from_numerators(h, [0] * len(h), 1) for h in he), ())

    def test_integer_pencil_is_the_derivative(self):
        mf = self.GAUSS64
        ldl = ldl_psd(hankel_gram(mf, self.TOP))
        z = pencil_scalars(*fresh_pencil(form_numerators(Functional("F1"), D2, mf, self.TOP), ldl))
        for a in range(self.TOP + 1):
            for c in range(self.TOP + 1):
                k = max(a, c)
                want = Fraction(factorial(k), 2) if abs(a - c) == 1 else 0
                assert z[a][c] == want, (a, c)

    def test_lambda_is_half_the_top_hermite_zero(self):
        degrees = range(2, self.TOP + 1)
        report = boundedness_probe(Functional("F1"), D2, self.GAUSS64, degrees)
        for n, lam in zip(degrees, report.lambdas):
            want = hermite_top_zero(n + 1) / 2
            assert abs(lam - want) <= 1e-12 * want, n

    def test_generator_lambda_is_the_top_hermite_zero(self):
        # q acts as the Jacobi matrix J itself, whose zeros are symmetric
        degrees = range(2, self.TOP + 1)
        report = generator_probe(self.GAUSS64, degrees)
        for n, lam in zip(degrees, report.lambdas):
            want = hermite_top_zero(n + 1)
            assert abs(lam - want) <= 1e-12 * want, n


class TestPlateauRule:
    def test_flat_tail(self):
        assert plateau_verdict([5.0, 1.0, 1.0, 1.0], 1e-3) == BOUNDED

    def test_growing_tail(self):
        assert plateau_verdict([1.0, 1.01, 1.02, 1.03], 1e-3) == GROWTH

    def test_zero_tail(self):
        assert plateau_verdict([0.0, 0.0, 0.0], 1e-3) == BOUNDED

    def test_zero_tolerance(self):
        assert plateau_verdict([1.0, 2.0, 2.0, 2.0], 0.0) == BOUNDED
        assert plateau_verdict([1.0, 2.0, 2.0, 2.5], 0.0) == GROWTH


class TestNumericalRadiusBound:
    def test_nilpotent_shift(self):
        # ||T|| = 1 and w(T) = 1/2: the lemma holds at 4, and the exact bounds
        # refuse the constant 1.9, below the sharp 2
        report = numerical_radius_norm_check(np.array([[0, 1], [0, 0]]))
        assert report.certified and report.slack < 0
        assert Fraction(1, 4) - Fraction(1, 10**12) < report.radius_sq <= Fraction(1, 4)
        assert 1 <= report.norm_sq <= 1 + Fraction(1, 10**8)
        assert report.norm_sq > Fraction(19, 10) ** 2 * report.radius_sq

    def test_upper_bound_is_exact_both_ways(self):
        t = Matrix([[0, Scalar(1, 1)], [0, 0]])  # ||T||^2 = 2
        assert probes._norm_sq_at_most(t, Fraction(2))
        assert not probes._norm_sq_at_most(t, Fraction(199, 100))

    def test_hermitian_case(self):
        report = numerical_radius_norm_check(np.diag([1.0, -1.0]))
        assert report.radius_sq == 1
        assert report.certified and report.slack < 0

    def test_zero_matrix(self):
        report = numerical_radius_norm_check(np.zeros((3, 3)))
        assert report.radius_sq == report.norm_sq == 0
        assert report.certified and report.slack == 0

    def test_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            t = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
            report = numerical_radius_norm_check(t)
            assert report.certified and report.slack < 0

    def test_magnitude_beyond_the_squared_double_range(self):
        # ||T||^2 = 1e400 is not a double; the float steps run on T / 2^e
        report = numerical_radius_norm_check(np.array([[1e200, 0], [0, 1.0]]))
        assert report.certified and report.slack < 0
        assert report.radius_sq == Fraction(1e200) ** 2
        assert report.radius_sq <= report.norm_sq <= report.radius_sq * (1 + Fraction(1, 10**8))
        assert abs(report.slack + 3e200) <= 1e-8 * 3e200
        # here the slack itself, about -4e308, is beyond the double range
        report = numerical_radius_norm_check(np.array([[1e308, 1e308j], [1e308, -1e308]]))
        assert report.certified and report.slack == -inf

    def test_magnitude_below_the_squared_double_range(self):
        # ||T||^2 = 1e-400 underflows as a double, which left c = 0 unproved
        report = numerical_radius_norm_check(1e-200 * np.eye(2))
        assert report.certified and report.slack < 0
        assert report.radius_sq == Fraction(1e-200) ** 2
        assert report.radius_sq <= report.norm_sq <= report.radius_sq * (1 + Fraction(1, 10**8))
        assert abs(report.slack + 3e-200) <= 1e-8 * 3e-200

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            numerical_radius_norm_check(np.array([[bad, 0], [0, 1]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            numerical_radius_norm_check(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            numerical_radius_norm_check(np.zeros((0, 0)))

    def test_trials_report_the_largest_margin(self, monkeypatch):
        reports = []
        original = probes.numerical_radius_norm_check

        def recorded(*args, **kwargs):
            reports.append(original(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(probes, "numerical_radius_norm_check", recorded)
        failures, worst = norm_bound_trials(50, 0, 8)
        assert failures == 0 and len(reports) == 50
        # every trial is certified, so the largest sqrt(c) - 4 sqrt(lb) is negative
        assert worst == max(r.slack for r in reports)
        assert worst < 0
