"""Sesquilinear forms over a represented polynomial algebra."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from starbimod import exactla, forms, selftest
from starbimod.algebra import I, P_ONE, Q, Poly, Scalar
from starbimod.errors import DimensionMismatchError, NotPositiveError
from starbimod.exactla import Matrix, inverse, ldl_psd, poly_at
from starbimod.forms import ActionTable, FormMatrix, form_from_operator
from starbimod.sampling import (
    rand_dense_table,
    rand_diagonal_table,
    rand_form,
    rand_hermitian,
    rand_poly,
    rand_scalar,
)

from draws import nonzero_poly, real_scalar


def operator_adjoint(t: Matrix, table: ActionTable) -> Matrix:
    """G^-1 t^H G; defined only for invertible Gram matrices."""
    return inverse(table.gram) @ t.adjoint() @ table.gram


def diag_table():
    return ActionTable(Matrix.diagonal([0, 1]), Matrix.diagonal([1] * 2))


def shift_form():
    return FormMatrix(Matrix([[0, 1], [0, 0]]))


def singular_table(rng: random.Random, dim: int) -> ActionTable:
    """A dense Gram B^H B of rank dim - 1, and gen = S G, which is not hermitian."""
    rows = [
        [rand_scalar(rng) if j < i else Scalar(rng.randint(1, 3) if j == i else 0) for j in range(dim)]
        for i in range(dim - 1)
    ]
    b = Matrix(rows + [[0] * dim])
    gram = b.adjoint() @ b
    assert len(ldl_psd(gram).pivots) == dim - 1
    return ActionTable(rand_hermitian(rng, dim) @ gram, gram)


# the three table draws, under the ids the suite reports them by
TABLE_DRAWS = pytest.mark.parametrize(
    "make",
    [rand_dense_table, rand_diagonal_table, singular_table],
    ids=["random_table", "diagonal_table", "singular_table"],
)


def scalar_product(a, b) -> list:
    """The product of two matrices given as Scalar rows, entry by entry, with no ``Matrix``."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Scalar(0)) for col in cols] for row in a]


def scalar_rows(m: Matrix) -> list:
    return [list(r) for r in m.rows]


def scalar_adjoint(a) -> list:
    return [[x.conjugate() for x in col] for col in zip(*a)]


class TestActionTable:
    def test_rejects_non_hermitian_gram(self):
        with pytest.raises(NotPositiveError, match="matrix is not hermitian"):
            ActionTable(Matrix.diagonal([1] * 2), Matrix([[0, 1], [0, 0]]))

    def test_rejects_indefinite_gram(self):
        with pytest.raises(NotPositiveError):
            ActionTable(Matrix.diagonal([1, 1]), Matrix.diagonal([1, -1]))

    def test_rejects_non_symmetric_generator(self):
        with pytest.raises(ValueError):
            ActionTable(Matrix([[0, 1], [0, 0]]), Matrix.diagonal([1] * 2))

    def test_singular_gram_allowed(self):
        table = ActionTable(Matrix.diagonal([2, 3]), Matrix.diagonal([1, 0]))
        assert table.dim == 2

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ActionTable(Matrix.diagonal([1] * 2), Matrix.diagonal([1] * 3))

    def test_operator_evaluates_polynomials(self):
        table = diag_table()
        assert table.operator(Q * Q + 1) == Matrix.diagonal([1, 2])

    def test_gram_adjoint_built_once_per_table(self, monkeypatch):
        grams = []
        adjoint = Matrix.adjoint

        def counting(m):
            grams.append(m)
            return adjoint(m)

        monkeypatch.setattr(Matrix, "adjoint", counting)
        rng = random.Random(73)
        for make in (rand_dense_table, rand_diagonal_table, singular_table):
            for dim in (2, 3):
                table = make(rng, dim)
                grams.clear()
                ActionTable(table.gen, table.gram)
                assert sum(m is table.gram for m in grams) == 1


class TestSelfAdjointnessCheck:
    """A table is accepted exactly when G R = R^H G, computed entry by entry."""

    @staticmethod
    def oracle(gen: Matrix, gram: Matrix) -> bool:
        r, g = scalar_rows(gen), scalar_rows(gram)
        return scalar_product(g, r) == scalar_product(scalar_adjoint(r), g)

    @staticmethod
    def perturbation(rng: random.Random, dim: int) -> Matrix:
        """A random nonzero matrix: one entry, a real or imaginary shift, or a dense draw."""
        kind = rng.choice(["entry", "real shift", "imaginary shift", "dense"])
        if kind == "entry":
            rows = [[0] * dim for _ in range(dim)]
            rows[rng.randrange(dim)][rng.randrange(dim)] = rand_scalar(rng) or 1
            return Matrix(rows)
        if kind == "real shift":
            return Matrix.diagonal([rng.choice([-2, -1, 1, 2])] * dim)
        if kind == "imaginary shift":
            return Matrix.diagonal([I] * dim)
        return Matrix([[rand_scalar(rng) or 1 for _ in range(dim)] for _ in range(dim)])

    @TABLE_DRAWS
    def test_accepts_exactly_when_the_gram_form_is_symmetric(self, make):
        rng = random.Random(89)
        verdicts = Counter()
        for _ in range(40):
            dim = rng.randint(1 if make is not singular_table else 2, 3)
            table = make(rng, dim)
            for gen in (table.gen, table.gen + self.perturbation(rng, dim)):
                expected = self.oracle(gen, table.gram)
                try:
                    ActionTable(gen, table.gram)
                except ValueError as err:
                    assert str(err) == "generator is not hermitian for the Gram form"
                    accepted = False
                else:
                    accepted = True
                assert accepted == expected
                verdicts[accepted] += 1
        # both verdicts occur, so the test can tell the check from a constant
        assert verdicts[True] > 40 and verdicts[False] > 0

    def test_takes_one_product(self, monkeypatch):
        rng = random.Random(97)
        products = []
        matmul = Matrix.__matmul__

        def counting(m, other):
            products.append(m)
            return matmul(m, other)

        monkeypatch.setattr(Matrix, "__matmul__", counting)
        for make in (rand_dense_table, rand_diagonal_table, singular_table):
            table = make(rng, 3)
            products.clear()
            ActionTable(table.gen, table.gram)
            assert products == [table.gram]


class TestPolyAtAgainstPowers:
    """poly_at against sum c_k R^k, the powers built entry by entry with Scalars."""

    @staticmethod
    def oracle(p: Poly, r: Matrix) -> Matrix:
        n = r.nrows
        rows = scalar_rows(r)
        total = [[Scalar(0)] * n for _ in range(n)]
        power = [[Scalar(int(i == j)) for j in range(n)] for i in range(n)]
        for c in p.coeffs:
            total = [[t + c * x for t, x in zip(tr, pr)] for tr, pr in zip(total, power)]
            power = scalar_product(power, rows)
        return Matrix(total)

    @staticmethod
    def polys(rng: random.Random) -> list:
        out = [Poly(), Poly([Scalar(0, 3)]), Poly([1, 0, Scalar(0, -2)])]
        for degree in range(5):
            imaginary = Scalar(0, Fraction(rng.randint(1, 5), rng.randint(1, 4)))
            for leading in (rand_scalar(rng) or 1, imaginary):
                out.append(Poly([rand_scalar(rng) for _ in range(degree)] + [leading]))
        return out

    @pytest.mark.parametrize("dim", [0, 1, 2, 3])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_against_sum_of_powers(self, dim, complex_entries):
        rng = random.Random(101 + dim)
        draw = rand_scalar if complex_entries else real_scalar
        for _ in range(4):
            r = Matrix([[draw(rng) for _ in range(dim)] for _ in range(dim)])
            for p in self.polys(rng):
                assert poly_at(p, r) == self.oracle(p, r)

    def test_degree_d_takes_d_minus_one_products(self, monkeypatch):
        rng = random.Random(103)
        calls = []
        products = exactla._products

        def counting(*args):
            calls.append(args)
            return products(*args)

        monkeypatch.setattr(exactla, "_products", counting)
        r = Matrix([[rand_scalar(rng) for _ in range(3)] for _ in range(3)])
        for degree in range(6):
            p = Poly([rand_scalar(rng) for _ in range(degree)] + [Scalar(1, 1)])
            calls.clear()
            poly_at(p, r)
            assert len(calls) == max(degree - 1, 0)


class TestActionMemo:
    """A table evaluates each polynomial once; a unit side takes no product."""

    @staticmethod
    def polys(rng: random.Random) -> list:
        iq = Poly.monomial(1, I)
        minus_iq = Poly.monomial(1, -I)
        # i*q and -i*q, and i*q + 1 and -i*q + 1, share their real numerators
        assert iq.re == minus_iq.re and (iq + 1).re == (minus_iq + 1).re
        return [
            P_ONE,
            1,
            Poly.constant(2),
            Poly.constant(I),
            Fraction(-1, 3),
            Poly(),
            Q,
            iq,
            minus_iq,
            iq + 1,
            minus_iq + 1,
            rand_poly(rng, 2),
            rand_poly(rng, 2),
        ]

    @staticmethod
    def oracle(x: FormMatrix, a, b, gen: Matrix) -> FormMatrix:
        """a * x * b from poly_at alone: R(a^+)^H M R(b)."""
        a, b = Poly.coerce(a), Poly.coerce(b)
        return FormMatrix(poly_at(a.conjugate(), gen).adjoint() @ x.mat @ poly_at(b, gen))

    @TABLE_DRAWS
    @pytest.mark.parametrize("dim", [2, 3])
    def test_act_against_poly_at(self, make, dim):
        rng = random.Random(79 + dim)
        for _ in range(3):
            table = make(rng, dim)
            x = rand_form(rng, dim)
            polys = self.polys(rng)
            cases = [(a, b, self.oracle(x, a, b, table.gen)) for a in polys for b in polys]
            for _ in range(3):  # first calls, then calls the table has seen
                rng.shuffle(cases)
                for a, b, expected in cases:
                    assert x.act(a, b, table) == expected
            for a in polys:
                assert table.operator(a) == poly_at(Poly.coerce(a), table.gen)

    def test_criterion_8_evaluates_each_polynomial_once_per_table(self, monkeypatch):
        calls = Counter()
        gens = []
        evaluate = forms.poly_at

        def counting(p, m):
            gens.append(m)  # keeps m alive, so its id names one table
            calls[id(m), p.re, p.im, p.den] += 1
            return evaluate(p, m)

        monkeypatch.setattr(forms, "poly_at", counting)
        passed, _ = selftest.bimodule_axiom_suites()
        assert passed
        assert len({id(m) for m in gens}) == 1000
        assert max(calls.values()) == 1

    def test_unit_sides_take_no_evaluation_or_product(self, monkeypatch):
        rng = random.Random(83)
        table = rand_dense_table(rng, 3)
        x = rand_form(rng, 3)
        products = []
        matmul = Matrix.__matmul__

        def counting(m, other):
            products.append(m)
            return matmul(m, other)

        monkeypatch.setattr(forms, "poly_at", None)  # any evaluation fails
        monkeypatch.setattr(Matrix, "__matmul__", counting)
        monkeypatch.setattr(exactla, "_products", None)  # any product fails
        assert x.act(P_ONE, 1, table) == x
        assert x.act(Poly.constant(Fraction(2, 2)), Poly([Scalar(1, 0)]), table) == x
        assert products == []

    @TABLE_DRAWS
    def test_an_act_normalises_once(self, make, monkeypatch):
        rng = random.Random(107)
        stores = []
        store = exactla._store

        def counting(m, *args):
            stores.append(m)
            return store(m, *args)

        monkeypatch.setattr(exactla, "_store", counting)
        for _ in range(5):
            table = make(rng, 3)
            x = rand_form(rng, 3)
            a, b = nonzero_poly(rng, 3), nonzero_poly(rng, 3)
            for left, right in ((a, b), (a, P_ONE), (P_ONE, b), (P_ONE, P_ONE)):
                table.left_factor(left), table.operator(right)  # the table's evaluations, once
                stores.clear()
                out = x.act(left, right, table)
                units = left.is_one() + right.is_one()
                if units == 2:
                    assert stores == [] and out.mat is x.mat
                else:
                    assert stores == [out.mat]


class TestLeftFactorCoerces:
    """left_factor takes what Poly.coerce takes, as operator does."""

    @pytest.mark.parametrize("c", [3, 1, 0, -2, Fraction(-1, 3), Scalar(2, -5), Scalar(0, 1)])
    def test_scalars_act_as_constants(self, c):
        table = rand_dense_table(random.Random(109), 3)
        p = Poly.constant(c)
        # R(c^+)^H = (conj(c) I)^H = c I
        assert table.left_factor(c) == Matrix.diagonal([c] * 3)
        assert table.left_factor(c) is table.left_factor(p)
        assert table.operator(c) == table.operator(p)

    @pytest.mark.parametrize("bad", ["q", 1.5, None, [1, 2]])
    def test_foreign_types_raise_type_error(self, bad):
        table = diag_table()
        with pytest.raises(TypeError):
            table.left_factor(bad)
        with pytest.raises(TypeError):
            table.operator(bad)


class TestFormAction:
    def test_left_action_example(self):
        out = shift_form().act(Q, P_ONE, diag_table())
        assert out == FormMatrix(Matrix.zeros(2, 2))

    def test_right_action_example(self):
        out = shift_form().act(P_ONE, Q, diag_table())
        assert out == shift_form()

    def test_unit(self):
        assert shift_form().act(P_ONE, P_ONE, diag_table()) == shift_form()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            FormMatrix(Matrix.diagonal([1] * 3)).act(Q, Q, diag_table())


class TestInvolution:
    def test_conjugate_transpose(self):
        assert shift_form().involution() == FormMatrix(Matrix([[0, 0], [1, 0]]))

    def test_hermitian_fixed(self):
        h = FormMatrix(Matrix([[1, I], [-I, 2]]))
        assert h.involution() == h

    def test_scalar_form(self):
        assert FormMatrix(Matrix([[I]])).involution() == FormMatrix(Matrix([[-I]]))


class TestFromOperator:
    def test_identity_gram(self):
        t = Matrix([[1, 2], [3, 4]])
        table = diag_table()
        assert form_from_operator(t, table) == FormMatrix(t)

    def test_weighted_gram(self):
        table = ActionTable(Matrix.diagonal([0, 0]), Matrix.diagonal([3, 2]))
        out = form_from_operator(Matrix([[0, 1], [0, 0]]), table)
        assert out == FormMatrix(Matrix([[0, 3], [0, 0]]))

    def test_identity_operator(self):
        table = ActionTable(Matrix.diagonal([1, 2]), Matrix.diagonal([3, 2]))
        assert form_from_operator(Matrix.diagonal([1] * 2), table) == FormMatrix(
            table.gram
        )

    def test_adjoint_compatibility_when_invertible(self):
        rng = random.Random(61)
        for _ in range(50):
            table = rand_dense_table(rng, 3)
            t = Matrix([[rand_scalar(rng) for _ in range(3)] for _ in range(3)])
            lhs = form_from_operator(t, table).involution()
            rhs = form_from_operator(operator_adjoint(t, table), table)
            assert lhs == rhs


class TestBimoduleAxioms:
    def test_form_values_match_matrix(self):
        table = diag_table()
        x = shift_form()
        phi = (Scalar(1), Scalar(2))
        psi = (Scalar(0, 1), Scalar(3))
        # psi^H M phi with M = [[0,1],[0,0]]
        assert x.value(phi, psi) == Scalar(0, -1) * Scalar(2)
