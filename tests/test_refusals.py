"""The library's refusals of malformed calls, each driven once: its exact type and message.

A foreign operand of an arithmetic operator is refused by Python's
``TypeError``, after each operand has returned ``NotImplemented``, and
``==`` with one is False.
"""

import operator
from fractions import Fraction

import pytest

from starbimod.algebra import Q, Scalar, parse_real, parse_scalar
from starbimod.bimodule import BimodElement
from starbimod.errors import (
    DimensionMismatchError,
    ParseError,
    TagMismatchError,
    UnsupportedVariantError,
)
from starbimod.exactla import Matrix, inverse, ldl_psd, poly_at
from starbimod.forms import ActionTable, FormMatrix, form_from_operator
from starbimod.gns import Functional, check_intertwiner
from starbimod.moments import MomentFunctional
from starbimod.probes import plateau_verdict
from starbimod.sampling import mu3
from starbimod.weyl import WeylElement
from starbimod.selftest import run_check

ATOMS = Functional.gauss_atoms([1, 2, 3])
GAUSS = BimodElement.gauss(1)
D2 = BimodElement.d_squared()
WIDE = Matrix([[1, 2]])
TABLE = ActionTable(Matrix.diagonal([1, 2]), Matrix.diagonal([1, 1]))
FORM = FormMatrix(Matrix.diagonal([1, 1, 1]))

REFUSALS = {
    # Functional.__init__
    "params-on-d2": (lambda: Functional("F0", weight=Q), ValueError, "F0 takes no parameters"),
    "no-weight": (
        lambda: Functional("gauss-poly"),
        ValueError,
        "gauss-poly needs a polynomial weight",
    ),
    "no-atom-values": (
        lambda: Functional("gauss-atoms"),
        ValueError,
        "gauss-atoms needs per-atom values",
    ),
    "unknown-kind": (lambda: Functional("F3"), ValueError, "unknown functional kind 'F3'"),
    # the variants without a polynomial or an atom route
    "coefficient-poly": (
        lambda: ATOMS.coefficient_poly(GAUSS),
        UnsupportedVariantError,
        "gauss-atoms has no polynomial partner; use atom coordinates",
    ),
    "theta-terms": (
        lambda: ATOMS.theta_terms(GAUSS),
        UnsupportedVariantError,
        "gauss-atoms acts on atom coordinates, not polynomials",
    ),
    "atom-images": (
        lambda: Functional("F0").atom_images(BimodElement.d_squared(), mu3()),
        UnsupportedVariantError,
        "atom coordinates are for gauss-atoms",
    ),
    # shapes
    "ragged": (lambda: Matrix([[1, 2], [3]]), DimensionMismatchError, "ragged rows"),
    "sum": (lambda: Matrix([[1]]) + WIDE, DimensionMismatchError, "shape mismatch"),
    "product": (lambda: WIDE @ WIDE, DimensionMismatchError, "cannot multiply 1x2 by 1x2"),
    "poly-at": (
        lambda: poly_at(Q, WIDE),
        DimensionMismatchError,
        "polynomial of a non-square matrix",
    ),
    "inverse": (lambda: inverse(WIDE), DimensionMismatchError, "inverse of a non-square matrix"),
    "ldl": (lambda: ldl_psd(WIDE), DimensionMismatchError, "LDL of a non-square matrix"),
    "table-shape": (
        lambda: ActionTable(WIDE, Matrix([[1]])),
        DimensionMismatchError,
        "action data must be square",
    ),
    "table-sizes": (
        lambda: ActionTable(Matrix.diagonal([1, 1]), Matrix.diagonal([1, 1, 1])),
        DimensionMismatchError,
        "generator and Gram sizes differ",
    ),
    "form-shape": (lambda: FormMatrix(WIDE), DimensionMismatchError, "form matrix must be square"),
    "form-act": (
        lambda: FORM.act(Q, Q, TABLE),
        DimensionMismatchError,
        "form and action dimensions differ",
    ),
    "form-operator": (
        lambda: form_from_operator(FORM.mat, TABLE),
        DimensionMismatchError,
        "operator and action dimensions differ",
    ),
    "form-value": (
        lambda: FORM.value([1], [1, 0, 0]),
        DimensionMismatchError,
        "vectors of lengths 1 and 3 for a form of dimension 3",
    ),
    "singular-inverse": (
        lambda: inverse(Matrix([[1, 2], [2, 4]])),
        ZeroDivisionError,
        "singular matrix",
    ),
    "negative-derivative": (lambda: Q.derivative(-1), ValueError, "negative derivative order"),
    "coerce-text": (lambda: Scalar.coerce("1"), TypeError, "cannot coerce str to Scalar"),
    # bimodule elements over two generators
    "sum-across-tags": (
        lambda: D2 + GAUSS,
        TagMismatchError,
        "cannot add elements over different generators",
    ),
    "equivalent-across-tags": (
        lambda: D2.equivalent(GAUSS),
        TagMismatchError,
        "cannot compare elements over different generators",
    ),
    "triple-of-gauss": (
        lambda: GAUSS.triple(),
        TagMismatchError,
        "coefficient triple needs a d2 element",
    ),
    "equivalent-to-a-non-element": (
        lambda: D2.equivalent(1),
        TypeError,
        "can only compare BimodElement values",
    ),
    # MomentFunctional: its sources, and the atoms checked pair by pair in input order
    "no-measure-source": (
        lambda: MomentFunctional(),
        ValueError,
        "exactly one of atoms/values must be given",
    ),
    "two-measure-sources": (
        lambda: MomentFunctional(atoms=[(0, 1)], values=[1]),
        ValueError,
        "exactly one of atoms/values must be given",
    ),
    "measure-type": (
        lambda: MomentFunctional.from_json({"type": "x"}),
        ValueError,
        """a measure has "type" "atomic" or "moments", got 'x'""",
    ),
    "moment-values-not-a-list": (
        lambda: MomentFunctional.from_json({"type": "moments", "values": "1"}),
        ValueError,
        '"values" must be a list of scalar literals',
    ),
    "negative-weight": (
        lambda: MomentFunctional.atomic([(0, 1), (1, Fraction(-1, 2))]),
        ValueError,
        "negative atom weight -1/2",
    ),
    "point-before-weight": (
        lambda: MomentFunctional.atomic([(0.5, -1)]),
        TypeError,
        "cannot build a rational from float",
    ),
    "weight-type": (
        lambda: MomentFunctional.atomic([(0, "1")]),
        TypeError,
        "cannot build a rational from str",
    ),
    "atoms-in-order": (
        lambda: MomentFunctional.atomic([(0, -2), (0.5, 1)]),
        ValueError,
        "negative atom weight -2",
    ),
    # a negative degree: a moment list once returned its table minus its tail
    "moments-to-a-negative-degree": (
        lambda: MomentFunctional.gaussian(6).moments_up_to(-2),
        ValueError,
        "negative degree -2",
    ),
    "atom-moments-to-a-negative-degree": (
        lambda: mu3().moments_up_to(-1),
        ValueError,
        "negative degree -1",
    ),
    # refused at its own degree, before the differing moments are read
    "intertwiner-negative-degree": (
        lambda: check_intertwiner(mu3(), MomentFunctional.gaussian(6), -1),
        ValueError,
        "negative degree -1",
    ),
    "criterion-zero": (lambda: run_check(0), IndexError, "criteria are counted from 1, got 0"),
    # the plateau rule's tolerance: a negative or NaN one reads every tail as
    # growth, an infinite one every tail as bounded
    "tolerance-negative": (
        lambda: plateau_verdict([1.0, 1.0, 1.0], -1.0),
        ValueError,
        "tolerance must be finite and >= 0, got -1.0",
    ),
    "tolerance-nan": (
        lambda: plateau_verdict([1.0, 1.0, 1.0], float("nan")),
        ValueError,
        "tolerance must be finite and >= 0, got nan",
    ),
    "tolerance-inf": (
        lambda: plateau_verdict([1.0, 1.0, 1.0], float("inf")),
        ValueError,
        "tolerance must be finite and >= 0, got inf",
    ),
    "tolerance-minus-inf": (
        lambda: plateau_verdict([1.0, 1.0, 1.0], float("-inf")),
        ValueError,
        "tolerance must be finite and >= 0, got -inf",
    ),
    # the scalar literal grammar
    "literal-not-text": (
        lambda: parse_scalar(5),
        ParseError,
        "expected a scalar literal string, got 5 (offset 0)",
    ),
    "literal-digits": (
        lambda: parse_scalar("1/" + "3" * 1001 + "i"),
        ParseError,
        "number of 1001 digits exceeds the limit of 1000 (offset 0)",
    ),
    "literal-no-imaginary-digits": (
        lambda: parse_scalar("1+i"),
        ParseError,
        "bad scalar literal: '1+i' (offset 0)",
    ),
    # the grammar has no whitespace inside a literal: "2 i" is refused, and so is a newline
    "literal-newline": (
        lambda: parse_scalar("2\ni"),
        ParseError,
        "bad scalar literal: '2\\ni' (offset 0)",
    ),
    "literal-newline-in-sum": (
        lambda: parse_scalar("1+2\ni"),
        ParseError,
        "bad scalar literal: '1+2\\ni' (offset 0)",
    ),
    "literal-zero-denominator": (
        lambda: parse_scalar("2+1/00i"),
        ParseError,
        "bad scalar literal: '2+1/00i' (offset 0)",
    ),
    "literal-not-real": (
        lambda: parse_real("1+2i"),
        ParseError,
        "expected a real literal: '1+2i' (offset 0)",
    ),
    "real-literal-zero-denominator": (
        lambda: parse_real(" 1/0 "),
        ParseError,
        "bad scalar literal: ' 1/0 ' (offset 0)",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


# (value, the operators that refuse a foreign operand on either side)
OPERATORS = {
    "scalar": (Scalar(1, 2), ("sub", "truediv")),
    "poly": (Q, ("sub", "mul")),
    "element": (D2, ("add", "sub", "mul")),
    "matrix": (WIDE, ("matmul",)),
    "weyl": (WeylElement([((1, 1), 1)]), ("mul",)),
}


@pytest.mark.parametrize("name", list(OPERATORS))
def test_a_foreign_operand_is_refused(name):
    value, ops = OPERATORS[name]
    foreign = object()
    for op in ops:
        with pytest.raises(TypeError):
            getattr(operator, op)(value, foreign)
        with pytest.raises(TypeError):
            getattr(operator, op)(foreign, value)


@pytest.mark.parametrize(
    "value", [WIDE, WeylElement([((1, 1), 1)]), mu3()], ids=lambda v: type(v).__name__
)
def test_equality_with_a_foreign_value_is_false(value):
    assert value != object()
    assert not value == "1"
