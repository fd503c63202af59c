"""The text views of the value types, pinned exactly: ``repr``, and the
``str`` and truth value of a Weyl element."""

from fractions import Fraction

import pytest

from starbimod.algebra import P_ONE, Poly, Q, Scalar
from starbimod.bimodule import BimodElement, Generator
from starbimod.exactla import Matrix
from starbimod.forms import FormMatrix
from starbimod.gns import Functional
from starbimod.weyl import WeylElement

WEYL = WeylElement([((0, 1), Scalar(0, -1)), ((2, 0), 3)])

REPRS = {
    "poly": (
        Poly([1, Scalar(0, Fraction(1, 2))]),
        "Poly([Scalar(Fraction(1, 1), Fraction(0, 1)), Scalar(Fraction(0, 1), Fraction(1, 2))])",
    ),
    "d2-element": (
        BimodElement(Generator.D2, [(Q, P_ONE)]),
        "BimodElement(<Generator.D2: 'd2'>, [(Poly([Scalar(Fraction(0, 1), Fraction(0, 1)), "
        "Scalar(Fraction(1, 1), Fraction(0, 1))]), "
        "Poly([Scalar(Fraction(1, 1), Fraction(0, 1))]))])",
    ),
    "zero-gauss-element": (BimodElement.gauss(0), "BimodElement(<Generator.GAUSS: 'gauss'>, [])"),
    "form": (
        FormMatrix(Matrix([[1, Scalar(0, 1)], [Fraction(-1, 2), 0]])),
        "FormMatrix(Matrix([['1', '1i'], ['-1/2', '0']]))",
    ),
    "weyl": (
        WEYL,
        "WeylElement({(0, 1): Scalar(Fraction(0, 1), Fraction(-1, 1)), "
        "(2, 0): Scalar(Fraction(3, 1), Fraction(0, 1))})",
    ),
    "zero-weyl": (WeylElement(), "WeylElement({})"),
    "gauss-atoms": (
        Functional.gauss_atoms([1, Fraction(-1, 2), 0]),
        "Functional('gauss-atoms:1,-1/2,0')",
    ),
    "gauss-poly": (Functional.gauss_poly(Q * Q - 1), "Functional('gauss-poly:q^2 - 1')"),
    "f1": (Functional("F1"), "Functional('F1')"),
}


@pytest.mark.parametrize("name", list(REPRS))
def test_repr(name):
    value, text = REPRS[name]
    assert repr(value) == text


def test_a_weyl_element_prints_as_its_expression_and_is_true_when_nonzero():
    assert str(WEYL) == "3*q^2 - i*d"
    assert str(WeylElement()) == "0"
    assert bool(WEYL) and not WeylElement()
