"""The library's refusals of malformed calls, each driven once: its exact type and message."""

import pytest

from starbimod.algebra import Q
from starbimod.bimodule import BimodElement
from starbimod.errors import DimensionMismatchError, UnsupportedVariantError
from starbimod.exactla import Matrix, inverse, ldl_psd, poly_at
from starbimod.forms import ActionTable, FormMatrix, form_from_operator
from starbimod.gns import Functional
from starbimod.sampling import mu3

ATOMS = Functional.gauss_atoms([1, 2, 3])
GAUSS = BimodElement.gauss(1)
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
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
