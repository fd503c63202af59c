"""Exact *-bimodule algebra over C[q] with GNS-style representation checks."""

from .algebra import Poly, Scalar, format_scalar, parse_scalar
from .bimodule import BimodElement, Generator
from .errors import (
    DimensionMismatchError,
    DoubleRangeError,
    MomentMismatchError,
    MomentOutOfRangeError,
    NotHermitianError,
    NotPositiveError,
    ParseError,
    SingularGramError,
    StarBimodError,
    TagMismatchError,
    UnsupportedVariantError,
    VariantMismatchError,
)
from .exactla import Matrix
from .forms import ActionTable, FormMatrix, form_from_operator
from .gns import (
    Functional,
    GnsRealization,
    build_gns,
    check_cauchy_schwarz,
    check_identity,
    check_intertwiner,
)
from .moments import MomentFunctional
from .parser import parse_expression
from .probes import (
    ProbeReport,
    boundedness_probe,
    generator_probe,
    numerical_radius_norm_check,
)
from .weyl import WeylElement

__all__ = [
    "ActionTable",
    "BimodElement",
    "DimensionMismatchError",
    "DoubleRangeError",
    "FormMatrix",
    "Functional",
    "Generator",
    "GnsRealization",
    "Matrix",
    "MomentFunctional",
    "MomentMismatchError",
    "MomentOutOfRangeError",
    "NotHermitianError",
    "NotPositiveError",
    "ParseError",
    "Poly",
    "ProbeReport",
    "Scalar",
    "SingularGramError",
    "StarBimodError",
    "TagMismatchError",
    "UnsupportedVariantError",
    "VariantMismatchError",
    "WeylElement",
    "boundedness_probe",
    "build_gns",
    "check_cauchy_schwarz",
    "check_identity",
    "check_intertwiner",
    "form_from_operator",
    "format_scalar",
    "generator_probe",
    "numerical_radius_norm_check",
    "parse_expression",
    "parse_scalar",
]

__version__ = "0.1.0"
