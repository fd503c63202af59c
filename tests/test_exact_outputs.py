"""Pinned exact outputs: a change to the arithmetic must not move a single digit.

Each test hashes the reprs of exact results over seeded inputs and
compares the sha256 with the value recorded before the arithmetic under
it was last rewritten.  A mismatch means some exact value changed; find
it by printing the reprs at both commits.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from starbimod.algebra import Poly
from starbimod.bimodule import BimodElement
from starbimod.gns import Functional, check_cauchy_schwarz, check_identity
from starbimod.moments import MomentFunctional
from starbimod.probes import boundedness_probe, form_numerators, generator_probe
from starbimod.sampling import (
    atoms012,
    mu3,
    rand_d2_element,
    rand_fraction,
    rand_gauss_element,
    rand_poly,
)

ROOT = Path(__file__).resolve().parents[1]

GNS_SHA256 = "edc6447578d840811b0beb8a223b516da893c0c9ee0c00116a3694c065e939cf"
FORM_SHA256 = "bd76741257260c4c5b92d615dc1eaf21a0a138f01ecc51ed712a2a2214c2c41c"
PROBE_SHA256 = "03f4cbb79fb408d7e0e4490ffe0c02ce5c5ab31bbcb1717dd045572ed5383b93"


def _file_measure(name: str) -> MomentFunctional:
    return MomentFunctional.from_json(json.loads((ROOT / "measures" / name).read_text()))


def _cluster() -> MomentFunctional:
    """Sixteen atoms x = 1/n with weights 1/2^n, n = 1..16."""
    return MomentFunctional.atomic([(Fraction(1, n), Fraction(1, 2**n)) for n in range(1, 17)])


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _gns_lines():
    """check_identity (lhs, rhs) and check_cauchy_schwarz (lhs_squared, bound)
    over 40 seeded cases per (variant, measure), gauss-atoms on the atomic ones."""
    measures = {
        "mu3": mu3(),
        "atoms012": atoms012(),
        "lebesgue01-64": _file_measure("lebesgue01-64.json"),
        "gauss64": _file_measure("gauss64.json"),
    }
    weights = [Poly([1]), Poly([0, 1]), Poly([-1, 0, 1])]
    rng = random.Random(14)
    for kind in ("F0", "F1", "F2", "gauss-poly", "gauss-atoms"):
        for mname, mf in measures.items():
            if kind == "gauss-atoms" and not mf.is_atomic:
                continue
            for _ in range(40):
                if kind == "gauss-poly":
                    func = Functional.gauss_poly(rng.choice(weights))
                elif kind == "gauss-atoms":
                    func = Functional.gauss_atoms([rand_fraction(rng) for _ in mf.atoms])
                else:
                    func = Functional(kind)
                if func.kind in ("F0", "F1", "F2"):
                    x = rand_d2_element(rng, 4, 4)
                else:
                    x = rand_gauss_element(rng, 4)
                a = rand_poly(rng, 6)
                b = rand_poly(rng, 6)
                ident = check_identity(func, a, x, b, mf)
                cs = check_cauchy_schwarz(func, a, x, mf)
                yield f"{kind} {mname} {ident.lhs!r} {ident.rhs!r}"
                yield f"{kind} {mname} {cs.lhs_squared!r} {cs.bound!r}"


def _form_lines():
    """form_numerators of gauss-atoms for N = 0..14 on three atomic measures."""
    rng = random.Random(14)
    for mname, mf in (("mu3", mu3()), ("atoms012", atoms012()), ("cluster", _cluster())):
        for n in range(15):
            func = Functional.gauss_atoms([rand_fraction(rng) for _ in mf.atoms])
            x = rand_gauss_element(rng, 4)
            yield f"{mname} {n} {form_numerators(func, x, mf, n)!r}"


def _probe_lines():
    """ProbeReport reprs: the probe benchmark's catalogue, a complex d^2 element
    and a gauss-atoms probe on mu3."""
    gauss64 = _file_measure("gauss64.json")
    measures = {
        "gauss64": gauss64,
        "lebesgue01-64": _file_measure("lebesgue01-64.json"),
        "mu3": mu3(),
        "cluster": _cluster(),
    }
    d2 = BimodElement.d_squared()
    unit = BimodElement.gauss(1)
    short, long = range(2, 11), range(2, 15)
    for degrees in (short, long):
        for mname in ("gauss64", "lebesgue01-64"):
            for kind in ("F0", "F1", "F2"):
                report = boundedness_probe(Functional(kind), d2, measures[mname], degrees)
                yield f"{kind} d2 {mname} {report!r}"
    # the criterion-9 probes, theta and rho of each, on the short tower
    criterion9 = (
        ("flat-on-atoms", Functional.gauss_poly(Poly([1])), "mu3"),
        ("flat-on-gaussian", Functional.gauss_poly(Poly([1])), "gauss64"),
        ("steep-on-cluster", Functional.gauss_atoms(range(1, 17)), "cluster"),
        ("linear-on-gaussian", Functional.gauss_poly(Poly([0, 1])), "gauss64"),
    )
    for name, func, mname in criterion9:
        yield f"{name} theta {boundedness_probe(func, unit, measures[mname], short)!r}"
        yield f"{name} rho {generator_probe(measures[mname], short)!r}"
    # hermitian d^2 elements with Gaussian-complex coefficients; F2 makes H complex
    rng = random.Random(14)
    for mname, mf in measures.items():
        for kind in ("F0", "F1", "F2"):
            y = rand_d2_element(rng, 3, 3)
            report = boundedness_probe(Functional(kind), y + y.involution(), mf, range(2, 9))
            yield f"{kind} complex-d2 {mname} {report!r}"
    func = Functional.gauss_atoms([rand_fraction(rng) for _ in range(3)])
    x = BimodElement.gauss(Poly([rand_fraction(rng) for _ in range(4)]))
    yield f"gauss-atoms mu3 {boundedness_probe(func, x, mu3(), range(0, 7))!r}"


def test_gns_reports_pinned():
    assert _digest(_gns_lines()) == GNS_SHA256


def test_gauss_atoms_forms_pinned():
    assert _digest(_form_lines()) == FORM_SHA256


def test_probe_reports_pinned():
    assert _digest(_probe_lines()) == PROBE_SHA256
