"""Pinned exact outputs: a change to the arithmetic must not move a single digit.

Each test hashes the reprs of exact results over seeded inputs and
compares the sha256 with the value recorded before the arithmetic under
it was last rewritten.  A mismatch means some exact value changed; find
it by printing the reprs at both commits.

The ``sampling`` pins hash the exact fields of each generator's first
draws, so a seeded case of the selftest, the CLI or the benchmark cannot
move without notice.

A probe report's lambda_N is a float from ``numpy.linalg.eigvalsh``, whose
last bits depend on the BLAS kernel the host selects.  So the probe pins
hash each report's exact fields (degrees, pivots, ranks, ``max_bits`` and
the verdict) and compare each lambda_N with its value in
``probe_lambdas.json`` to within ``LAMBDA_ULPS`` units in the last place.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy
import pytest

import starbimod
from starbimod.algebra import Poly, Scalar
from starbimod.bimodule import BimodElement, Generator
from starbimod.exactla import Matrix
from starbimod.forms import ActionTable, FormMatrix
from starbimod.gns import Functional, check_cauchy_schwarz, check_identity
from starbimod.moments import MomentFunctional
from starbimod.probes import boundedness_probe, form_numerators, generator_probe
from starbimod.sampling import (
    atoms012,
    cluster16,
    mu3,
    rand_atoms,
    rand_case,
    rand_d2_element,
    rand_dense_table,
    rand_diagonal_table,
    rand_form,
    rand_fraction,
    rand_gauss_element,
    rand_hermitian,
    rand_poly,
    rand_scalar,
    rand_weyl,
)
from starbimod.weyl import WeylElement

ROOT = Path(__file__).resolve().parents[1]

GNS_SHA256 = "edc6447578d840811b0beb8a223b516da893c0c9ee0c00116a3694c065e939cf"
FORM_SHA256 = "bd76741257260c4c5b92d615dc1eaf21a0a138f01ecc51ed712a2a2214c2c41c"
PROBE_SHA256 = "de7c46c7cdf6397cdcc4d07c842639124238bfc96e95f0b2fcd20be70e6ec8b7"
TOWER_SHA256 = "de541b9477376bf6414a82d10c8da4d2fc1dc1f6aa46ebfb831a5e4533463b96"
LAMBDAS = ROOT / "tests" / "probe_lambdas.json"
# Under every OpenBLAS kernel this AVX-512 host can force (SkylakeX, the
# default; Haswell; Sandybridge; Nehalem; Katmai) the exact fields stay and
# at most 64 of the 335 pinned lambdas move, by at most 8 ulps (9.9e-16
# relative).  64 ulps leaves room for other kernels and is still some 70
# times below a 1e-12 relative move.
LAMBDA_ULPS = 64


def _file_measure(name: str) -> MomentFunctional:
    return MomentFunctional.from_json(json.loads((ROOT / "measures" / name).read_text()))


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
    for mname, mf in (("mu3", mu3()), ("atoms012", atoms012()), ("cluster", cluster16())):
        for n in range(15):
            func = Functional.gauss_atoms([rand_fraction(rng) for _ in mf.atoms])
            x = rand_gauss_element(rng, 4)
            yield f"{mname} {n} {form_numerators(func, x, mf, n)!r}"


def _probe_reports():
    """(label, ProbeReport) pairs: the probe benchmark's catalogue, a complex d^2 element
    and a gauss-atoms probe on mu3."""
    gauss64 = _file_measure("gauss64.json")
    measures = {
        "gauss64": gauss64,
        "lebesgue01-64": _file_measure("lebesgue01-64.json"),
        "mu3": mu3(),
        "cluster": cluster16(),
    }
    d2 = BimodElement.d_squared()
    unit = BimodElement.gauss(1)
    short, long = range(2, 11), range(2, 15)
    for degrees in (short, long):
        for mname in ("gauss64", "lebesgue01-64"):
            for kind in ("F0", "F1", "F2"):
                report = boundedness_probe(Functional(kind), d2, measures[mname], degrees)
                yield f"{kind} d2 {mname} 2..{degrees.stop - 1}", report
    # the criterion-9 probes, theta and rho of each, on the short tower
    criterion9 = (
        ("flat-on-atoms", Functional.gauss_poly(Poly([1])), "mu3"),
        ("flat-on-gaussian", Functional.gauss_poly(Poly([1])), "gauss64"),
        ("steep-on-cluster", Functional.gauss_atoms(range(1, 17)), "cluster"),
        ("linear-on-gaussian", Functional.gauss_poly(Poly([0, 1])), "gauss64"),
    )
    for name, func, mname in criterion9:
        yield f"{name} theta", boundedness_probe(func, unit, measures[mname], short)
        yield f"{name} rho", generator_probe(measures[mname], short)
    # hermitian d^2 elements with Gaussian-complex coefficients; F2 makes H complex
    rng = random.Random(14)
    for mname, mf in measures.items():
        for kind in ("F0", "F1", "F2"):
            y = rand_d2_element(rng, 3, 3)
            report = boundedness_probe(Functional(kind), y + y.involution(), mf, range(2, 9))
            yield f"{kind} complex-d2 {mname}", report
    func = Functional.gauss_atoms([rand_fraction(rng) for _ in range(3)])
    x = BimodElement.gauss(Poly([rand_fraction(rng) for _ in range(4)]))
    yield "gauss-atoms mu3", boundedness_probe(func, x, mu3(), range(0, 7))


def _tower_reports():
    """(label, ProbeReport) pairs of two cold high-degree towers on the 16-atom cluster,
    a new measure object each: the generator over 2..24 and steep-on-cluster
    (gauss-atoms) over 2..18."""
    yield "rho cluster", generator_probe(cluster16(), range(2, 25))
    steep = Functional.gauss_atoms(range(1, 17))
    report = boundedness_probe(steep, BimodElement.gauss(1), cluster16(), range(2, 19))
    yield "steep-on-cluster theta", report


def _exact_lines(reports):
    for label, r in reports:
        yield f"{label} {r.degrees} {r.pivots} {r.ranks} {r.max_bits} {r.verdict}"


def _lambdas_off_their_pins(reports, pins) -> list[str]:
    """Each report whose lambdas are not its pinned ones to within
    ``LAMBDA_ULPS`` ulps of the pin, as ``label: computed != pinned``."""
    off = []
    for label, report in reports:
        pinned = [float.fromhex(h) for h in pins[label]]
        if len(pinned) != len(report.lambdas) or any(
            abs(value - pin) > LAMBDA_ULPS * math.ulp(pin)
            for value, pin in zip(report.lambdas, pinned)
        ):
            off.append(f"{label}: {report.lambdas} != {pinned}")
    return off


def test_gns_reports_pinned():
    assert _digest(_gns_lines()) == GNS_SHA256


def test_gauss_atoms_forms_pinned():
    assert _digest(_form_lines()) == FORM_SHA256


def _assert_pinned(name: str, reports, exact_sha256: str) -> None:
    reports = list(reports)
    pins = json.loads(LAMBDAS.read_text(encoding="utf-8"))[name]
    assert [label for label, _ in reports] == list(pins)
    assert _digest(_exact_lines(reports)) == exact_sha256
    assert _lambdas_off_their_pins(reports, pins) == []


def test_probe_reports_pinned():
    _assert_pinned("probe", _probe_reports(), PROBE_SHA256)


def test_cold_atomic_towers_pinned():
    _assert_pinned("tower", _tower_reports(), TOWER_SHA256)


def test_the_lambda_pins_see_a_relative_move_of_1e_12():
    label, report = next(_probe_reports())
    pins = {label: [v.hex() for v in report.lambdas]}
    assert _lambdas_off_their_pins([(label, report)], pins) == []
    pins = {label: [(v * (1 + 1e-12)).hex() for v in report.lambdas]}
    assert len(_lambdas_off_their_pins([(label, report)], pins)) == 1


def _haswell_selectable() -> bool:
    """Whether ``OPENBLAS_CORETYPE=Haswell`` selects a kernel this host runs:
    numpy's BLAS is OpenBLAS built with DYNAMIC_ARCH, and the CPU has AVX2."""
    config = numpy.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return (
        "openblas" in blas["name"]
        and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
        and bool({"AVX2", "X86_V3"} & {*simd["baseline"], *simd["found"]})
    )


@pytest.mark.skipif(
    not _haswell_selectable(),
    reason="numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH on an AVX2 CPU, "
    "so OPENBLAS_CORETYPE=Haswell selects no kernel here",
)
def test_the_probe_pins_hold_under_the_haswell_kernel():
    """The two probe pins pass with OpenBLAS forced to its AVX2 kernels, as on
    most AMD and pre-2017 Intel hosts."""
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Haswell",
        "OPENBLAS_VERBOSE": "2",
        "PYTHONPATH": os.pathsep.join(
            [str(Path(starbimod.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        ),
    }
    pins = (test_probe_reports_pinned, test_cold_atomic_towers_pinned)
    tests = [f"{__file__}::{t.__name__}" for t in pins]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", *tests],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert "Core: Haswell" in run.stdout + run.stderr
    assert run.returncode == 0, run.stdout


# name: (one draw from rng, sha256 of the exact fields of the first 12 draws
# from random.Random(1)).  The digests of the draws that criteria 8 and 11 and
# the 16-atom cluster make were taken from the selftest and test code that
# these functions replaced, so they also pin that the move kept each stream.
STREAMS = {
    "rand_fraction": (rand_fraction, "b3d35227f94bd836966069d9ee1d8adc922527f622b24d57af03e70b76a0941e"),
    "rand_scalar": (rand_scalar, "be4099d7360ed507e1852dfce0b68a328d124783e23f0e0895c2fb57d770571c"),
    "rand_poly": (lambda rng: rand_poly(rng, 6), "0c3e4cc7b6a0fdba9c1144cf24e9c6fd0cce89082941f5c5ee001acdefaf175d"),
    "rand_weyl": (rand_weyl, "78162ae4b4288796ae10f790345cb9102e91f828e16ec66aba4a64e88765dc67"),
    "rand_d2_element": (rand_d2_element, "4c3866f8f45789f3d6876fc3c4fcde5ce56b2afbed6a3811b524e08a5c277901"),
    "rand_gauss_element": (rand_gauss_element, "57485a6ebc96f35df338a37922d7babdc31e18500de30cef8fcbdd1052d9e318"),
    "rand_case-d2": (
        lambda rng: rand_case(rng, Generator.D2, 6),
        "7d7e0c1378fba789d563ae980f5cb7afc7c08ec8ca09eaec56d93d5b7346ee95",
    ),
    "rand_case-gauss": (
        lambda rng: rand_case(rng, Generator.GAUSS, 6),
        "fb5292e7a9906427e286fe71cb5cb342ac21792372c5c542c326f01eec8acc1f",
    ),
    "rand_hermitian": (lambda rng: rand_hermitian(rng, 3), "bf73f0dbb81c900fe040df76eaaad1dfdd6d62248b462012273f71e1df5c90eb"),
    "rand_dense_table": (lambda rng: rand_dense_table(rng, 3), "6ce2ad557275af5745ad92e632e87316ba4e065cea419ceacbbb199f96121008"),
    "rand_diagonal_table": (
        lambda rng: rand_diagonal_table(rng, 3),
        "e63c8732eb628899b1563465d6e283b8e9267a4ef994d772cc24d8c06dc4162e",
    ),
    "rand_form": (lambda rng: rand_form(rng, 3), "66e5210cd402f00cb302c6ec8fd902d397759c0fbd38c1ed6e6be85030e3b5a9"),
    "rand_atoms": (rand_atoms, "fa4a031b3a75dc2f2cf7dd8a58952efabd91379737d74e1b344c35f8ecf6d301"),
    "mu3": (lambda rng: mu3(), "ff7ccf610f7be827c5d18dfb780ee0764d132a81a270a673473e2fb4f3bac5fa"),
    "atoms012": (lambda rng: atoms012(), "ad974a9e24692275e6805d262d313879aada1ba65c0d352606501b2d647f94d9"),
    "cluster16": (lambda rng: cluster16(), "77a5b75c781add3186ed12573486f6d3ad373c9a3e22866f7af813eaba1c9f7f"),
}


def _exact_fields(obj):
    """The numerators and denominators that make up a draw, as nested tuples."""
    if isinstance(obj, Fraction):
        return obj.numerator, obj.denominator
    if isinstance(obj, Scalar):
        return obj.re_num, obj.im_num, obj.den
    if isinstance(obj, Poly):
        return obj.re, obj.im, obj.den
    if isinstance(obj, WeylElement):
        return sorted(obj.nums.items()), obj.den
    if isinstance(obj, BimodElement):
        return obj.tag.value, _exact_fields(obj.terms)
    if isinstance(obj, Matrix):
        return obj.re, obj.im, obj.den, obj.ncols
    if isinstance(obj, ActionTable):
        return _exact_fields(obj.gen), _exact_fields(obj.gram)
    if isinstance(obj, FormMatrix):
        return _exact_fields(obj.mat)
    if isinstance(obj, MomentFunctional):
        return _exact_fields(obj.atoms)
    assert isinstance(obj, (tuple, list)), type(obj)
    return tuple(_exact_fields(o) for o in obj)


@pytest.mark.parametrize("name", list(STREAMS))
def test_sampling_streams_pinned(name):
    draw, sha256 = STREAMS[name]
    rng = random.Random(1)
    assert _digest([repr(_exact_fields([draw(rng) for _ in range(12)]))]) == sha256
