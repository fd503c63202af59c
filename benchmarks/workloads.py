"""The four benchmark workloads: seeded inputs, the timed case, and its check.

Every size, cap, measure and tower comes from ``workloads.json``.  Inputs
are drawn with ``starbimod.sampling`` before a case starts, so the timed
part of a case only calls the public API and checks the answer.  Cases
call ``sb.<name>`` and ``sb.exactla.<name>`` at run time, never names
imported once, so that the tracing wrappers see every call.

Cases come in blocks.  A block holds each kind of case of the workload
once, in seeded order, and a run is a whole number of blocks: the mix of
cheap and expensive cases is then the same on every seed and only the
drawn polynomials change, which keeps runs comparable.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import NamedTuple

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())
WORKLOADS = SPEC["workloads"]
NAMES = tuple(WORKLOADS)


def setup(name: str, sb, root: Path) -> dict:
    """Load the workload's measures and pass each through the build_gns gate.

    This is what the CLI pays before its first case: read the measure,
    then ``build_gns`` at the degree the workload needs.
    """
    spec = WORKLOADS[name]
    measures = {}
    for mname, entry in spec.get("measures", {}).items():
        if "file" in entry:
            data = json.loads((root / entry["file"]).read_text())
            mf = sb.MomentFunctional.from_json(data)
        else:
            mf = sb.MomentFunctional.atomic(
                [(Fraction(x), Fraction(w)) for x, w in entry["atoms"]]
            )
        sb.build_gns(mf, spec["gate_degree"])
        measures[mname] = mf
    return measures


def blocks(name: str, sb, measures: dict, seed: int):
    """Endless stream of case blocks for the workload, fixed by the seed."""
    return _GENERATORS[name](sb, WORKLOADS[name], measures, random.Random(seed))


def run_cases(name: str, sb, measures: dict, seed: int, seconds: float) -> list:
    """The cases of a run sized for ``seconds``: the stream's first whole blocks."""
    count = max(1, round(seconds / WORKLOADS[name]["block_seconds"]))
    chosen = islice(blocks(name, sb, measures, seed), count)
    return [case for block in chosen for case in block]


def run_case(name: str, sb, measures: dict, case) -> bool:
    """Run one case through the public API; True when every check holds."""
    return _RUNNERS[name](sb, measures, case)


# identity ---------------------------------------------------------------


def _identity_blocks(sb, spec, measures, rng):
    from starbimod.sampling import rand_d2_element, rand_fraction, rand_gauss_element, rand_poly

    weights = [sb.Poly.from_coeff_strings(w) for w in spec["gauss_poly_weights"]]
    # gauss-atoms carries one value per atom, so it only pairs with atomic measures
    combos = [
        (kind, m)
        for kind in spec["variants"]
        for m, mf in measures.items()
        if kind != "gauss-atoms" or mf.is_atomic
    ]
    d2_kinds = ("F0", "F1", "F2")

    def draw_d2(pairs):
        # rand_d2_element until the element has exactly this many (a, b) pairs
        while True:
            x = rand_d2_element(rng, spec["d2_max_terms"], spec["d2_max_degree"])
            if len(x.terms) == pairs:
                return x

    # the pair count drives a d^2 case's cost, so every block has the same mix
    d2_cases = sum(kind in d2_kinds for kind, _ in combos)
    pair_mix = [1 + i % spec["d2_max_terms"] for i in range(d2_cases)]
    index = 0
    while True:
        order = combos[:]
        rng.shuffle(order)
        pairs = pair_mix[:]
        rng.shuffle(pairs)
        block = []
        for kind, mname in order:
            if kind in d2_kinds:
                func = sb.Functional(kind)
                x = draw_d2(pairs.pop())
            elif kind == "gauss-poly":
                func = sb.Functional.gauss_poly(rng.choice(weights))
                x = rand_gauss_element(rng, spec["gauss_max_degree"])
            else:
                func = sb.Functional.gauss_atoms([rand_fraction(rng) for _ in measures[mname].atoms])
                x = rand_gauss_element(rng, spec["gauss_max_degree"])
            a = rand_poly(rng, spec["a_b_max_degree"])
            b = rand_poly(rng, spec["a_b_max_degree"])
            # gauss-atoms has no polynomial Cauchy-Schwarz partner
            equality = index % spec["equality_every"] == 0 and kind != "gauss-atoms"
            block.append((func, mname, a, x, b, equality))
            index += 1
        yield block


def _run_identity(sb, measures, case) -> bool:
    func, mname, a, x, b, equality = case
    mf = measures[mname]
    ok = sb.check_identity(func, a, x, b, mf).equal
    ok &= sb.check_cauchy_schwarz(func, a, x, mf).holds
    if equality:
        report = sb.check_cauchy_schwarz(func, func.coefficient_poly(x), x, mf)
        ok &= report.lhs_squared == report.bound
    return ok


# probe ------------------------------------------------------------------


class ProbeCase(NamedTuple):
    """One tower run to a verdict, with what its answer must satisfy."""

    label: str
    func: object  # None for generator_probe, whose functional is fixed
    element: object
    measure: str
    tower: tuple  # (first degree, last degree)
    expected: str | None  # pinned verdict, if any
    unit_lambda: bool  # lambda_N = 1 at every degree


def probe_catalogue(sb, spec) -> list:
    """The fixed probe cases of one block, in catalogue order."""
    towers = {k: tuple(v) for k, v in spec["towers"].items()}
    d2 = sb.BimodElement.d_squared()
    unit = sb.BimodElement.gauss(1)
    cases = []
    for tower in ("short", "long"):
        for mname in ("gauss64", "lebesgue01-64"):
            for kind in ("F0", "F1", "F2"):
                label = f"{kind}-d2-{mname}-{tower}"
                # theta(d^2) is the identity, so F0's quotient is 1 at every degree
                cases.append(
                    ProbeCase(label, sb.Functional(kind), d2, mname, towers[tower], None, kind == "F0")
                )
    tower = towers["short"]  # criterion 9 pins its verdicts on the 2..10 tower
    for c in spec["criterion9_cases"]:
        if "weight" in c:
            func = sb.Functional.gauss_poly(sb.Poly.from_coeff_strings(c["weight"]))
        else:
            func = sb.Functional.gauss_atoms(c["atom_values"])
        name, mname = c["name"], c["measure"]
        cases.append(ProbeCase(f"{name}-theta-short", func, unit, mname, tower, c["theta"], False))
        cases.append(ProbeCase(f"{name}-rho-short", None, None, mname, tower, c["rho"], False))
    return cases


def _probe_blocks(sb, spec, measures, rng):
    catalogue = probe_catalogue(sb, spec)
    while True:
        block = catalogue[:]
        rng.shuffle(block)
        yield block


def probe_answer_ok(report, case: ProbeCase, lambda_tol: float) -> bool:
    """Check one tower: pinned verdict, lambda_N = 1 where due, monotone lambda_N."""
    lo, hi = case.tower
    lam = report.lambdas
    ok = report.degrees == tuple(range(lo, hi + 1)) and len(lam) == hi - lo + 1
    if case.expected is not None:
        ok &= report.verdict == case.expected
    if case.unit_lambda:
        ok &= all(abs(v - 1.0) <= lambda_tol for v in lam)
    # degree-N spaces are nested, so the supremum cannot decrease
    ok &= all(b >= a - lambda_tol * max(1.0, abs(a)) for a, b in zip(lam, lam[1:]))
    return ok


def _run_probe(sb, measures, case: ProbeCase) -> bool:
    spec = WORKLOADS["probe"]
    mf = measures[case.measure]
    degrees = range(case.tower[0], case.tower[1] + 1)
    if case.func is None:
        report = sb.generator_probe(mf, degrees, spec["tolerance"])
    else:
        report = sb.boundedness_probe(case.func, case.element, mf, degrees, spec["tolerance"])
    return probe_answer_ok(report, case, spec["lambda_tolerance"])


# weyl -------------------------------------------------------------------


def _weyl_blocks(sb, spec, measures, rng):
    from starbimod.sampling import rand_weyl

    def draw(terms):
        # rand_weyl until the normal-ordered element has exactly this many terms
        while True:
            u = rand_weyl(rng, spec["max_terms"], spec["max_exp"])
            if len(u.terms) == terms:
                return u

    counts = range(1, spec["max_terms"] + 1)
    # the term counts explain most of a case's cost, so every block has each pair once
    layout = [(tu, tv) for tu in counts for tv in counts]
    while True:
        order = layout[:]
        rng.shuffle(order)
        yield [(draw(tu), draw(tv)) for tu, tv in order]


def _run_weyl(sb, measures, case) -> bool:
    u, v = case
    uv = u * v
    for k in range(WORKLOADS["weyl"]["oracle_degrees"] + 1):
        mono = sb.Poly.monomial(k)
        if uv.apply(mono) != u.apply(v.apply(mono)):
            return False
    return sb.parse_expression(u.to_expression()) == u


# forms ------------------------------------------------------------------


def _forms_blocks(sb, spec, measures, rng):
    from starbimod.sampling import rand_poly, rand_scalar

    layout = [
        (dim, branch)
        for dim in spec["dims"]
        for branch in ["dense"] * spec["dense_per_block"]
        + ["diagonal"] * spec["diagonal_per_block"]
    ]
    zero = sb.Scalar(0)

    def square(dim):
        return sb.Matrix([[rand_scalar(rng) for _ in range(dim)] for _ in range(dim)])

    while True:
        order = layout[:]
        rng.shuffle(order)
        block = []
        for dim, branch in order:
            if branch == "diagonal":
                left = sb.Matrix.diagonal([Fraction(rng.randint(0, 3)) for _ in range(dim)])
                right = sb.Matrix.diagonal([Fraction(rng.randint(-2, 2)) for _ in range(dim)])
            else:
                left = sb.Matrix(
                    [
                        [
                            rand_scalar(rng) if j < i else (sb.Scalar(rng.randint(1, 3)) if j == i else zero)
                            for j in range(dim)
                        ]
                        for i in range(dim)
                    ]
                )
                rows = [[zero] * dim for _ in range(dim)]
                for i in range(dim):
                    rows[i][i] = sb.Scalar(rng.randint(-2, 2))
                    for j in range(i):
                        z = rand_scalar(rng)
                        rows[i][j] = z
                        rows[j][i] = z.conjugate()
                right = sb.Matrix(rows)
            form = sb.FormMatrix(square(dim))
            a = rand_poly(rng, spec["poly_max_degree"])
            b = rand_poly(rng, spec["poly_max_degree"])
            block.append((branch, left, right, form, a, b, square(dim)))
        yield block


def _run_forms(sb, measures, case) -> bool:
    branch, left, right, x, a, b, t = case
    one = sb.Poly.constant(1)
    if branch == "diagonal":
        gram, gen = left, right
    else:
        gram = left.adjoint() @ left
        gen = sb.exactla.inverse(gram) @ right
    table = sb.ActionTable(gen, gram)
    ab = x.act(a, b, table)
    ok = x.act(a, one, table).act(one, b, table) == ab
    ok &= x.act(one, b, table).act(a, one, table) == ab
    ok &= x.act(b, one, table).act(a, one, table) == x.act(a * b, one, table)
    ok &= ab.involution() == x.involution().act(b.conjugate(), a.conjugate(), table)
    ok &= x.act(a, one, table) == x.involution().act(one, a.conjugate(), table).involution()
    sandwich = sb.form_from_operator(table.operator(a) @ t @ table.operator(b), table)
    ok &= sb.form_from_operator(t, table).act(a, b, table) == sandwich
    return ok


_GENERATORS = {
    "identity": _identity_blocks,
    "probe": _probe_blocks,
    "weyl": _weyl_blocks,
    "forms": _forms_blocks,
}
_RUNNERS = {
    "identity": _run_identity,
    "probe": _run_probe,
    "weyl": _run_weyl,
    "forms": _run_forms,
}
