"""The acceptance suite: every release-gating check as a callable.

Each criterion function returns a CheckResult; ``run_all`` executes the
whole battery.  The CLI ``selftest`` command and the acceptance test
module both drive exactly these functions, so the gate is one piece of
code.  Counts, degrees and tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .algebra import I, P_ONE, Poly, Q, Scalar
from .bimodule import BimodElement, Generator
from .errors import MomentMismatchError, NotPositiveError
from .exactla import Matrix, inverse
from .forms import ActionTable, FormMatrix, form_from_operator
from .gns import (
    Functional,
    build_gns,
    check_cauchy_schwarz,
    check_identity,
    check_intertwiner,
)
from .moments import MomentFunctional
from .parser import parse_expression
from .probes import (
    BOUNDED,
    GROWTH,
    boundedness_probe,
    generator_probe,
    numerical_radius_norm_check,
)
from .sampling import (
    atoms012,
    mu3,
    rand_d2_element,
    rand_gauss_element,
    rand_poly,
    rand_scalar,
    rand_weyl,
)
from .weyl import WeylElement


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float | None = None  # wall time, set by run_all

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.index:2d} {self.name}: {self.detail}"


def _measures():
    return {
        "mu3": mu3(),
        "atoms012": atoms012(),
        "lebesgue01": MomentFunctional.lebesgue_unit(64),
        "gaussian": MomentFunctional.gaussian(64),
    }


def representation_identity_d2(trials: int = 1000, seed: int = 101) -> CheckResult:
    rng = random.Random(seed)
    measures = list(_measures().items())
    variants = [Functional.f0(), Functional.f1(), Functional.f2()]
    started = time.monotonic()
    failures = 0
    for _ in range(trials):
        func = rng.choice(variants)
        _, mf = rng.choice(measures)
        a = rand_poly(rng, 6)
        b = rand_poly(rng, 6)
        x = rand_d2_element(rng, max_terms=4, max_degree=4)
        if not check_identity(func, a, x, b, mf).equal:
            failures += 1
    elapsed = time.monotonic() - started
    return CheckResult(
        1,
        "gns-identity-d2",
        failures == 0 and elapsed < 60.0,
        f"{trials - failures}/{trials} exact in {elapsed:.1f}s",
    )


def representation_identity_gauss(
    trials: int = 500, atom_trials: int = 100, seed: int = 202
) -> CheckResult:
    rng = random.Random(seed)
    measures = list(_measures().values())
    weights = [P_ONE, Q, Q * Q - 1]
    failures = 0
    for _ in range(trials):
        func = Functional.gauss_poly(rng.choice(weights))
        mf = rng.choice(measures)
        a = rand_poly(rng, 6)
        b = rand_poly(rng, 6)
        x = rand_gauss_element(rng, max_degree=4)
        if not check_identity(func, a, x, b, mf).equal:
            failures += 1
    base = mu3()
    atom_failures = 0
    for _ in range(atom_trials):
        func = Functional.gauss_atoms(
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in base.atoms]
        )
        a = rand_poly(rng, 6)
        b = rand_poly(rng, 6)
        x = rand_gauss_element(rng, max_degree=4)
        if not check_identity(func, a, x, b, base).equal:
            atom_failures += 1
    ok = failures == 0 and atom_failures == 0
    return CheckResult(
        2,
        "gns-identity-gauss",
        ok,
        f"{trials - failures}/{trials} poly-weight, "
        f"{atom_trials - atom_failures}/{atom_trials} atom-coordinate",
    )


def pinned_operator_values(degree: int = 10) -> CheckResult:
    d2 = BimodElement.d_squared()
    ok = True
    for k in range(degree + 1):
        mono = Poly.monomial(k)
        ok &= Functional.f0().theta(d2, mono) == mono
        ok &= Functional.f1().theta(d2, mono) == mono.derivative()
        ok &= Functional.f2().theta(d2, mono) == mono.derivative(2)
    # p inside the d^2 span: p = (-i/2)(d^2 q - q d^2)
    p_elem = (
        BimodElement(Generator.D2, [(P_ONE, Q)])
        - BimodElement(Generator.D2, [(Q, P_ONE)])
    ) * Scalar(0, Fraction(-1, 2))
    table = p_elem.schrodinger_table(degree)
    half = Fraction(1, 2)
    ok &= all(table[k] == Poly.monomial(k) * half for k in range(degree + 1))
    return CheckResult(
        3,
        "pinned-operator-values",
        ok,
        f"three lowered-operator images and the half-identity on q^0..q^{degree}",
    )


def order_lowering_noninjective() -> CheckResult:
    x0 = BimodElement(
        Generator.D2,
        [(Q * Q, P_ONE), (Poly.monomial(1, -2), Q), (P_ONE, Q * Q)],
    )
    nonzero = not x0.is_zero()
    killed = x0.theta_map().is_zero()
    triple_ok = x0.triple() == (Poly(), Poly(), Poly.constant(2))
    return CheckResult(
        4,
        "lowering-noninjective",
        nonzero and killed and triple_ok,
        "q^2 d^2 - 2q d^2 q + d^2 q^2 is nonzero with zero image",
    )


def normal_order_soundness(trials: int = 500, seed: int = 303) -> CheckResult:
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        u = rand_weyl(rng, max_terms=4, max_exp=6)
        v = rand_weyl(rng, max_terms=4, max_exp=6)
        uv = u * v
        for k in range(13):
            mono = Poly.monomial(k)
            if uv.apply(mono) != u.apply(v.apply(mono)):
                failures += 1
                break
    return CheckResult(
        5,
        "normal-order-oracle",
        failures == 0,
        f"{trials - failures}/{trials} product pairs match the differential oracle",
    )


def cauchy_schwarz_suite(trials: int = 1000, seed: int = 404) -> CheckResult:
    rng = random.Random(seed)
    measures = list(_measures().values())
    variants = [Functional.f0(), Functional.f1(), Functional.f2()]
    failures = 0
    equality_failures = 0
    for n in range(trials):
        func = rng.choice(variants)
        mf = rng.choice(measures)
        a = rand_poly(rng, 6)
        x = rand_d2_element(rng, max_terms=4, max_degree=4)
        if not check_cauchy_schwarz(func, a, x, mf).holds:
            failures += 1
        if n % 20 == 0:
            # proportional case: a equal to the coefficient polynomial
            h = func.coefficient_poly(x)
            report = check_cauchy_schwarz(func, h, x, mf)
            if report.lhs_squared != report.bound:
                equality_failures += 1
    ok = failures == 0 and equality_failures == 0
    return CheckResult(
        6,
        "cauchy-schwarz",
        ok,
        f"{trials - failures}/{trials} bounded, equality met at proportional inputs",
    )


def norm_bound_suite(trials: int = 1000, seed: int = 505) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for n in range(trials):
        dim = int(rng.integers(1, 9))
        t = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        report = numerical_radius_norm_check(t, samples=10_000, seed=1000 + n)
        worst = max(worst, report.norm - report.bound)
        if not report.holds:
            failures += 1
    return CheckResult(
        7,
        "norm-vs-numerical-radius",
        failures == 0,
        f"{trials - failures}/{trials}, max norm-bound slack {worst:.2e}",
    )


def _random_action_table(rng: random.Random, dim: int) -> ActionTable:
    if rng.random() < 0.25:
        gram = Matrix.diagonal(
            [Fraction(rng.randint(0, 3)) for _ in range(dim)]
        )
        gen = Matrix.diagonal([Fraction(rng.randint(-2, 2)) for _ in range(dim)])
        return ActionTable(gen, gram)
    rows = [
        [
            rand_scalar(rng) if j < i else (Scalar(rng.randint(1, 3)) if j == i else Scalar(0))
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    b = Matrix(rows)
    gram = b.adjoint() @ b
    s_rows = [[Scalar(0)] * dim for _ in range(dim)]
    for i in range(dim):
        s_rows[i][i] = Scalar(rng.randint(-2, 2))
        for j in range(i):
            z = rand_scalar(rng)
            s_rows[i][j] = z
            s_rows[j][i] = z.conjugate()
    gen = inverse(gram) @ Matrix(s_rows)
    return ActionTable(gen, gram)


def _rand_form(rng: random.Random, dim: int) -> FormMatrix:
    return FormMatrix(
        Matrix([[rand_scalar(rng) for _ in range(dim)] for _ in range(dim)])
    )


def bimodule_axiom_suites(trials: int = 1000, seed: int = 606) -> CheckResult:
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        tag = rng.choice([Generator.D2, Generator.GAUSS])
        x = (
            rand_d2_element(rng, 3, 3)
            if tag is Generator.D2
            else rand_gauss_element(rng, 3)
        )
        a = rand_poly(rng, 3)
        b = rand_poly(rng, 3)
        c = rand_poly(rng, 3)
        ok = x.act(a * b, P_ONE).equivalent(x.act(b, P_ONE).act(a, P_ONE))
        ok &= x.act(P_ONE, a * b).equivalent(x.act(P_ONE, a).act(P_ONE, b))
        ok &= x.act(a, b).equivalent(x.act(a, P_ONE).act(P_ONE, b))
        ok &= x.act(a, b).equivalent(x.act(P_ONE, b).act(a, P_ONE))
        lhs = x.act(a, b).involution()
        rhs = x.involution().act(b.conjugate(), a.conjugate())
        ok &= lhs.equivalent(rhs)
        # left action recovered from the right action through the involutions
        left = x.act(a, P_ONE)
        via = x.involution().act(P_ONE, a.conjugate()).involution()
        ok &= left.equivalent(via)
        if not ok:
            failures += 1
    forms_failures = 0
    for _ in range(trials):
        dim = rng.randint(2, 3)
        table = _random_action_table(rng, dim)
        x = _rand_form(rng, dim)
        a = rand_poly(rng, 2)
        b = rand_poly(rng, 2)
        ok = x.act(a, P_ONE, table).act(P_ONE, b, table) == x.act(a, b, table)
        ok &= x.act(P_ONE, b, table).act(a, P_ONE, table) == x.act(a, b, table)
        ok &= (
            x.act(b, P_ONE, table).act(a, P_ONE, table)
            == x.act(a * b, P_ONE, table)
        )
        ok &= x.act(a, b, table).involution() == x.involution().act(
            b.conjugate(), a.conjugate(), table
        )
        ok &= x.act(a, P_ONE, table) == x.involution().act(
            P_ONE, a.conjugate(), table
        ).involution()
        t = Matrix([[rand_scalar(rng) for _ in range(dim)] for _ in range(dim)])
        xt = form_from_operator(t, table)
        sandwich = form_from_operator(
            table.operator(a) @ t @ table.operator(b), table
        )
        ok &= xt.act(a, b, table) == sandwich
        if not ok:
            forms_failures += 1
    ok_all = failures == 0 and forms_failures == 0
    return CheckResult(
        8,
        "bimodule-axioms",
        ok_all,
        f"{trials - failures}/{trials} element cases, "
        f"{trials - forms_failures}/{trials} form cases",
    )


def boundedness_classification(tolerance: float = 1e-3) -> CheckResult:
    degrees = range(2, 11)
    gaussian = MomentFunctional.gaussian(64)
    bounded_measure = mu3()
    cluster = MomentFunctional.atomic(
        [(Fraction(1, n), Fraction(1, 2**n)) for n in range(1, 17)]
    )
    unit = BimodElement.gauss(1)
    cases = [
        ("flat-on-atoms", Functional.gauss_poly(P_ONE), bounded_measure, BOUNDED, BOUNDED),
        ("flat-on-gaussian", Functional.gauss_poly(P_ONE), gaussian, BOUNDED, GROWTH),
        (
            "steep-on-cluster",
            Functional.gauss_atoms(list(range(1, 17))),
            cluster,
            GROWTH,
            BOUNDED,
        ),
        ("linear-on-gaussian", Functional.gauss_poly(Q), gaussian, GROWTH, GROWTH),
    ]
    got = []
    ok = True
    for name, func, mf, want_theta, want_rho in cases:
        theta = boundedness_probe(func, unit, mf, degrees, tolerance)
        rho = generator_probe(mf, degrees, tolerance)
        got.append(f"{name}=({theta.verdict},{rho.verdict})")
        ok &= theta.verdict == want_theta and rho.verdict == want_rho
    return CheckResult(9, "boundedness-four-cases", ok, "; ".join(got))


def uniqueness_suite(max_degree: int = 8) -> CheckResult:
    base = mu3()
    permuted = MomentFunctional.atomic([(1, 1), (0, 1), (-1, 1)])
    point = MomentFunctional.atomic([(0, 2)])
    point_moments = MomentFunctional.from_moments(
        [Fraction(2)] + [Fraction(0)] * (2 * max_degree)
    )
    ok = True
    for n in range(1, max_degree + 1):
        ok &= check_intertwiner(base, permuted, n).verified
        ok &= check_intertwiner(point, point_moments, n).verified
    mismatch_seen = False
    try:
        check_intertwiner(base, atoms012(), max_degree)
    except MomentMismatchError:
        mismatch_seen = True
    return CheckResult(
        10,
        "uniqueness-intertwiner",
        ok and mismatch_seen,
        f"equal-moment presentations agree for degrees 1..{max_degree}, "
        "mismatch rejected",
    )


def psd_gate(seed: int = 707) -> CheckResult:
    rejected = 0
    for bad in ([1, 0, -1], [0, 1, 0]):
        try:
            build_gns(MomentFunctional.from_moments([Fraction(v) for v in bad]), 1)
        except NotPositiveError:
            rejected += 1
    rng = random.Random(seed)
    accepted = 0
    runs = 50
    for _ in range(runs):
        atoms = [
            (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 5))
        ]
        mf = MomentFunctional.atomic(atoms)
        realization = build_gns(mf, 4)
        vanishing = all(
            mf.pairing(v, Poly.monomial(k)).is_zero()
            for v in realization.kernel
            for k in range(5)
        )
        if vanishing:
            accepted += 1
    ok = rejected == 2 and accepted == runs
    return CheckResult(
        11,
        "psd-gate",
        ok,
        f"2/2 indefinite sequences rejected, {accepted}/{runs} atomic measures pass",
    )


def parser_roundtrip(trials: int = 500, seed: int = 808) -> CheckResult:
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        u = rand_weyl(rng, max_terms=4, max_exp=6)
        if parse_expression(u.to_expression()) != u:
            failures += 1
    pinned = (
        parse_expression("d*q") == WeylElement([((1, 1), 1), ((0, 0), 1)])
        and parse_expression("q^2*d^2 - 2*q*d^2*q + d^2*q^2")
        == WeylElement([((0, 0), 2)])
        and parse_expression("p*q - q*p") == WeylElement([((0, 0), -I)])
    )
    return CheckResult(
        12,
        "parser-roundtrip",
        failures == 0 and pinned,
        f"{trials - failures}/{trials} round trips, pinned parses agree",
    )


ALL_CHECKS = (
    representation_identity_d2,
    representation_identity_gauss,
    pinned_operator_values,
    order_lowering_noninjective,
    normal_order_soundness,
    cauchy_schwarz_suite,
    norm_bound_suite,
    bimodule_axiom_suites,
    boundedness_classification,
    uniqueness_suite,
    psd_gate,
    parser_roundtrip,
)


def run_all() -> list[CheckResult]:
    """Run every criterion in order, recording each one's wall time."""
    results = []
    for check in ALL_CHECKS:
        started = time.perf_counter()
        result = check()
        results.append(replace(result, elapsed_s=time.perf_counter() - started))
    return results
