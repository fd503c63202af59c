"""The acceptance suite: the release gate as one table.

``ALL_CHECKS`` lists the criteria as ``(name, criterion)`` rows in gate
order; a criterion's index is its position in the table, counted from 1,
so a new criterion is one function and one row.  A criterion takes no
argument and returns ``(passed, detail)``.  Its counts, seeds, degrees
and tolerances are literals in its body, pinned there and nowhere else.

``run_check(index)`` is the one driver: it times the criterion, turns an
exception into a FAIL whose detail names it, and builds the CheckResult
under the table's name.  ``run_all`` runs it over the table; the CLI
``selftest`` command and the acceptance tests drive the criteria through
it, so the gate is one piece of code.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

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
    norm_bound_trials,
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
    elapsed_s: float  # wall time of the criterion

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


def representation_identity_d2() -> tuple[bool, str]:
    trials = 1000
    rng = random.Random(101)
    measures = list(_measures().items())
    variants = [Functional("F0"), Functional("F1"), Functional("F2")]
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
    return failures == 0 and elapsed < 60.0, f"{trials - failures}/{trials} exact in {elapsed:.1f}s"


def representation_identity_gauss() -> tuple[bool, str]:
    trials, atom_trials = 500, 100
    rng = random.Random(202)
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
    return (
        failures == 0 and atom_failures == 0,
        f"{trials - failures}/{trials} poly-weight, "
        f"{atom_trials - atom_failures}/{atom_trials} atom-coordinate",
    )


def pinned_operator_values() -> tuple[bool, str]:
    degree = 10
    d2 = BimodElement.d_squared()
    ok = True
    for k in range(degree + 1):
        mono = Poly.monomial(k)
        ok &= Functional("F0").theta(d2, mono) == mono
        ok &= Functional("F1").theta(d2, mono) == mono.derivative()
        ok &= Functional("F2").theta(d2, mono) == mono.derivative(2)
    # p inside the d^2 span: p = (-i/2)(d^2 q - q d^2)
    p_elem = (
        BimodElement(Generator.D2, [(P_ONE, Q)])
        - BimodElement(Generator.D2, [(Q, P_ONE)])
    ) * Scalar(0, Fraction(-1, 2))
    table = p_elem.schrodinger_table(degree)
    half = Fraction(1, 2)
    ok &= all(table[k] == Poly.monomial(k) * half for k in range(degree + 1))
    return ok, f"three lowered-operator images and the half-identity on q^0..q^{degree}"


def order_lowering_noninjective() -> tuple[bool, str]:
    x0 = BimodElement(
        Generator.D2,
        [(Q * Q, P_ONE), (Poly.monomial(1, -2), Q), (P_ONE, Q * Q)],
    )
    nonzero = not x0.is_zero()
    killed = x0.theta_map().is_zero()
    triple_ok = x0.triple() == (Poly(), Poly(), Poly.constant(2))
    return (
        nonzero and killed and triple_ok,
        "q^2 d^2 - 2q d^2 q + d^2 q^2 is nonzero with zero image",
    )


def normal_order_soundness() -> tuple[bool, str]:
    trials = 500
    rng = random.Random(303)
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
    return (
        failures == 0,
        f"{trials - failures}/{trials} product pairs match the differential oracle",
    )


def cauchy_schwarz_suite() -> tuple[bool, str]:
    trials = 1000
    rng = random.Random(404)
    measures = list(_measures().values())
    variants = [Functional("F0"), Functional("F1"), Functional("F2")]
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
    return (
        failures == 0 and equality_failures == 0,
        f"{trials - failures}/{trials} bounded, equality met at proportional inputs",
    )


def norm_bound_suite() -> tuple[bool, str]:
    trials = 1000
    failures, worst = norm_bound_trials(trials, 505, max_dim=8)
    return (
        failures == 0,
        f"{trials - failures}/{trials} certified, max norm-bound slack {worst:.2e}",
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


def bimodule_axiom_suites() -> tuple[bool, str]:
    trials = 1000
    rng = random.Random(606)
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
    return (
        failures == 0 and forms_failures == 0,
        f"{trials - failures}/{trials} element cases, "
        f"{trials - forms_failures}/{trials} form cases",
    )


def boundedness_classification() -> tuple[bool, str]:
    tolerance = 1e-3
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
    return ok, "; ".join(got)


def uniqueness_suite() -> tuple[bool, str]:
    max_degree = 8
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
    return (
        ok and mismatch_seen,
        f"equal-moment presentations agree for degrees 1..{max_degree}, mismatch rejected",
    )


def psd_gate() -> tuple[bool, str]:
    rejected = 0
    for bad in ([1, 0, -1], [0, 1, 0]):
        try:
            build_gns(MomentFunctional.from_moments([Fraction(v) for v in bad]), 1)
        except NotPositiveError:
            rejected += 1
    rng = random.Random(707)
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
            mf.pairing(v, Poly.monomial(k)).is_zero() for v in realization.kernel for k in range(5)
        )
        # the rows of U are the orthogonal polynomials: f(P_a P_b) = D_a delta_ab
        rows = realization.rows
        orthogonal = all(
            mf.pairing(pa, pb) == (d if a == b else 0)
            for a, (pa, d) in enumerate(zip(rows, realization.diag))
            for b, pb in enumerate(rows)
        )
        if vanishing and orthogonal:
            accepted += 1
    return (
        rejected == 2 and accepted == runs,
        f"2/2 indefinite sequences rejected, {accepted}/{runs} atomic measures pass",
    )


def parser_roundtrip() -> tuple[bool, str]:
    trials = 500
    rng = random.Random(808)
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
    return (
        failures == 0 and pinned,
        f"{trials - failures}/{trials} round trips, pinned parses agree",
    )


ALL_CHECKS = (
    ("gns-identity-d2", representation_identity_d2),
    ("gns-identity-gauss", representation_identity_gauss),
    ("pinned-operator-values", pinned_operator_values),
    ("lowering-noninjective", order_lowering_noninjective),
    ("normal-order-oracle", normal_order_soundness),
    ("cauchy-schwarz", cauchy_schwarz_suite),
    ("norm-vs-numerical-radius", norm_bound_suite),
    ("bimodule-axioms", bimodule_axiom_suites),
    ("boundedness-four-cases", boundedness_classification),
    ("uniqueness-intertwiner", uniqueness_suite),
    ("psd-gate", psd_gate),
    ("parser-roundtrip", parser_roundtrip),
)


def run_check(index: int) -> CheckResult:
    """Run criterion ``index`` of ``ALL_CHECKS``, counted from 1, and time it.

    A criterion that raises fails, with a detail that names the exception.
    """
    if index < 1:
        raise IndexError(f"criteria are counted from 1, got {index}")
    name, criterion = ALL_CHECKS[index - 1]
    started = time.perf_counter()
    try:
        passed, detail = criterion()
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(index, name, passed, detail, time.perf_counter() - started)


def run_all() -> list[CheckResult]:
    """Run every criterion in table order; one that raises does not stop the rest."""
    return [run_check(index) for index in range(1, len(ALL_CHECKS) + 1)]
