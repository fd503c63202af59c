"""The acceptance suite: the release gate as one table.

``ALL_CHECKS`` lists the criteria as ``(name, criterion)`` rows in gate
order; a criterion's index is its position in the table, counted from 1,
so a new criterion is one function and one row.  A criterion takes no
argument and returns ``(passed, detail)``.  Its counts, seeds, degrees
and tolerances are literals in its body, pinned there and nowhere else.
Every seeded object it draws comes from ``sampling``, which the tests
draw through too, and each law it checks on more than one model is
written once, as ``_bimodule_laws`` is for criterion 8's two models.

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
from itertools import combinations, product
from operator import eq

from .algebra import I, P_ONE, Poly, Q, Scalar
from .bimodule import BimodElement, Generator
from .errors import MomentMismatchError, NotPositiveError
from .exactla import Matrix, inverse, ldl_psd
from .forms import form_from_operator
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
    form_numerators,
    generator_probe,
    norm_bound_trials,
)
from .sampling import (
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


def _measures() -> list[MomentFunctional]:
    return [mu3(), atoms012(), MomentFunctional.lebesgue_unit(64), MomentFunctional.gaussian(64)]


def _identity_failures(rng: random.Random, trials: int, draw) -> int:
    """How many of ``trials`` cases fail ``check_identity``: ``draw(rng)``
    gives each case's functional and measure, then ``rand_case`` its
    (a, x, b) at degree 6."""
    failures = 0
    for _ in range(trials):
        func, mf = draw(rng)
        a, x, b = rand_case(rng, func.tag, 6)
        failures += not check_identity(func, a, x, b, mf).equal
    return failures


def representation_identity_d2() -> tuple[bool, str]:
    trials = 1000
    measures = _measures()
    variants = [Functional("F0"), Functional("F1"), Functional("F2")]
    started = time.monotonic()
    failures = _identity_failures(
        random.Random(101), trials, lambda rng: (rng.choice(variants), rng.choice(measures))
    )
    elapsed = time.monotonic() - started
    return failures == 0 and elapsed < 60.0, f"{trials - failures}/{trials} exact in {elapsed:.1f}s"


def representation_identity_gauss() -> tuple[bool, str]:
    trials, atom_trials = 500, 100
    rng = random.Random(202)
    measures = _measures()
    weights = [P_ONE, Q, Q * Q - 1]
    failures = _identity_failures(
        rng, trials, lambda rng: (Functional.gauss_poly(rng.choice(weights)), rng.choice(measures))
    )
    base = mu3()
    atom_failures = _identity_failures(
        rng,
        atom_trials,
        lambda rng: (Functional.gauss_atoms([rand_fraction(rng) for _ in base.atoms]), base),
    )
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
    # the factor i makes the lowering a *-map: theta(x^+) = theta(x)^+
    trials = 300
    rng = random.Random(410)
    stars = 0
    for _ in range(trials):
        x = rand_d2_element(rng, 4, 4)
        stars += x.involution().theta_map() == x.theta_map().involution()
    return (
        nonzero and killed and triple_ok and stars == trials,
        "q^2 d^2 - 2q d^2 q + d^2 q^2 is nonzero with zero image, "
        f"{stars}/{trials} lowerings commute with the involutions",
    )


def normal_order_soundness() -> tuple[bool, str]:
    trials = 500
    rng = random.Random(303)
    failures = 0
    for _ in range(trials):
        u = rand_weyl(rng, max_terms=4, max_exp=6)
        v = rand_weyl(rng, max_terms=4, max_exp=6)
        uv = u * v
        failures += any(
            uv.apply(mono) != u.apply(v.apply(mono)) for mono in map(Poly.monomial, range(13))
        )
    return (
        failures == 0,
        f"{trials - failures}/{trials} product pairs match the differential oracle",
    )


def cauchy_schwarz_suite() -> tuple[bool, str]:
    trials = 1000
    rng = random.Random(404)
    measures = _measures()
    variants = [Functional("F0"), Functional("F1"), Functional("F2")]
    failures = equality_failures = h_failures = 0
    for n in range(trials):
        func = rng.choice(variants)
        mf = rng.choice(measures)
        a = rand_poly(rng, 6)
        x = rand_d2_element(rng, max_terms=4, max_degree=4)
        failures += not check_cauchy_schwarz(func, a, x, mf).holds
        # the bound's h on a second route: x is h0 d^2 + 2 h1 d + h2 in the
        # Weyl algebra, read off the products a d^2 b that make it up
        profile = x.weyl_by_products().d_profile()
        h0, h1, h2 = (profile.get(n, Poly()) for n in (2, 1, 0))
        want = (h0, h1 * Fraction(1, 2), h2)[variants.index(func)]
        h_failures += func.coefficient_poly(x) != want
        if n % 20 == 0:
            # proportional case: a equal to the coefficient polynomial
            h = func.coefficient_poly(x)
            report = check_cauchy_schwarz(func, h, x, mf)
            equality_failures += report.lhs_squared != report.bound
    return (
        failures == 0 and equality_failures == 0 and h_failures == 0,
        f"{trials - failures}/{trials} bounded, equality met at proportional inputs, "
        f"{trials - h_failures}/{trials} h read off the ambient products",
    )


def norm_bound_suite() -> tuple[bool, str]:
    trials = 1000
    failures, worst = norm_bound_trials(trials, 505, max_dim=8)
    return (
        failures == 0,
        f"{trials - failures}/{trials} certified, max norm-bound slack {worst:.2e}",
    )


def _bimodule_laws(x, a, b, act, same) -> bool:
    """The six *-bimodule laws at x, a, b, where ``act(x, a, b)`` is a x b
    and ``same`` compares two results: each action is associative, the two
    commute, (a x b)^+ = b^+ x^+ a^+, and the left action is the right one
    through the involutions."""
    axb = act(x, a, b)
    return (
        same(act(x, a * b, P_ONE), act(act(x, b, P_ONE), a, P_ONE))
        and same(act(x, P_ONE, a * b), act(act(x, P_ONE, a), P_ONE, b))
        and same(axb, act(act(x, a, P_ONE), P_ONE, b))
        and same(axb, act(act(x, P_ONE, b), a, P_ONE))
        and same(axb.involution(), act(x.involution(), b.conjugate(), a.conjugate()))
        and same(act(x, a, P_ONE), act(x.involution(), P_ONE, a.conjugate()).involution())
    )


def bimodule_axiom_suites() -> tuple[bool, str]:
    trials = 1000
    rng = random.Random(606)
    failures = 0
    for _ in range(trials):
        tag = rng.choice([Generator.D2, Generator.GAUSS])
        x = rand_d2_element(rng, 3, 3) if tag is Generator.D2 else rand_gauss_element(rng, 3)
        a, b = rand_poly(rng, 3), rand_poly(rng, 3)
        failures += not _bimodule_laws(x, a, b, BimodElement.act, BimodElement.equivalent)
    forms_failures = 0
    for _ in range(trials):
        dim = rng.randint(2, 3)
        try:
            table = (rand_diagonal_table if rng.random() < 0.25 else rand_dense_table)(rng, dim)
        except ValueError:  # G^-1 S not hermitian for G: ``inverse`` is wrong
            forms_failures += 1
            continue
        x = rand_form(rng, dim)
        a, b = rand_poly(rng, 2), rand_poly(rng, 2)
        t = Matrix([[rand_scalar(rng) for _ in range(dim)] for _ in range(dim)])
        try:
            # t's pivots are complex, where the hermitian tables' are real
            inverts = inverse(t) @ t == Matrix.diagonal([1] * dim)
        except ZeroDivisionError:  # a singular t has no inverse to check
            inverts = True
        forms_failures += not (
            _bimodule_laws(x, a, b, lambda x, a, b: x.act(a, b, table), eq)
            # the operator sandwich: a x_t b is the form of R(a) t R(b)
            and form_from_operator(t, table).act(a, b, table)
            == form_from_operator(table.operator(a) @ t @ table.operator(b), table)
            and inverts
        )
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
    cluster = cluster16()
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
        if mf is gaussian:
            gaussian_rho = rho
    # the Gauss-Hermite law: on the standard normal measure, q cut to degree N
    # has the zeros of He_(N+1) as its spectrum, so rho's lambda_N is the largest
    from numpy.polynomial.hermite_e import hermeroots

    hermite = [
        abs(lam - max(hermeroots([0] * (n + 1) + [1]))) <= 1e-9 * lam
        for n, lam in zip(gaussian_rho.degrees, gaussian_rho.lambdas)
    ]
    # the form law: the probe's form is the hermitised F on monomials,
    # checked through F.value, which reads the components of x and never
    # forms theta(x), the route of form_numerators
    rng = random.Random(3)
    elements = [rand_d2_element(rng, 3, 3) for _ in range(5)]
    monomials = [Poly.monomial(k) for k in range(5)]
    measures = _measures()
    entries = mismatches = 0
    for func in (Functional("F0"), Functional("F1"), Functional("F2")):
        for x in elements:
            for mf in measures:
                form = form_numerators(func, x, mf, 4).rows
                value = [[func.value(x, mf, a, b) for b in monomials] for a in monomials]
                for j, k in product(range(5), repeat=2):
                    entries += 1
                    mismatches += form[j][k] != (value[j][k] + value[k][j].conjugate()) / 2
    got.append(f"form law {entries - mismatches}/{entries} entries")
    got.append(f"Gauss-Hermite law {sum(hermite)}/{len(hermite)} degrees")
    return ok and mismatches == 0 and all(hermite), "; ".join(got)


def uniqueness_suite() -> tuple[bool, str]:
    max_degree = 8
    base = mu3()
    permuted = MomentFunctional.atomic([(1, 1), (0, 1), (-1, 1)])
    point = MomentFunctional.atomic([(0, 2)])
    point_moments = MomentFunctional.from_moments(
        [Fraction(2)] + [Fraction(0)] * (2 * max_degree)
    )
    # the cluster's atoms 1/n are realized at x = lcm(1..16), its moment list at x = 1
    cluster = cluster16()
    cluster_moments = MomentFunctional.from_moments(cluster.moments_up_to(2 * max_degree))
    pairs = [(base, permuted), (point, point_moments), (cluster, cluster_moments)]
    ok = all(check_intertwiner(a, b, n).verified for n in range(1, max_degree + 1) for a, b in pairs)
    mismatch_seen = False
    try:
        check_intertwiner(base, atoms012(), max_degree)
    except MomentMismatchError:
        mismatch_seen = True
    # the tower law: a realization built afresh at N is the leading part of
    # one built at the top, and its pivots and kernel vectors count N + 1
    top, towers, tower_failures = 24, 0, 0
    for make in (mu3, atoms012, cluster16):
        warm = make()
        build_gns(warm, top)
        for n in range(1, top):
            fresh, lead = build_gns(make(), n), build_gns(warm, n)
            towers += 1
            tower_failures += len(fresh.pivots) + len(fresh.kernel) != n + 1 or fresh != lead
    return (
        ok and mismatch_seen and tower_failures == 0,
        f"equal-moment presentations agree for degrees 1..{max_degree}, mismatch rejected, "
        f"{towers - tower_failures}/{towers} fresh towers match the warm one's leading part",
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
        mf = MomentFunctional.atomic(rand_atoms(rng))
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
    # the principal-minor law: a PSD matrix has every 2 x 2 principal minor
    # a_jj a_kk - |a_jk|^2 >= 0, computed here on its Gaussian integers
    rng = random.Random(709)
    matrices, passed, negative_minors = 2000, 0, 0
    for _ in range(matrices):
        n = rng.randint(2, 4)
        re = [[rng.randint(0, 2) if j == k else 0 for k in range(n)] for j in range(n)]
        im = [[0] * n for _ in range(n)]
        for j, k in combinations(range(n), 2):
            if rng.randrange(5) < 2:
                re[j][k] = re[k][j] = rng.randint(-2, 2)
                im[j][k] = rng.randint(-2, 2)
                im[k][j] = -im[j][k]
        try:
            ldl_psd(Matrix.from_numerators(re, im, 1, n))
        except NotPositiveError:
            continue
        passed += 1
        negative_minors += sum(
            re[j][j] * re[k][k] < re[j][k] ** 2 + im[j][k] ** 2
            for j, k in combinations(range(n), 2)
        )
    return (
        rejected == 2 and accepted == runs and negative_minors == 0,
        f"2/2 indefinite sequences rejected, {accepted}/{runs} atomic measures pass, "
        f"{negative_minors} negative 2x2 principal minors among {passed}/{matrices} "
        "matrices that ldl_psd passes",
    )


def parser_roundtrip() -> tuple[bool, str]:
    trials = 500
    rng = random.Random(808)
    failures = 0
    for _ in range(trials):
        u = rand_weyl(rng, max_terms=4, max_exp=6)
        failures += parse_expression(u.to_expression()) != u
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
