"""Mutants of the source that the selftest must kill.

Each mutant is a (file, old text, new text) patch applied to a copy of the
``starbimod`` package under ``tmp_path``.  The test asserts that the patch
applied, so a mutant whose text no longer occurs in the source fails here
instead of passing unnoticed, then runs the criteria the mutant names from
``selftest.ALL_CHECKS`` on the copy, in a child forked by
``forked.run_forked``, and asserts that each of them fails.  A mutant
that no criterion kills yet is listed in ``SURVIVORS`` and marked
``xfail(strict=True)`` with the ROADMAP item that should kill it, so the
mark fails once that item lands.
"""

import shutil
from pathlib import Path

import pytest
from forked import run_forked

import starbimod

PACKAGE = Path(starbimod.__file__).resolve().parent

# name: (file, old text, new text, criteria that must fail)
MUTANTS = {
    "apply-without-falling-factorial": ("weyl.py", "perm(j, n)", "1", (5,)),
    "normal-order-without-perm": ("weyl.py", "comb(n, k) * perm(m, k)", "comb(n, k)", (5,)),
    # q^n and d^n read one power too high, capped so that n = 64 still returns a value
    "generator-power-one-too-high": (
        "parser.py",
        "value = powers[n]",
        "value = powers[min(n + 1, MAX_EXPONENT)]",
        (12,),
    ),
    # d^n no longer acts on t^n: the group with n == j is skipped
    "apply-stops-one-group-too-early": ("weyl.py", "if j < n:", "if j <= n:", (5,)),
    # a two-sided act multiplies R(a^+)^H by M and drops R(b)
    "two-sided-product-drops-its-right-factor": (
        "exactla.py",
        "for m in rest:",
        "for m in rest[:1]:",
        (8,),
    ),
    # Horner's first step c_N A adds the imaginary product where it subtracts it
    "horner-start-adds-the-imaginary-product": (
        "exactla.py",
        "tr * a - ti * b",
        "tr * a + ti * b",
        (8,),
    ),
    # inverse's imaginary row update adds f_r d where it subtracts it: G^-1 S is
    # then not hermitian for G, and criterion 8 counts the refused table
    "inverse-update-adds-a-real-product": (
        "exactla.py",
        "- fr * d - fi * c",
        "+ fr * d - fi * c",
        (8,),
    ),
    # inverse's row update and its output row add the pivot's imaginary product
    # where they subtract it: criterion 8's hermitian Grams have real pivots, so
    # only its inverse law on the drawn operator t reaches these terms
    "inverse-update-adds-the-pivot-imaginary-product": (
        "exactla.py",
        "pr * a - pi * b - fr * c + fi * d",
        "pr * a + pi * b - fr * c + fi * d",
        (8,),
    ),
    "inverse-output-adds-the-pivot-imaginary-product": (
        "exactla.py",
        "f * (pr * a - pi * b)",
        "f * (pr * a + pi * b)",
        (8,),
    ),
    # d^+ = d: the lowering is then no longer a *-map
    "involution-keeps-the-sign-of-d": ("weyl.py", "s = (-1) ** n", "s = 1", (4,)),
    "kernel-vector-without-its-l-terms": (
        "exactla.py",
        "kernel.append(v)",
        "kernel.append(Poly.monomial(a))",
        (11,),
    ),
    "nullspace-without-the-rescale-of-an-earlier-row": (
        "exactla.py",
        "x *= dd // (xd * u.den)",
        "pass",
        (9, 11),
    ),
    "unscaled-d-by-one-power-of-x": (
        "gns.py",
        "d / powers[p] ** 2",
        "d / powers[p]",
        (9, 10, 11),
    ),
    "unscaled-vectors-by-one-power-of-x-too-many": (
        "gns.py",
        "v.den * powers[len(v.re) - 1]",
        "v.den * powers[len(v.re) - 1] * x",
        (10, 11),
    ),
    "ldl-accepts-a-negative-pivot": ("exactla.py", "if pivot < 0:", "if False:", (11,)),
    # each Bareiss update keeps the previous pivot as a factor: positive, so the
    # pivot signs stay, but D and L scale away from the Gram's
    "bareiss-drops-its-exact-division": ("exactla.py", ") // prev", ")", (9, 11)),
    "build-gns-drops-its-last-kernel-vector": (
        "gns.py",
        "GnsRealization(degree, pivots, diag, rows, kernel)",
        "GnsRealization(degree, pivots, diag, rows, kernel[:-1])",
        (10,),
    ),
    "ldl-reads-the-residual-row-from-two-past-the-pivot": (
        "exactla.py",
        "any(pi[p + 1 :])",
        "any(pi[p + 2 :])",
        (11,),
    ),
    "atom-pairing-without-the-conjugate": (
        "moments.py",
        "re += (a * c + b * d) * w\n            im += (b * c - a * d) * w",
        "re += (a * c - b * d) * w\n            im += (b * c + a * d) * w",
        (2,),
    ),
    # each pair is convolved at its own denominator, not scaled into the lcm
    "pair-sum-drops-its-denominator-scale": (
        "algebra.py",
        "_convolve_into(acc_re, acc_im, u.re, u.im, vr, vi, f)",
        "_convolve_into(acc_re, acc_im, u.re, u.im, vr, vi, 1)",
        (1, 6),
    ),
    # F.value reads f through apply and the probe's form through shifted_values,
    # so criterion 9's form law sees the lost imaginary part
    "apply-reads-only-the-real-part-of-p": (
        "moments.py",
        "sum(map(mul, p.re, m)), sum(map(mul, p.im, m)), p.den * den",
        "sum(map(mul, p.re, m)), 0, p.den * den",
        (9,),
    ),
    # the probe's form reads the term c h b^(r) as c h b for r > 0
    "form-drops-the-falling-factorial": (
        "probes.py",
        "c * perm(k, r) * (den // d)",
        "c * (den // d)",
        (9,),
    ),
    # the hermitised form adds H's imaginary part to its mirror's, not the conjugate
    "form-imaginary-weight-symmetric": ("probes.py", "(fj - fk) * b", "(fj + fk) * b", (9,)),
    # every degree reads the lambda solved for the top rank
    "probe-reads-the-top-rank-lambda": (
        "probes.py",
        "[solved[r] for r in ranks]",
        "[solved[ranks[-1]] for r in ranks]",
        (9,),
    ),
    # every degree reads the lambda of the degree below, so on the standard
    # normal measure rho's lambda_N is the top zero of He_N, not of He_(N+1)
    "probe-ranks-read-one-degree-low": (
        "probes.py",
        "bisect_right(pivots, n) for n in degrees",
        "bisect_right(pivots, n - 1) for n in degrees",
        (9,),
    ),
    # the Gram of degree N is built N x N, one row and column short
    "gram-built-one-degree-short": (
        "gns.py",
        "_hankel(sums, den, degree + 1)",
        "_hankel(sums, den, degree)",
        (10, 11),
    ),
}

# mutants that survive every criterion today, with the reason
SURVIVORS: dict[str, str] = {}


def criteria_of_the_copy(criteria: list[int]) -> list:
    """Where ``starbimod`` was imported from, and each named criterion's
    index, verdict and detail.  It calls each criterion's body, not
    ``run_check``, so a crash fails the test instead of reading as a FAIL."""
    import starbimod
    from starbimod import selftest

    return [starbimod.__file__, [[i, *selftest.ALL_CHECKS[i - 1][1]()] for i in criteria]]


def mutated_copy(root: Path, file: str, old: str, new: str) -> Path:
    """A copy of the package under ``root`` with every ``old`` in ``file`` made ``new``."""
    target = root / "starbimod"
    shutil.copytree(PACKAGE, target, ignore=shutil.ignore_patterns("__pycache__"))
    path = target / file
    source = path.read_text(encoding="utf-8")
    assert old in source, f"the mutant's text is gone from {file}: {old!r}"
    path.write_text(source.replace(old, new), encoding="utf-8")
    return root


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=SURVIVORS[name]))
        if name in SURVIVORS
        else name
        for name in MUTANTS
    ],
)
def test_selftest_kills_mutant(name, tmp_path):
    file, old, new, criteria = MUTANTS[name]
    root = mutated_copy(tmp_path, file, old, new)
    # the criterion must return FAIL, not crash
    imported, results = run_forked(root, criteria_of_the_copy, list(criteria))
    assert Path(imported).parent == root / "starbimod"
    assert [index for index, _, _ in results] == list(criteria)
    assert not any(passed for _, passed, _ in results), results
