"""Release gate: the twelve acceptance criteria, one test each.

Each test runs its criterion through ``selftest.run_check``, by its index
in ``selftest.ALL_CHECKS``, checks the name the table gives it, and prints
its pass/fail line, so a plain
``pytest -s`` run shows the same report as ``starbimod selftest``.
"""

import inspect

from starbimod import selftest


def test_every_criterion_takes_no_parameter():
    # a criterion's counts, seeds and tolerances are literals in its body
    assert len(selftest.ALL_CHECKS) == 12
    for name, criterion in selftest.ALL_CHECKS:
        assert not inspect.signature(criterion).parameters, name


def _run(index, name):
    result = selftest.run_check(index)
    print(result.line())
    assert result.name == name
    assert result.passed, result.detail
    return result


def test_criterion_01_representation_identity_d2():
    result = _run(1, "gns-identity-d2")
    # stated budget: under a minute for the thousand exact cases
    assert "exact" in result.detail


def test_criterion_02_representation_identity_gauss():
    _run(2, "gns-identity-gauss")


def test_criterion_03_pinned_operator_values():
    _run(3, "pinned-operator-values")


def test_criterion_04_lowering_noninjective():
    _run(4, "lowering-noninjective")


def test_criterion_05_normal_order_oracle():
    _run(5, "normal-order-oracle")


def test_criterion_06_cauchy_schwarz():
    _run(6, "cauchy-schwarz")


def test_criterion_07_norm_vs_numerical_radius():
    _run(7, "norm-vs-numerical-radius")


def test_criterion_08_bimodule_axioms():
    _run(8, "bimodule-axioms")


def test_criterion_09_boundedness_four_cases():
    _run(9, "boundedness-four-cases")


def test_criterion_10_uniqueness_intertwiner():
    _run(10, "uniqueness-intertwiner")


def test_criterion_11_psd_gate():
    _run(11, "psd-gate")


def test_criterion_12_parser_roundtrip():
    _run(12, "parser-roundtrip")
