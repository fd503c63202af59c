"""Release gate: the twelve acceptance criteria, one test case each.

Each case runs its criterion through ``selftest.run_check``, by its index
in ``selftest.ALL_CHECKS``, checks the name the table gives it, and prints
its pass/fail line, so a plain
``pytest -s`` run shows the same report as ``starbimod selftest``.
"""

import inspect

import pytest

from starbimod import selftest

# the criterion names, in gate order
CRITERIA = (
    "gns-identity-d2",
    "gns-identity-gauss",
    "pinned-operator-values",
    "lowering-noninjective",
    "normal-order-oracle",
    "cauchy-schwarz",
    "norm-vs-numerical-radius",
    "bimodule-axioms",
    "boundedness-four-cases",
    "uniqueness-intertwiner",
    "psd-gate",
    "parser-roundtrip",
)


def test_every_criterion_takes_no_parameter():
    # a criterion's counts, seeds and tolerances are literals in its body
    assert len(selftest.ALL_CHECKS) == 12
    for name, criterion in selftest.ALL_CHECKS:
        assert not inspect.signature(criterion).parameters, name


@pytest.mark.parametrize("index, name", enumerate(CRITERIA, 1), ids=CRITERIA)
def test_criterion(index, name):
    result = selftest.run_check(index)
    print(result.line())
    assert result.name == name
    assert result.passed, result.detail
    if index == 1:
        # stated budget: under a minute for the thousand exact cases
        assert "exact" in result.detail
