"""One block of each benchmark workload runs and checks correct.

``benchmarks/workloads.py`` holds the benchmark's cases and the checks on
their answers.  Running the first block of each workload here makes a
library change that breaks one of those checks fail tier-1, instead of
showing up only when the benchmark runs.  The module is loaded from its
path; nothing under ``benchmarks/`` is changed or imported as a package.
"""

import importlib.util
from itertools import islice
from pathlib import Path

import pytest

import starbimod

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "benchmark_workloads", ROOT / "benchmarks" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_block_checks_correct(name):
    measures = workloads.setup(name, starbimod, ROOT)
    [block] = islice(workloads.blocks(name, starbimod, measures, seed=1), 1)
    assert block
    for case in block:
        assert workloads.run_case(name, starbimod, measures, case)
