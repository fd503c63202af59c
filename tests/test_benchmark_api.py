"""The starbimod names that the benchmark reaches into still resolve.

``benchmarks/tracing.py`` wraps every callable of its ``LAYERS`` table
(and the ``Scalar`` operations) by name for ``--trace 1``, and the
``forms`` workload calls ``starbimod.exactla.inverse`` itself.  A rename
or a deletion under ``src/`` would break those runs without failing a
test here, so the table is read from the benchmark's source, which is
parsed and never executed or imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _table(name: str):
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


LAYERS = _table("LAYERS")
SCALAR_OPS = _table("SCALAR_OPS")


@pytest.mark.parametrize("layer", [*LAYERS, SCALAR_OPS], ids=lambda layer: layer[0])
def test_layer_callables_resolve(layer):
    _, module, owner, attrs = layer
    mod = importlib.import_module(f"starbimod.{module}")
    if owner is None:
        # a module function, swapped in every starbimod module that holds it
        (attr,) = attrs
        assert callable(getattr(mod, attr))
    else:
        # a method, swapped in the class's own namespace
        cls = getattr(mod, owner)
        for attr in attrs:
            assert callable(cls.__dict__[attr])


def test_forms_workload_inverse_resolves():
    exactla = importlib.import_module("starbimod.exactla")
    assert callable(exactla.inverse)

