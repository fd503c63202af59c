"""The starbimod names that the benchmark reaches into still resolve.

``benchmarks/tracing.py`` wraps every callable of its ``LAYERS`` table
(and the ``Scalar`` operations) by name for ``--trace 1``, and
``benchmarks/workloads.py`` calls the library as ``sb.<name>`` (the
``forms`` workload builds, multiplies and inverts ``sb.Matrix`` values
itself, down to ``sb.exactla.inverse``) and draws its inputs from
``starbimod.sampling``.  A rename or a deletion under ``src/`` would
break those runs without failing a test here, so the names are read
from the benchmark's source, which is parsed and never executed or
imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"
WORKLOADS = ast.parse((BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))


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



def _dotted(node) -> list[str] | None:
    """The names of an attribute chain ``sb.a.b``, or None if not rooted at ``sb``."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return names[::-1] if isinstance(node, ast.Name) and node.id == "sb" else None


# every chain and each of its prefixes, e.g. sb.Matrix and sb.Matrix.diagonal
SB_NAMES = sorted(
    {".".join(names) for node in ast.walk(WORKLOADS) if (names := _dotted(node))}
)
SAMPLING_NAMES = sorted(
    {
        alias.name
        for node in ast.walk(WORKLOADS)
        if isinstance(node, ast.ImportFrom) and node.module == "starbimod.sampling"
        for alias in node.names
    }
)


def test_workloads_reach_the_forms_layer():
    # the forms workload is the one that handles Matrix values directly
    assert {"Matrix", "Matrix.diagonal", "exactla.inverse", "FormMatrix"} <= set(SB_NAMES)
    assert {"rand_poly", "rand_scalar"} <= set(SAMPLING_NAMES)


@pytest.mark.parametrize("dotted", SB_NAMES)
def test_workload_sb_names_resolve(dotted):
    obj = importlib.import_module("starbimod")
    for name in dotted.split("."):
        obj = getattr(obj, name)


@pytest.mark.parametrize("name", SAMPLING_NAMES)
def test_workload_sampling_imports_resolve(name):
    sampling = importlib.import_module("starbimod.sampling")
    assert callable(getattr(sampling, name))
