"""Call counters and span recorders that the benchmark wraps around starbimod.

A layer is a public callable of one module.  ``installed`` swaps each
layer callable for a wrapper, in every ``starbimod`` module that holds
it, and puts the original back on exit, so nothing under ``src/`` is
edited and a run without tracing calls the library untouched.

Two passes use these wrappers.  The counting pass counts calls, and also
every ``Scalar`` arithmetic operation; the span pass records spans only,
so the cost of counting ``Scalar`` does not inflate the timed spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager

# (metric prefix, module, class or None for a function, attributes).
# WeylElement.__rmul__ delegates to __mul__, so wrapping __mul__ sees it;
# Poly.__rmul__ is the same function as Poly.__mul__ and needs its own wrapper.
LAYERS = (
    ("algebra.Poly.mul", "algebra", "Poly", ("__mul__", "__rmul__")),
    ("weyl.mul", "weyl", "WeylElement", ("__mul__",)),
    ("weyl.apply", "weyl", "WeylElement", ("apply",)),
    ("parser.parse_expression", "parser", None, ("parse_expression",)),
    ("bimodule.act", "bimodule", "BimodElement", ("act",)),
    ("bimodule.triple", "bimodule", "BimodElement", ("triple",)),
    ("moments.apply", "moments", "MomentFunctional", ("apply",)),
    ("gns.Functional.value", "gns", "Functional", ("value",)),
    ("gns.check_identity", "gns", None, ("check_identity",)),
    ("gns.check_cauchy_schwarz", "gns", None, ("check_cauchy_schwarz",)),
    ("gns.build_gns", "gns", None, ("build_gns",)),
    ("exactla.ldl_psd", "exactla", None, ("ldl_psd",)),
    ("exactla.nullspace", "exactla", None, ("nullspace",)),
    ("exactla.inverse", "exactla", None, ("inverse",)),
    ("exactla.Matrix.matmul", "exactla", "Matrix", ("__matmul__",)),
    ("probes.boundedness_probe", "probes", None, ("boundedness_probe",)),
    ("forms.ActionTable.init", "forms", "ActionTable", ("__init__",)),
    ("forms.FormMatrix.act", "forms", "FormMatrix", ("act",)),
)

# Scalar.__rsub__ delegates to __sub__ and is counted there.
SCALAR_OPS = (
    "algebra.Scalar.ops",
    "algebra",
    "Scalar",
    ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__", "conjugate"),
)


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "starbimod" or n.startswith("starbimod.")]


@contextmanager
def installed(layers, wrap):
    """Replace every layer callable by ``wrap(name, fn)``; restore on exit."""
    saved = []
    try:
        for name, module, owner, attrs in layers:
            mod = sys.modules[f"starbimod.{module}"]
            if owner is None:
                (attr,) = attrs
                original = getattr(mod, attr)
                wrapper = wrap(name, original)
                for holder in _package_modules():
                    if getattr(holder, attr, None) is original:
                        saved.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
            else:
                cls = getattr(mod, owner)
                for attr in attrs:
                    original = cls.__dict__[attr]
                    saved.append((cls, attr, original))
                    setattr(cls, attr, wrap(name, original))
        yield
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


class CallCounter:
    """Counts calls per layer name."""

    def __init__(self):
        self.counts = Counter()

    def wrap(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


class SpanRecorder:
    """Records one span per wrapped call, in memory.

    A span is ``(name index, start, end, parent span index or -1, case id)``,
    with start and end read on ``clock``.  The single-threaded program
    nests calls strictly, so a stack gives the parent and children of one
    span never overlap.
    """

    def __init__(self, names, clock):
        self.names = list(names)
        self.clock = clock
        self._index = {n: i for i, n in enumerate(self.names)}
        self.spans = []
        self._stack = []
        self.case = -1

    def wrap(self, name, fn):
        name_id = self._index[name]
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.case)

        return spanned

    def totals(self):
        """Calls and self time per layer name.

        Self time is a span's duration minus the time its child spans cover.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for (name_id, start, end, _, _), children in zip(self.spans, covered):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += end - start - children
        return calls, self_s
