"""Every helper, public def, export and import of the package has a use in the package.

No linter runs on this project, so these scans stand in for its
unused-code checks.  A ``_``-prefixed function, method or class (dunders
aside) defined in ``src/starbimod`` must be named somewhere in
``src/starbimod`` outside its own definition, as a name, an attribute or
an imported name.  So must every public function, method or class
defined outside ``__init__.py``, but for the test references listed in
``TEST_REFERENCES`` with the reason each is kept, every name in
``starbimod.__all__``, and every public module constant (a name that a
module-level assignment outside ``__init__.py`` binds); for these three
a use in ``__init__.py`` does not count.  Tests do not count as a use.
A name that a module-level import binds, in the package or in the
tests, must be read in that module, or re-exported through its
``__all__``.  A helper, method, export or constant that a refactor
leaves without a caller or reader, or an import it leaves without a
reader, fails here.  These scans match names, not owners, so each public
method name that two classes share is pinned to its owners.

The routines that read only the real parts of their input rely on their
one caller to pass real data; a scan pins each to that caller.

Every defaulted parameter of a function in the package, and every
defaulted field of a dataclass, must be passed, by position or by
keyword, by some call in the package, so no setting is reached only by
its default; ``DEFAULT_ONLY`` lists the exemptions with their reasons.  And the arithmetic is exact: a ``float(`` or
``complex(`` call, a float or complex literal, or a numpy import or name
may appear only in the functions that ``FLOAT_ISLANDS`` lists, each with
its reason.
"""

import ast
from pathlib import Path

import starbimod

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "starbimod"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package() -> dict[str, ast.Module]:
    """The parsed modules of the package, keyed by file name."""
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def _scan(modules: dict[str, ast.Module], wanted):
    """The definitions ``(file, name, first, last line)`` of every function,
    method or class whose name passes ``wanted``, and every reference
    ``(file, name, line)`` in ``modules``."""
    defs, refs = [], []
    for file, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if wanted(node.name):
                    defs.append((file, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((file, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((file, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((file, alias.name, node.lineno) for alias in node.names)
    return defs, refs


def _unreferenced(defs, refs) -> list[str]:
    """``file:line name`` of each definition that no reference outside it names."""
    return [
        f"{file}:{first} {name}"
        for file, name, first, last in defs
        if not any(
            r_name == name and (r_file != file or not first <= line <= last)
            for r_file, r_name, line in refs
        )
    ]


def test_the_scan_sees_the_package():
    defs, refs = _scan(_package(), _is_private)
    assert ("moments.py", "_over_top") in {(f, n) for f, n, _, _ in defs}
    assert len(refs) > 1000


def test_every_private_helper_is_referenced():
    assert _unreferenced(*_scan(_package(), _is_private)) == []


def _unreached_exports(exported, modules: dict[str, ast.Module]) -> list[str]:
    """``file:line name`` of each name in ``exported`` that ``modules``, with
    ``__init__.py`` left out, never name outside its own definition; a name
    they do not define has the empty definition ``:0``."""
    modules = {f: t for f, t in modules.items() if f != "__init__.py"}
    defs, refs = _scan(modules, lambda name: name in exported)
    defined = {name for _, name, _, _ in defs}
    defs += [("", name, 0, -1) for name in exported if name not in defined]
    return _unreferenced(defs, refs)


def test_the_export_scan_sees_an_unreached_export():
    modules = {
        "__init__.py": ast.parse("from .a import Used, lone, ghost\nlone()\nghost()\n"),
        "a.py": ast.parse("class Used:\n    pass\ndef lone():\n    return lone()\n"),
        "b.py": ast.parse("from .a import Used\nx = Used()\n"),
    }
    assert _unreached_exports(["Used", "lone", "ghost"], modules) == ["a.py:3 lone", ":0 ghost"]


def test_every_export_is_used_in_the_package():
    assert _unreached_exports(starbimod.__all__, _package()) == []


def _unread_constants(modules: dict[str, ast.Module]) -> list[str]:
    """``file:line name`` of each public name that a module-level assignment
    outside ``__init__.py`` binds and that no module but ``__init__.py``
    names outside that assignment."""
    modules = {f: t for f, t in modules.items() if f != "__init__.py"}
    constants = [
        (file, target.id, node.lineno, node.end_lineno)
        for file, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not target.id.startswith("_")
    ]
    return _unreferenced(constants, _scan(modules, lambda name: False)[1])


def test_the_constant_scan_sees_an_unread_constant():
    modules = {
        "__init__.py": ast.parse("from .a import LONE, TYPED\n"),
        "a.py": ast.parse("USED = 1\nLONE = 2\n_HIDDEN = 3\nTYPED: int = USED\nSELF = SELF\n"),
        "b.py": ast.parse("from .a import TYPED\n\ndef f():\n    return TYPED\n"),
    }
    assert _unread_constants(modules) == ["a.py:2 LONE", "a.py:5 SELF"]


def test_every_public_constant_is_read_in_the_package():
    assert _unread_constants(_package()) == []


# public defs that only tests reach, each with the reason it is kept
TEST_REFERENCES = {
    "weyl_by_products": "the ambient-product reference that tests check the "
    "classifying triple against; it never reads the triple, so it stays "
    "independent of the fast path",
}


def _unreached_public_defs(modules: dict[str, ast.Module]) -> list[str]:
    """``file:line name`` of each public function, method or class defined
    outside ``__init__.py`` that no module but ``__init__.py`` names
    outside its own definition, ``TEST_REFERENCES`` aside."""
    modules = {f: t for f, t in modules.items() if f != "__init__.py"}
    defs, refs = _scan(modules, lambda name: not name.startswith("_"))
    return _unreferenced([d for d in defs if d[1] not in TEST_REFERENCES], refs)


def test_the_public_def_scan_sees_an_unreached_method():
    modules = {
        "__init__.py": ast.parse("from .a import A, helper\nA().lone()\n"),
        "a.py": ast.parse(
            "class A:\n    def used(self):\n        return 1\n"
            "    def lone(self):\n        return self.lone()\n"
            "    def weyl_by_products(self):\n        return 2\n"
            "def helper():\n    return A().used()\n"
        ),
        "b.py": ast.parse("from .a import helper\nhelper()\n"),
    }
    assert _unreached_public_defs(modules) == ["a.py:4 lone"]


def test_every_public_def_is_reached():
    assert _unreached_public_defs(_package()) == []


# each public method name that more than one class defines, with its
# owners.  The public-def scan matches names, not owners, so an owner that
# nothing reaches passes behind another owner's use, as
# ``WeylElement.coefficient`` once did behind ``Poly.coefficient``.  Check
# that each owner is reached on its own before adding a name or an owner.
SHARED_METHOD_OWNERS = {
    "act": {"bimodule.BimodElement", "forms.FormMatrix"},
    "apply": {"moments.MomentFunctional", "weyl.WeylElement"},
    "coerce": {"algebra.Poly", "algebra.Scalar"},
    "conjugate": {"algebra.Poly", "algebra.Scalar"},
    "from_json": {"bimodule.BimodElement", "moments.MomentFunctional"},
    "from_numerators": {"algebra.Poly", "exactla.Matrix"},
    "gauss_poly": {"bimodule.BimodElement", "gns.Functional"},
    "involution": {"bimodule.BimodElement", "forms.FormMatrix", "weyl.WeylElement"},
    "is_hermitian": {"bimodule.BimodElement", "exactla.Matrix"},
    "is_zero": {"algebra.Poly", "algebra.Scalar", "bimodule.BimodElement", "weyl.WeylElement"},
    "monomial": {"algebra.Poly", "weyl.WeylElement"},
    "value": {"forms.FormMatrix", "gns.Functional"},
}


def _shared_method_owners(modules: dict[str, ast.Module]) -> dict[str, set[str]]:
    """``name: {"module.Class", ..}`` for each public method name that more
    than one class in ``modules`` defines."""
    owners = {}
    for file, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("_")
                ):
                    owners.setdefault(item.name, set()).add(f"{file[:-3]}.{node.name}")
    return {name: found for name, found in owners.items() if len(found) > 1}


def test_the_owner_scan_sees_a_planted_name_and_owner():
    modules = dict(_package())
    modules["planted.py"] = ast.parse(
        "class Planted:\n    def is_zero(self):\n        return True\n"
        "    def triple(self):\n        return ()\n    def _require(self):\n        return 0\n"
    )
    found = _shared_method_owners(modules)
    changed = {name for name in found if found[name] != SHARED_METHOD_OWNERS.get(name)}
    assert changed == {"is_zero", "triple"}
    assert found["triple"] == {"bimodule.BimodElement", "planted.Planted"}


def test_every_shared_method_name_has_its_pinned_owners():
    assert _shared_method_owners(_package()) == SHARED_METHOD_OWNERS


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """The names ``(name, line)`` that the module's top-level imports bind
    and that the module neither reads nor lists in ``__all__``."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [(name, line) for name, line in bound if name not in used]


def test_the_import_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n__all__ = ['lcm']\n")
    assert _unused_imports(tree) == [("os", 1), ("gcd", 2)]


def test_every_import_is_used():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 30
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in paths
        for name, line in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


# each routine that reads only real data, with the one function that may use it
ONE_CALLER = {
    "nullspace": ("gns.py", "build_gns"),
    "_unscaled": ("gns.py", "build_gns"),
    "_reduced_pencil": ("probes.py", "boundedness_probe"),
}


def _users(tree: ast.Module, names) -> list[tuple[str, str | None]]:
    """``(name, enclosing function)`` of every read of one of ``names``, as a
    name or an attribute; None for a read outside any function."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id in names:
                found.append((child.id, func))
            elif isinstance(child, ast.Attribute) and child.attr in names:
                found.append((child.attr, func))
            visit(child, func)

    visit(tree, None)
    return found


def test_the_caller_scan_sees_an_extra_caller():
    tree = ast.parse(
        "def build_gns():\n    return nullspace(g)\n"
        "def other():\n    return exactla.nullspace(g)\n"
        "f = nullspace\n"
    )
    assert _users(tree, {"nullspace"}) == [
        ("nullspace", "build_gns"),
        ("nullspace", "other"),
        ("nullspace", None),
    ]


def test_the_real_only_routines_have_one_caller():
    found = {
        (name, path.name, func)
        for path in sorted(SRC.glob("*.py"))
        for name, func in _users(ast.parse(path.read_text(encoding="utf-8")), ONE_CALLER)
    }
    assert found == {(name, file, func) for name, (file, func) in ONE_CALLER.items()}


# defaulted parameters that no call in the package passes, each with the
# reason it is kept
DEFAULT_ONLY = {
    ("main", "argv"): "the entry point's test seam: the console script calls main() "
    "with no argument, and tests pass the argument list",
}


def _functions(tree: ast.Module) -> list[tuple[ast.FunctionDef, ast.ClassDef | None]]:
    """``(function, class)`` of every function in ``tree``, with the class
    whose body defines it, None for a function outside a class body."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child, owner))
                visit(child, None)
            else:
                visit(child, child if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return found


def _defaulted(args: ast.arguments, bound: bool) -> list[tuple[str, int | None]]:
    """``(parameter, position)`` of each defaulted parameter, the position
    counted among a call's positional arguments, past the bound first
    parameter, and None for a keyword-only one."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(arg.arg, k - bound) for k, arg in enumerate(positional) if k >= first] + [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _calls(node) -> list[tuple[str, ast.Call]]:
    """``(callee name, call)`` of every call in ``node`` to a name or an attribute."""
    return [
        (call.func.id if isinstance(call.func, ast.Name) else call.func.attr, call)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
    ]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name``, at ``position`` among
    the call's positional arguments (None for keyword-only)."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a ``dataclass`` decorator, bare or called, decorates the class."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_defaults(node: ast.ClassDef) -> list[tuple[str, int]]:
    """``(field, position)`` of each defaulted field of a dataclass, the
    position counted among its ``__init__``'s positional arguments.  Every
    annotated name of the class body is a field, as in this package."""
    fields = [
        item
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    return [(item.target.id, k) for k, item in enumerate(fields) if item.value is not None]


def _unpassed_defaults(modules: dict[str, ast.Module]) -> list[str]:
    """``file:line function(parameter)`` of each defaulted parameter, or
    ``file:line Class(field)`` of each defaulted dataclass field, that no
    call in ``modules`` passes, by position or by keyword, ``DEFAULT_ONLY``
    aside.  A call matches by the function's name; an ``__init__``, or a
    dataclass's generated one, is called by its class's name, or as ``cls``
    inside its class.  A method's first parameter is bound, unless it is a
    staticmethod, and a call with ``*`` or ``**`` arguments passes every
    parameter."""
    calls = [found for tree in modules.values() for found in _calls(tree)]

    def by_class(owner: ast.ClassDef):
        return calls + [(owner.name, call) for c, call in _calls(owner) if c == "cls"]

    # (file, line, callee name, [(parameter, position)], the calls that may pass them)
    targets = []
    for file, tree in modules.items():
        for func, owner in _functions(tree):
            name, candidates = func.name, calls
            if owner is not None and func.name == "__init__":
                name, candidates = owner.name, by_class(owner)
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list
            )
            targets.append((file, func.lineno, name, _defaulted(func.args, bound), candidates))
        targets += [
            (file, node.lineno, node.name, _field_defaults(node), by_class(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        ]
    return [
        f"{file}:{line} {name}({param})"
        for file, line, name, params, candidates in targets
        for param, position in params
        if (name, param) not in DEFAULT_ONLY
        and not any(
            callee == name and _passes(call, param, position) for callee, call in candidates
        )
    ]


def test_the_default_scan_sees_a_default_only_parameter():
    modules = {
        "a.py": ast.parse(
            "def f(a, b=1, *, c=2, d=3):\n    return a\n"
            "class K:\n"
            "    def __init__(self, y=None, z=None):\n        self.y = y\n"
            "    def m(self, x=0, w=0):\n        return x\n"
            "    @staticmethod\n    def s(v=0):\n        return v\n"
            "    @classmethod\n    def make(cls):\n        return cls(z=1)\n"
            "def g(u=0):\n    return u\n"
            "def main(argv=None):\n    return argv\n"
        ),
        "b.py": ast.parse("from .a import K, f, g\nf(0, 1, d=4)\nK(2).m(1)\nK.s(1)\ng(*[0])\n"),
    }
    assert _unpassed_defaults(modules) == ["a.py:1 f(c)", "a.py:6 m(w)"]


def test_the_default_scan_sees_a_default_only_dataclass_field():
    modules = {
        "a.py": ast.parse(
            "import dataclasses\nfrom dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass R:\n"
            "    a: int\n    b: int = 0\n    c: int = 1\n    d: int = 2\n    LIMIT = 9\n"
            "    @classmethod\n    def make(cls):\n        return cls(1, d=3)\n"
            "@dataclasses.dataclass\nclass S:\n    x: int = 0\n"
            "class Plain:\n    y: int = 0\n"
        ),
        "b.py": ast.parse("from .a import R, S\nR(0, 1)\nS()\n"),
    }
    assert _unpassed_defaults(modules) == ["a.py:4 R(c)", "a.py:14 S(x)"]
    # the package's defaulted fields are in the scan's reach
    found = {
        (node.name, field)
        for tree in _package().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for field, _ in _field_defaults(node)
    }
    assert found == {("BimodElement", "terms"), ("Functional", "weight"), ("Functional", "atom_values")}


def test_every_defaulted_parameter_is_passed():
    assert _unpassed_defaults(_package()) == []


# each place in the package that may use floats, keyed by its file and
# enclosing function (None outside any function), with the reason: the
# arithmetic is exact everywhere else
FLOAT_ISLANDS = {
    ("algebra.py", "Scalar.__complex__"): "the float view of an exact Scalar",
    ("cli.py", "_tolerance"): "parses --tolerance, the probe's float plateau tolerance",
    ("probes.py", None): "the numpy import of the one module with eigensolves, and "
    "PLATEAU_TOLERANCE, the probe's default float plateau tolerance",
    ("probes.py", "_block_lambdas"): "the per-degree hermitian eigensolve",
    ("probes.py", "_block_lambdas.block"): "the scaled pencil block as a numpy array",
    ("probes.py", "_block_lambdas.block.entry"): "one pencil entry as a complex double",
    ("probes.py", "plateau_verdict"): "compares float lambdas within the tolerance",
    ("probes.py", "numerical_radius_norm_check"): "the float eigensolve that picks the "
    "seed vectors and the float norm raised into an exact bound",
    ("probes.py", "norm_bound_trials"): "draws float matrices for the norm lemma",
    ("sampling.py", "rand_scalar"): "the draw threshold of an imaginary part",
    ("sampling.py", "rand_poly"): "the draw threshold of a zero coefficient",
    ("selftest.py", "representation_identity_d2"): "criterion 1's 60 s budget",
    ("selftest.py", "_random_action_table"): "the draw threshold of a diagonal table",
    ("selftest.py", "boundedness_classification"): "criterion 9's plateau tolerance",
}


def _numpy_names(tree: ast.Module) -> set[str]:
    """The names that the module's numpy imports bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {
                a.asname or a.name.split(".")[0]
                for a in node.names
                if a.name.split(".")[0] == "numpy"
            }
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names |= {a.asname or a.name for a in node.names}
    return names


def _is_float_use(node: ast.AST, numpy: set[str]) -> bool:
    """Whether ``node`` is a float or complex literal, a ``float(`` or
    ``complex(`` call, a numpy import or a numpy name."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (float, complex)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("float", "complex")
    if isinstance(node, ast.Name):
        return node.id in numpy
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    return False


def _float_uses(modules: dict[str, ast.Module]) -> set[tuple[str, str | None]]:
    """``(file, enclosing function)`` of each float use in ``modules``; the
    function is dotted through its enclosing classes and functions, None
    outside any function."""
    found = set()
    for file, tree in modules.items():
        numpy = _numpy_names(tree)

        def visit(node, prefix, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    visit(child, name + ".", where if isinstance(child, ast.ClassDef) else name)
                    continue
                if _is_float_use(child, numpy):
                    found.add((file, where))
                visit(child, prefix, where)

        visit(tree, "", None)
    return found


def test_the_float_scan_sees_a_planted_float():
    modules = dict(_package())
    tree = modules["moments.py"]
    owner = next(n for n in tree.body if getattr(n, "name", "") == "MomentFunctional")
    apply = next(n for n in owner.body if getattr(n, "name", "") == "apply")
    apply.body.insert(0, ast.parse("half = 0.5").body[0])
    assert _float_uses(modules) - set(FLOAT_ISLANDS) == {("moments.py", "MomentFunctional.apply")}
    planted = ast.parse(
        "import numpy.linalg as la\n"
        "class A:\n    def f(self):\n        return la.norm(complex(1))\n"
    )
    assert _float_uses({"a.py": planted}) == {("a.py", None), ("a.py", "A.f")}


def test_floats_stay_in_their_islands():
    assert _float_uses(_package()) == set(FLOAT_ISLANDS)
