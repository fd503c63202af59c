"""Every private helper and every import of the package has a use in the package.

No linter runs on this project, so these scans stand in for its
unused-code checks.  A ``_``-prefixed function, method or class (dunders
aside) defined in ``src/starbimod`` must be named somewhere in
``src/starbimod`` outside its own definition, as a name, an attribute or
an imported name.  A name that a module-level import binds must be read
in that module, or re-exported through its ``__all__``.  Tests do not
count as a use.  A helper that a refactor leaves without a caller, or an
import it leaves without a reader, fails here.

The routines that read only the real parts of their input rely on their
one caller to pass real data; a scan pins each to that caller.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "starbimod"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _scan():
    """The private definitions ``(file, name, first, last line)`` and every
    reference ``(file, name, line)`` in the package."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defs.append((path.name, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((path.name, alias.name, node.lineno) for alias in node.names)
    return defs, refs


def test_the_scan_sees_the_package():
    defs, refs = _scan()
    assert ("moments.py", "_over_top") in {(f, n) for f, n, _, _ in defs}
    assert len(refs) > 1000


def test_every_private_helper_is_referenced():
    defs, refs = _scan()
    unused = [
        f"{file}:{first} {name}"
        for file, name, first, last in defs
        if not any(
            r_name == name and (r_file != file or not first <= line <= last)
            for r_file, r_name, line in refs
        )
    ]
    assert unused == []


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
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
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
