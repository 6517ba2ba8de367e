"""No module of the package reads another module's private name: neither
`mod._x` on a module bound by `from . import mod` nor `from .mod import _x`.
A name with a leading underscore is its module's own decision, so a second
module that needs it is a sign that the decision sits in the wrong place.
Found by an ast walk over src/capaminer."""

import ast

from conftest import ROOT

PACKAGE = ROOT / "src" / "capaminer"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_reads(package):
    """The "<file>:<line> <module>.<name>" of each read of another module's
    private name in the .py files of package, in file and line order."""
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = []  # (line, "<module>.<name>")
        modules = {}  # {local name: module} of `from . import mod [as name]`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        found.append((node.lineno, f"{node.module}.{alias.name}"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
        yield from (f"{path.name}:{line} {name}" for line, name in sorted(found))


def test_no_module_reads_another_modules_private_name():
    assert list(private_reads(PACKAGE)) == []


def test_guard_sees_both_forms(tmp_path):
    (tmp_path / "a.py").write_text("from . import b as bee\nfrom .c import _d, e\n"
                                   "x = bee._f + bee.g + bee.__name__\n")
    assert list(private_reads(tmp_path)) == ["a.py:2 c._d", "a.py:3 b._f"]
