"""No module of the package reaches into another module's private names.

A name that starts with ``_`` is private to the module that defines it.  A
``from .module import _name`` in ``src/parity_inductor`` couples two modules
through a detail only one of them owns, and so does a read of ``x._name`` in a
module that never defines or assigns ``_name``.  Both scans below refuse every
such use: nothing is allowed, so the owner gives the name a public one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "parity_inductor").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(package_files):
    """Sorted (importing module, defining module, name) of each relative
    import of a ``_name`` from a sibling module."""
    found = []
    for path in package_files:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level == 0 or not node.module:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append((path.stem, node.module, alias.name))
    return sorted(found)


def private_attribute_reads(package_files):
    """Sorted (module, line, name) of each read of ``x._name`` in a module that
    neither defines ``_name`` (a function, method or class of that name) nor
    assigns it (as a name or an attribute)."""
    found = []
    for path in package_files:
        tree = ast.parse(path.read_text())
        own = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                own.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                own.add(node.attr)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and _private(node.attr) and node.attr not in own):
                found.append((path.stem, node.lineno, node.attr))
    return sorted(found)


def test_no_module_imports_another_modules_private_name():
    assert private_imports(PACKAGE) == []


def test_no_module_reads_another_modules_private_attribute():
    assert private_attribute_reads(PACKAGE) == []


def test_the_scan_flags_private_names_only(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "from ._primes import is_prime\n"
        "from .b import public, _private\n"
        "import os\n"
    )
    assert private_imports([tmp_path / "a.py"]) == [("a", "b", "_private")]


def test_the_attribute_scan_flags_reads_of_names_the_module_does_not_own(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        self._kept = {}\n"
        "    def _helper(self):\n"
        "        return self._kept, self.__class__\n"
        "\n"
        "def f(g):\n"
        "    return g._kept, g._helper(), g._foreign(), g.public\n"
    )
    assert private_attribute_reads([tmp_path / "a.py"]) == [("a", 8, "_foreign")]
