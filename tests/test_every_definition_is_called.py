"""Nothing stays in the package that nothing calls.

Every function, method and class defined in ``src/parity_inductor`` must be
named somewhere else: in another part of the package, in the benchmark under
``perfbench/``, or in a ``python`` block of the README.  A name that only tests
use belongs in ``tests/``.  The scan goes by name: a load of ``x.walk``
anywhere counts for every ``walk``, and a load inside a function's own body
(recursion) does not count for it.  A method (a def in a class body) counts
as named only through an attribute load ``x.name``, since that is the only
way to reach it: a bare ``walk(...)`` calls some other ``walk``.  So the scan
can miss an uncalled method that shares its name with a used attribute, but
it never flags a name that is used.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Definitions with no caller that stay on purpose, each with its reason.
ALLOWED = {}


def _loads(tree):
    """(name, line, through an attribute) of every name or attribute the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, True


def _definitions(tree):
    """(node, is a method) of every function and class the tree defines."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, id(node) in methods
        elif isinstance(node, ast.ClassDef):
            yield node, False


def uncalled(package_files, other_sources):
    """Sorted "module.name" of the definitions in ``package_files`` that nothing names.

    ``other_sources`` is more code that may call into the package.  Dunder
    names are skipped: Python calls them itself.
    """
    trees = {path: ast.parse(path.read_text()) for path in package_files}
    loads = {}
    for path, tree in trees.items():
        for name, line, attribute in _loads(tree):
            loads.setdefault(name, []).append((path, line, attribute))
    outside = {(name, attribute) for source in other_sources for name, _, attribute in _loads(ast.parse(source))}
    found = []
    for path, tree in trees.items():
        for node, method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if (name, True) in outside or (not method and (name, False) in outside):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if any((attribute or not method) and (other is not path or line not in own)
                   for other, line, attribute in loads.get(name, ())):
                continue
            found.append("%s.%s" % (path.stem, name))
    return sorted(found)


def _callers():
    sources = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    return sources + re.findall(r"```python\n(.*?)```", readme, re.S)


def test_every_definition_in_the_package_has_a_caller():
    package = sorted((ROOT / "src" / "parity_inductor").glob("*.py"))
    assert uncalled(package, _callers()) == sorted(ALLOWED)


def test_the_scan_flags_uncalled_and_self_called_definitions(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Used:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "def only_recurses(n):\n"
        "    return only_recurses(n - 1) if n else 0\n"
        "\n"
        "def unused():\n"
        "    return Used()\n"
    )
    (tmp_path / "b.py").write_text("from .a import unused\n")
    files = sorted(tmp_path.glob("*.py"))
    assert uncalled(files, []) == ["a.method", "a.only_recurses", "a.unused"]
    assert uncalled(files, ["Used().method()", "import x; x.unused()"]) == ["a.only_recurses"]
    # a bare name reaches a function of that name, never a method
    assert uncalled(files, ["method()", "unused()"]) == ["a.method", "a.only_recurses"]
