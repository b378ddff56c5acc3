"""No module of the package imports another module's private name.

A name that starts with ``_`` is private to the module that defines it.  A
``from .module import _name`` in ``src/parity_inductor`` couples two modules
through a detail only one of them owns, so the scan below refuses it unless
``ALLOWED`` lists it with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (importing module, defining module, name) that stay on purpose, each with its reason.
ALLOWED = {
    ("chartab", "lattice", "_extend"):
        "Dimino's coset extension: the abelian-by-cyclic test grows subgroups with it as the lattice does",
    ("cli", "groupspec", "_split_generators"):
        "a --subgroup cycle list is split into generators as a group spec's is",
    ("generators", "genchar", "_det_exponents"):
        "a generator's core has its determinant checked on its own table, from its coefficients",
}


def private_imports(package_files):
    """Sorted (importing module, defining module, name) of each relative
    import of a ``_name`` from a sibling module."""
    found = []
    for path in package_files:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level == 0 or not node.module:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append((path.stem, node.module, alias.name))
    return sorted(found)


def test_no_module_imports_another_modules_private_name():
    package = sorted((ROOT / "src" / "parity_inductor").glob("*.py"))
    assert private_imports(package) == sorted(ALLOWED)
    # the structural trees take every proof fact through public names
    assert all(importer != "decompose" for importer, _, _ in ALLOWED)


def test_the_scan_flags_private_names_only(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "from ._primes import is_prime\n"
        "from .b import public, _private\n"
        "import os\n"
    )
    assert private_imports([tmp_path / "a.py"]) == [("a", "b", "_private")]
